// Critical-path analyzer for causal request traces.
//
// Input: the tagged spans of one experiment point (Tracer::tagged_spans or a
// parsed trace JSON). Each client op is one trace id whose root span is the
// engine-level "set"/"get"/"del" slice; child spans (request serialization,
// encode/decode compute, fabric NIC activity, queue waits, server handlers,
// fan-out windows) are tagged with the same id across RPC hops.
//
// The analyzer attributes every nanosecond of the root interval to exactly
// one phase by a coverage sweep: at each instant the highest-priority tagged
// span covering it wins. Priority encodes "most specific cause": compute
// (encode/decode) > serialization > queueing > outbound fan-out > network
// transfer > server processing > wait-for-k (a fan-out/fetch window with
// nothing concrete in flight) > uncovered root time. Because the sweep
// partitions the closed interval with integer-ns arithmetic, the per-phase
// sums add up to the op's end-to-end latency EXACTLY — no lost gaps, no
// double counting (an acceptance invariant, asserted by tests and fig09).
//
// On top of the per-op attribution the analyzer reports, for ops that
// decode, how much of the decode time was *exposed* (no fabric activity of
// any other op in flight meanwhile) versus hidden behind concurrent
// communication — the op-by-op version of the paper's ARPE overlap claim:
// under windowed pipelining a client-side decode should overlap other ops'
// fragment fetches instead of stalling the pipeline.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.h"
#include "obs/trace.h"

namespace hpres::obs {

/// Latency phases, in table order.
enum class Phase : std::uint8_t {
  kSerialize,  ///< request serialization / issue CPU ("*/request",
               ///< packed "set/append" and "get/locator")
  kEncode,     ///< erasure encode compute (client or server side)
  kDecode,     ///< erasure decode compute (client or server side)
  kQueue,      ///< NIC tx/rx queueing, server worker-pool queueing
  kFanout,     ///< outbound sends on the op's own client NIC
  kNet,        ///< wire propagation + remote NIC serialization
  kServer,     ///< server handler time with nothing finer active
  kWaitK,      ///< inside a fan-out/fetch window, waiting on responses
  kOther,      ///< root-covered time with no tagged child span
};
inline constexpr std::size_t kPhaseCount = 9;

[[nodiscard]] std::string_view to_string(Phase p) noexcept;

/// Per-op result: full attribution of the root interval.
struct OpAttribution {
  std::uint64_t trace_id = 0;
  std::string op;       ///< root span name ("set", "get", "del")
  SimTime begin_ns = 0;
  SimDur total_ns = 0;  ///< root span duration == sum of phase_ns
  std::array<SimDur, kPhaseCount> phase_ns{};
  SimDur decode_ns = 0;          ///< decode-phase time inside the op
  SimDur decode_exposed_ns = 0;  ///< decode time with no concurrent
                                 ///< fabric activity from other ops

  [[nodiscard]] SimDur phase(Phase p) const noexcept {
    return phase_ns[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] SimDur phase_sum() const noexcept {
    SimDur s = 0;
    for (const SimDur v : phase_ns) s += v;
    return s;
  }
};

struct CriticalPathAnalysis {
  std::vector<OpAttribution> ops;  ///< sorted by trace id
  std::size_t spans_seen = 0;
  /// Traces with tagged spans but no engine root (e.g. repair traces).
  std::size_t traces_without_root = 0;
};

/// Runs the coverage sweep over every trace id present in `spans`.
[[nodiscard]] CriticalPathAnalysis analyze_critical_path(
    const std::vector<TraceSpan>& spans);

/// Accumulator for attribution tables.
struct PhaseAggregate {
  std::uint64_t count = 0;
  SimDur total_ns = 0;
  std::array<SimDur, kPhaseCount> phase_ns{};
  SimDur decode_ns = 0;
  SimDur decode_exposed_ns = 0;

  void add(const OpAttribution& op) {
    ++count;
    total_ns += op.total_ns;
    for (std::size_t i = 0; i < kPhaseCount; ++i) phase_ns[i] += op.phase_ns[i];
    decode_ns += op.decode_ns;
    decode_exposed_ns += op.decode_exposed_ns;
  }
  [[nodiscard]] SimDur phase(Phase p) const noexcept {
    return phase_ns[static_cast<std::size_t>(p)];
  }
};

/// The slowest max(1, ceil(frac * ops.size())) ops by total latency,
/// slowest first (deterministic: ties break on trace id). Empty input gives
/// an empty result.
[[nodiscard]] std::vector<const OpAttribution*> slowest_fraction(
    const std::vector<OpAttribution>& ops, double frac);

}  // namespace hpres::obs
