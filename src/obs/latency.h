// Always-on per-op latency percentile engine with tail sampling.
//
// One LatencyHistogram (log-bucketed, HDR-style: exact counts, ≤1/64
// relative value error) per {op, scheme, degraded} label set gives exact
// count-preserving p50/p95/p99/p99.9/max at O(1) memory per label — safe to
// leave enabled for every op of every run, independent of whether span
// tracing is on.
//
// Tail sampling: when span tracing IS on, keeping full span detail for
// every op is wasteful — the interesting ops are the slow ones. The
// recorder remembers the trace ids of (a) every op slower than a fixed
// threshold (bounded by kMaxThresholdKept per label) and (b) the slowest-N
// reservoir per label (a min-heap). At run end the harness intersects the
// tracer's tagged events with kept_traces() (Tracer::retain_traces), so the
// exported JSON carries full causal detail only for tail ops while
// histograms still cover 100% of ops. Memory stays O(1) per label set by
// construction; a test asserts it.
//
// Determinism: recording performs no simulation work and no RNG; the
// reservoir is a pure function of the recorded (latency, trace_id) stream.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/histogram.h"
#include "common/units.h"

namespace hpres::obs {

/// Label set of one percentile series.
struct LatencyKey {
  std::string op;      ///< "set", "get", "del"
  std::string scheme;  ///< engine name ("era-ce-cd", "rep-async", ...)
  bool degraded = false;

  auto operator<=>(const LatencyKey&) const = default;
};

/// One rendered table row (value-type snapshot, safe to keep after the
/// recorder is gone).
struct LatencyRow {
  LatencyKey key;
  std::uint64_t count = 0;
  std::int64_t sum_ns = 0;  ///< exact, so rows pool without rounding
  double mean_ns = 0.0;
  std::int64_t p50_ns = 0;
  std::int64_t p95_ns = 0;
  std::int64_t p99_ns = 0;
  std::int64_t p999_ns = 0;
  std::int64_t max_ns = 0;
};

class LatencyRecorder {
 public:
  /// Hard cap on threshold-kept trace ids per label, so a mis-set low
  /// threshold cannot grow memory without bound.
  static constexpr std::size_t kMaxThresholdKept = 4096;

  struct TailParams {
    SimDur threshold_ns = 0;      ///< keep traces slower than this (0 = off)
    std::size_t keep_slowest = 0;  ///< slowest-N reservoir size (0 = off)
  };

  void set_tail(TailParams p) noexcept { tail_ = p; }
  [[nodiscard]] const TailParams& tail() const noexcept { return tail_; }

  /// Records one op latency. `trace_id` 0 (tracing off) records into the
  /// histogram but never into the tail sets.
  void record(std::string_view op, std::string_view scheme, bool degraded,
              SimDur latency_ns, std::uint64_t trace_id = 0);

  /// Histogram for a label set; nullptr if nothing recorded under it.
  [[nodiscard]] const LatencyHistogram* histogram(const LatencyKey& key) const;

  /// Every histogram recorded under `op`, merged over scheme and degraded
  /// (exact: counts, sum, min, max and buckets add).
  [[nodiscard]] LatencyHistogram pooled(std::string_view op) const;

  /// Snapshot of every label set, sorted by key (deterministic).
  [[nodiscard]] std::vector<LatencyRow> rows() const;

  /// Union of tail-kept trace ids across all labels (threshold hits plus
  /// every slowest-N reservoir).
  [[nodiscard]] std::unordered_set<std::uint64_t> kept_traces() const;

  [[nodiscard]] std::size_t label_count() const noexcept {
    return series_.size();
  }
  /// Tail-kept ids under one label (tests assert the O(1) memory bound).
  [[nodiscard]] std::size_t kept_count(const LatencyKey& key) const;

  /// Merges counts and tail sets of `other` into this recorder.
  void merge(const LatencyRecorder& other);

  /// Drops every series (harnesses reset between preload and measurement).
  void clear() noexcept { series_.clear(); }

 private:
  struct Series {
    LatencyHistogram hist;
    /// Min-heap on latency: root = fastest kept op, evicted first.
    std::vector<std::pair<SimDur, std::uint64_t>> slowest;
    std::vector<std::uint64_t> over_threshold;
  };

  void keep_tail(Series& s, SimDur latency_ns, std::uint64_t trace_id);

  std::map<LatencyKey, Series> series_;
  TailParams tail_;
};

}  // namespace hpres::obs
