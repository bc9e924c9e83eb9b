// YCSB-style workload driver (Cooper et al., SoCC'10), covering the paper's
// Section VI-C experiments: workload A (update heavy, 50:50 read:write) and
// workload B (read heavy, 95:5) over a scrambled-Zipfian request
// distribution, with a preload phase and per-client op streams.
#pragma once

#include <string>

#include "resilience/engine.h"
#include "workload/zipf.h"

namespace hpres::workload {

struct YcsbConfig {
  double read_fraction = 0.5;        ///< 0.5 = YCSB-A, 0.95 = YCSB-B
  std::uint64_t record_count = 250'000;
  std::uint64_t ops_per_client = 2'500;
  std::size_t value_size = 16 * 1024;
  std::uint64_t seed = 0xCC5B;

  /// Canonical presets.
  static YcsbConfig workload_a() { return YcsbConfig{}; }
  static YcsbConfig workload_b() {
    YcsbConfig cfg;
    cfg.read_fraction = 0.95;
    return cfg;
  }
};

/// Per-client (mergeable) op counts. Per-op latency is not here: the
/// engine's LatencyRecorder is its one record.
struct YcsbResult {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t failures = 0;
  std::uint64_t timeouts = 0;     ///< failures that resolved kTimeout
  std::uint64_t unavailable = 0;  ///< failures that resolved kUnavailable
  SimTime done_at = 0;  ///< when this client's last op completed (merge: max)

  void merge(const YcsbResult& other);

  /// Aggregate throughput given the overall makespan.
  [[nodiscard]] double throughput_ops_per_s(SimDur makespan_ns) const;
};

/// The paper fixes keys at 16 B.
inline constexpr std::size_t kYcsbKeyBytes = 16;

/// Zero-padded YCSB-style key ("user000000001234") of exactly
/// kYcsbKeyBytes.
[[nodiscard]] std::string ycsb_key(std::uint64_t id);

/// Loads records [first, last) through an engine (the preload phase).
/// Values are size-only unless the engine materializes.
sim::Task<void> ycsb_load(sim::Simulator* sim, resilience::Engine* engine,
                          YcsbConfig config, std::uint64_t first,
                          std::uint64_t last);

/// Runs one client's op stream: ops_per_client operations, read/write mix
/// per config, keys from a scrambled-Zipfian distribution (θ =
/// ZipfianGenerator::kYcsbTheta). Op counts and
/// the completion time land in *result.
sim::Task<void> ycsb_client(sim::Simulator* sim, resilience::Engine* engine,
                            YcsbConfig config, std::uint64_t client_seed,
                            YcsbResult* result);

}  // namespace hpres::workload
