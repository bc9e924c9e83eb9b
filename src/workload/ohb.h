// OHB-style Memcached micro-benchmark driver (Section VI-B): one client
// issues a fixed count of Set or Get operations of one value size against
// the cluster, measuring total time and mean per-op latency (the phase
// breakdown comes from the engine's span tracer). Mirrors the OSU HiBD OHB
// benchmark used by the paper.
#pragma once

#include "resilience/engine.h"

namespace hpres::workload {

struct OhbConfig {
  std::uint64_t operations = 1'000;  ///< paper: 1K ops per point
  std::size_t value_size = 4096;
  std::size_t key_size = 16;
  std::uint64_t seed = 0x0B5;
};

struct OhbResult {
  SimDur total_ns = 0;
  std::uint64_t operations = 0;
  std::uint64_t failures = 0;

  [[nodiscard]] double avg_latency_us() const {
    return operations == 0 ? 0.0
                           : units::to_us(total_ns) /
                                 static_cast<double>(operations);
  }
};

/// Issues `operations` blocking Sets ("ohb-<i>" keys) and fills *result.
sim::Task<void> ohb_set_workload(sim::Simulator* sim,
                                 resilience::Engine* engine, OhbConfig config,
                                 OhbResult* result);

/// Issues `operations` blocking Gets over keys written by ohb_set_workload.
sim::Task<void> ohb_get_workload(sim::Simulator* sim,
                                 resilience::Engine* engine, OhbConfig config,
                                 OhbResult* result);

}  // namespace hpres::workload
