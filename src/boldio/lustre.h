// Lustre parallel-filesystem model: a shared storage backend with separate
// read/write aggregate pipes, a per-stream bandwidth cap, and a metadata
// round trip per operation.
//
// Stands in for the paper's 1 TB Lustre deployment on RI-QDR (DESIGN.md §2).
// The aggregate pipes are deliberately far below the memcached fabric's
// aggregate bandwidth — that gap is exactly what a burst buffer exists to
// bridge, and it is what produces Figure 13's Boldio-vs-Lustre-Direct gap.
// The read pipe is modeled below the write pipe, matching the paper's
// testbed where TestDFSIO read over Lustre-Direct fared far worse (5.9x)
// than write (2.6x).
#pragma once

#include <cstdint>

#include "common/units.h"
#include "sim/simulator.h"

namespace hpres::boldio {

struct LustreStats {
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t write_ops = 0;
  std::uint64_t read_ops = 0;
};

class LustreModel {
 public:
  static constexpr double kAggregateWriteGbps = 9.0;  ///< shared OST write
  static constexpr double kAggregateReadGbps = 18.5;  ///< shared OST read
  static constexpr double kPerStreamGbps = 2.4;  ///< single-client stream cap
  static constexpr SimDur kMetadataNs = 200'000;  ///< open/lookup/close trip

  explicit LustreModel(sim::Simulator& sim) : sim_(&sim) {}
  LustreModel(const LustreModel&) = delete;
  LustreModel& operator=(const LustreModel&) = delete;

  [[nodiscard]] const LustreStats& stats() const noexcept { return stats_; }

  /// Writes `bytes`, suspending for the modeled duration: queueing on the
  /// shared write pipe, bounded by the per-stream rate, plus metadata.
  sim::Task<void> write(std::uint64_t bytes);

  /// Reads `bytes` under the same model on the read pipe.
  sim::Task<void> read(std::uint64_t bytes);

 private:
  sim::Task<void> transfer(std::uint64_t bytes, double aggregate_gbps,
                           SimTime* pipe_busy_until);

  sim::Simulator* sim_;
  SimTime write_busy_until_ = 0;
  SimTime read_busy_until_ = 0;
  LustreStats stats_;
};

}  // namespace hpres::boldio
