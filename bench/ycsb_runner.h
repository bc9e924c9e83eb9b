// Shared YCSB multi-client runner for the FIG11/FIG12 harnesses: builds a
// testbed cluster with one engine per client, preloads the record set, runs
// every client's op stream concurrently, and merges the results.
//
// Scale note: the paper preloads 250K records and runs 2.5K ops on each of
// 150 clients. The simulated runs keep the 150-client concurrency (that is
// what stresses the servers) but scale record/op counts down by default;
// set HPRES_BENCH_SCALE to grow them.
#pragma once

#include <string>

#include "bench_util.h"
#include "cluster/fault_schedule.h"
#include "workload/ycsb.h"

namespace hpres::bench {

struct YcsbRun {
  workload::YcsbResult merged;  ///< all clients
  SimDur makespan_ns = 0;       ///< first op to last completion
  /// Measured-pass percentile rows ({op, scheme, degraded}, p50..p99.9)
  /// from the always-on LatencyRecorder; preload ops are excluded.
  std::vector<obs::LatencyRow> latency;
  /// The same recorder's measured-pass histograms of each op, pooled over
  /// scheme and degraded.
  LatencyHistogram get_latency;
  LatencyHistogram set_latency;
  /// Hedging / failure-handling counters summed over all client engines
  /// (measured pass; the preload runs before a fault or hedge can fire).
  std::uint64_t hedged_gets = 0;
  std::uint64_t hedges_fired = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t hedges_suppressed = 0;
  std::uint64_t hedge_wasted_bytes = 0;
  std::uint64_t failover_fetches = 0;
  /// Fabric counters at quiescence, merged over all shards (conservation
  /// identities: sent == delivered + dropped, in bytes and messages).
  net::FabricStats fabric;
  /// Simulator events executed over the whole run (all shards).
  std::uint64_t sim_events = 0;
  /// Runtime execution profile (per-shard events / barrier stall / lane
  /// traffic, window advance stats). One shard, no rounds in oracle mode.
  sim::RuntimeProfile profile;

  [[nodiscard]] double throughput_ops_s() const {
    return merged.throughput_ops_per_s(makespan_ns);
  }
  [[nodiscard]] double avg_read_us() const {
    return units::to_us(static_cast<SimDur>(get_latency.mean()));
  }
  [[nodiscard]] double avg_write_us() const {
    return units::to_us(static_cast<SimDur>(set_latency.mean()));
  }
};

/// Knobs for run_ycsb beyond the testbed/design/workload triple.
struct YcsbRunOpts {
  std::size_t servers = 5;
  std::size_t clients = 150;
  std::uint32_t rep_factor = 3;
  resilience::HedgeParams hedge = {};
  /// > 1.0: gray-slow `slow_server` by this compute factor from the start
  /// of the measured pass (the preload runs at full speed).
  double slow_factor = 1.0;
  std::size_t slow_server = 0;
  std::string point_label = {};
  /// Shard count for the parallel runtime. Defaults to the process
  /// --shards count (oracle when unset). Fault injection
  /// works at any count: FaultSchedule applies events from a runtime
  /// quiesce hook.
  std::size_t shards = ObsSession::instance().effective_shards();
};

inline YcsbRun run_ycsb(const cluster::Testbed& bed,
                        resilience::Design design, workload::YcsbConfig cfg,
                        const YcsbRunOpts& opts) {
  Testbench bench(bed, opts.servers, opts.clients, design, 3, 2,
                  opts.rep_factor, {}, opts.hedge, opts.point_label, {},
                  opts.shards);
  cluster::FaultSchedule faults(bench.cluster());
  bench.preload(cfg);

  // Measured phase: every client runs its stream concurrently.
  YcsbRun run;
  const SimTime start = bench.cluster().now_quiesced();
  if (opts.slow_factor > 1.0) {
    faults.add_slowdown(start, opts.slow_server, opts.slow_factor);
    faults.arm();
  }
  run.merged = bench.run_clients(cfg);
  run.makespan_ns = bench.cluster().now_quiesced() - start;
  run.latency = bench.latency_rows();
  run.get_latency = bench.latency("get");
  run.set_latency = bench.latency("set");
  run.fabric = bench.cluster().fabric().stats();
  run.sim_events = bench.cluster().runtime().events_executed();
  run.profile = bench.cluster().runtime().profile();
  for (std::size_t c = 0; c < opts.clients; ++c) {
    const resilience::EngineStats& eng = bench.engine(c).stats();
    run.hedged_gets += eng.hedged_gets;
    run.hedges_fired += eng.hedges_fired;
    run.hedge_wins += eng.hedge_wins;
    run.hedges_suppressed += eng.hedges_suppressed;
    run.hedge_wasted_bytes += eng.hedge_wasted_bytes;
    run.failover_fetches += eng.failover_fetches;
  }
  return run;
}

/// Testbed variant that swaps the fabric for IPoIB (the Memc-IPoIB
/// baseline: kernel TCP over the same wires).
inline cluster::Testbed with_ipoib(cluster::Testbed bed) {
  bed.fabric = net::FabricParams::ipoib_qdr();
  return bed;
}

}  // namespace hpres::bench
