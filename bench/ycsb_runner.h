// Shared YCSB multi-client runner for the FIG11/FIG12 harnesses: builds a
// testbed cluster with one engine per client, preloads the record set, runs
// every client's op stream concurrently, and merges the results.
//
// Scale note: the paper preloads 250K records and runs 2.5K ops on each of
// 150 clients. The simulated runs keep the 150-client concurrency (that is
// what stresses the servers) but scale record/op counts down by default;
// set HPRES_BENCH_SCALE to grow them.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>

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
  /// Hedging / failure-handling counters summed over all client engines
  /// (measured pass; the preload runs before a fault or hedge can fire).
  std::uint64_t hedged_gets = 0;
  std::uint64_t hedges_fired = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t hedges_suppressed = 0;
  std::uint64_t hedge_wasted_bytes = 0;
  std::uint64_t failover_fetches = 0;
  std::uint64_t degraded_gets = 0;
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
    return units::to_us(
        static_cast<SimDur>(merged.read_latency.mean()));
  }
  [[nodiscard]] double avg_write_us() const {
    return units::to_us(
        static_cast<SimDur>(merged.write_latency.mean()));
  }
};

/// Epoch-invalidated memo of HashRing::primary_index. Primary resolution
/// walks the ring's point map (log |ring| per lookup); workload tooling
/// that classifies many keys against the same ring — e.g. the scale-out
/// bench's moved-key audit — hits the same keys repeatedly. The cache
/// keys validity on the ring's placement epoch, so a join/leave cutover
/// invalidates every memoized owner at once. Host-side only: simulated
/// costs never route through it.
class PrimaryCache {
 public:
  explicit PrimaryCache(const kv::HashRing* ring) : ring_(ring) {}

  [[nodiscard]] std::size_t primary_index(const std::string& key) {
    ++lookups_;
    if (epoch_ != ring_->epoch()) {
      cache_.clear();
      epoch_ = ring_->epoch();
    }
    if (const auto it = cache_.find(key); it != cache_.end()) {
      ++hits_;
      return it->second;
    }
    const std::size_t owner = ring_->primary_index(key);
    cache_.emplace(key, owner);
    return owner;
  }

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t lookups() const noexcept { return lookups_; }

 private:
  const kv::HashRing* ring_;
  std::uint64_t epoch_ = 0;  ///< epoch the cache entries resolved under
  std::unordered_map<std::string, std::size_t> cache_;
  std::uint64_t hits_ = 0;
  std::uint64_t lookups_ = 0;
};

namespace detail {

// Completion is tracked by the harness running every shard loop to
// quiescence (Testbench::run); the per-proc latch the runner once counted
// down was never awaited, and a shared latch would not be shard-safe.

inline sim::Task<void> client_proc(sim::Simulator* sim,
                                   resilience::Engine* engine,
                                   workload::YcsbConfig cfg,
                                   std::uint64_t seed,
                                   workload::YcsbResult* result) {
  co_await workload::ycsb_client(sim, engine, cfg, seed, result);
}

inline sim::Task<void> loader_proc(sim::Simulator* sim,
                                   resilience::Engine* engine,
                                   workload::YcsbConfig cfg,
                                   std::uint64_t first, std::uint64_t last) {
  co_await workload::ycsb_load(sim, engine, cfg, first, last);
}

}  // namespace detail

/// Knobs for run_ycsb beyond the testbed/design/workload triple.
struct YcsbRunOpts {
  std::size_t servers = 5;
  std::size_t clients = 150;
  std::uint32_t rep_factor = 3;
  resilience::ArpeParams arpe = {};
  resilience::HedgeParams hedge = {};
  /// RPC deadline policy armed on every node when set (required for runs
  /// that crash servers mid-op; harmless otherwise).
  std::optional<kv::RpcPolicy> policy;
  /// > 1.0: gray-slow `slow_server` by this compute factor from the start
  /// of the measured pass (the preload runs at full speed).
  double slow_factor = 1.0;
  std::size_t slow_server = 0;
  std::string point_label = {};
  /// Shard count for the parallel runtime. Defaults to the harness-wide
  /// resolution (--shards / HPRES_SHARDS, oracle when unset). Fault
  /// injection works at any count: FaultSchedule applies events from a
  /// runtime quiesce hook.
  std::size_t shards = Testbench::kAutoShards;
};

inline YcsbRun run_ycsb(const cluster::Testbed& bed,
                        resilience::Design design, workload::YcsbConfig cfg,
                        const YcsbRunOpts& opts) {
  const std::size_t clients = opts.clients;
  Testbench bench(bed, opts.servers, clients, design, 3, 2, opts.rep_factor,
                  opts.arpe, opts.hedge, opts.point_label, {}, opts.shards);
  if (opts.policy) bench.cluster().set_rpc_policy(*opts.policy);
  cluster::FaultSchedule faults(bench.cluster());

  // Preload, partitioned over a handful of loader clients. Each loader runs
  // on its own client's shard; run() drives every shard loop to quiescence.
  const std::size_t loaders = std::min<std::size_t>(8, clients);
  {
    const std::uint64_t stride =
        (cfg.record_count + loaders - 1) / loaders;
    for (std::size_t l = 0; l < loaders; ++l) {
      const std::uint64_t first = static_cast<std::uint64_t>(l) * stride;
      const std::uint64_t last = std::min<std::uint64_t>(
          first + stride, cfg.record_count);
      if (first >= last) continue;
      bench.spawn_client(
          l, detail::loader_proc(&bench.cluster().sim_for_client(l),
                                 &bench.engine(l), cfg, first, last));
    }
    bench.run();
  }
  // Percentiles cover the measured pass only (preload ops dropped; their
  // span detail is also not tail-kept, which is the point of the preload).
  bench.clear_latency();

  // Measured phase: every client runs its stream concurrently.
  YcsbRun run;
  std::vector<workload::YcsbResult> results(clients);
  const SimTime start = bench.cluster().now_quiesced();
  if (opts.slow_factor > 1.0) {
    faults.add_slowdown(start, opts.slow_server, opts.slow_factor);
    faults.arm();
  }
  for (std::size_t c = 0; c < clients; ++c) {
    bench.spawn_client(
        c, detail::client_proc(&bench.cluster().sim_for_client(c),
                               &bench.engine(c), cfg, cfg.seed + 1000 + c,
                               &results[c]));
  }
  bench.run();
  run.makespan_ns = bench.cluster().now_quiesced() - start;
  for (const auto& r : results) run.merged.merge(r);
  run.latency = bench.latency_rows();
  run.fabric = bench.cluster().fabric().stats();
  run.sim_events = bench.cluster().runtime().events_executed();
  run.profile = bench.cluster().runtime().profile();
  for (std::size_t c = 0; c < clients; ++c) {
    const resilience::EngineStats& eng = bench.engine(c).stats();
    run.hedged_gets += eng.hedged_gets;
    run.hedges_fired += eng.hedges_fired;
    run.hedge_wins += eng.hedge_wins;
    run.hedges_suppressed += eng.hedges_suppressed;
    run.hedge_wasted_bytes += eng.hedge_wasted_bytes;
    run.failover_fetches += eng.failover_fetches;
    run.degraded_gets += eng.degraded_gets;
  }
  return run;
}

/// Back-compat shim for the original positional signature.
inline YcsbRun run_ycsb(const cluster::Testbed& bed,
                        resilience::Design design,
                        workload::YcsbConfig cfg, std::size_t servers = 5,
                        std::size_t clients = 150,
                        std::uint32_t rep_factor = 3) {
  YcsbRunOpts opts;
  opts.servers = servers;
  opts.clients = clients;
  opts.rep_factor = rep_factor;
  return run_ycsb(bed, design, cfg, opts);
}

/// Testbed variant that swaps the fabric for IPoIB (the Memc-IPoIB
/// baseline: kernel TCP over the same wires).
inline cluster::Testbed with_ipoib(cluster::Testbed bed) {
  bed.fabric = net::FabricParams::ipoib_qdr();
  return bed;
}

}  // namespace hpres::bench
