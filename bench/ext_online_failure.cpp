// EXT3 — Online failure handling: YCSB-A with a server crash and restart
// injected mid-workload (FaultSchedule), RPC deadlines armed on every
// node. Unlike the paper's controlled experiments (nodes failed between
// operations), here requests are in flight when the node dies: without
// deadlines they would hang forever on the silently-dropping fabric.
//
// Reported against a fault-free baseline of the same seed: throughput,
// read latency, availability (ops resolved OK / ops issued), per-code
// failure counts, RPC timeout/retry totals, degraded-path counters, and
// the cost of the post-restart repair pass that restores full redundancy.
//
// Runs at any shard count (--shards=N): the clients spawn onto their own
// shard loops, crash/restart injection and the health monitor run from
// runtime quiesce hooks, and the workload end is the latest client
// completion. The repair pass stays a single coroutine on client 0's loop.
#include <algorithm>

#include "bench_util.h"
#include "cluster/fault_schedule.h"
#include "cluster/health_monitor.h"
#include "resilience/repair.h"
#include "workload/ycsb.h"

namespace {

using namespace hpres;         // NOLINT(google-build-using-namespace)
using namespace hpres::bench;  // NOLINT(google-build-using-namespace)

constexpr std::size_t kServers = 5;
constexpr std::size_t kClients = 8;
constexpr std::size_t kCrashedServer = 1;
constexpr SimDur kDetectionLagNs = 500'000;  // 500 us failure detector

kv::RpcPolicy guard_policy() {
  kv::RpcPolicy policy;
  policy.timeout_ns = 2'000'000;  // 2 ms per attempt
  policy.max_retries = 2;
  policy.backoff_ns = 200'000;  // 200 us, doubling
  return policy;
}

workload::YcsbConfig bench_config() {
  workload::YcsbConfig cfg = workload::YcsbConfig::workload_a();
  cfg.record_count = scaled(400);
  cfg.ops_per_client = scaled(600);
  cfg.value_size = 16 * 1024;
  return cfg;
}

struct RunOut {
  workload::YcsbResult merged;
  SimDur makespan_ns = 0;
  std::uint64_t rpc_timeouts = 0;
  std::uint64_t rpc_retries = 0;
  std::uint64_t rpc_expired = 0;
  std::uint64_t degraded_gets = 0;
  std::uint64_t degraded_sets = 0;
  std::uint64_t failover_fetches = 0;
  std::uint64_t fallback_gets = 0;
  std::uint64_t hedged_gets = 0;
  std::uint64_t hedges_fired = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t hedge_wasted_bytes = 0;
  double repair_ms = 0.0;
  std::uint64_t fragments_rebuilt = 0;
  /// Closed detection loop: injected crash/restart stamps joined against
  /// the health detector's transitions (empty for the fault-free baseline).
  obs::DetectionReport detection;
  /// Measured-pass percentile rows; the {get, degraded=yes} row isolates
  /// the ops that paid failover/degraded-read costs from healthy Gets.
  std::vector<obs::LatencyRow> latency;

  [[nodiscard]] double availability() const {
    const double ops = static_cast<double>(merged.reads + merged.writes);
    if (ops <= 0.0) return 1.0;
    return 1.0 - static_cast<double>(merged.failures) / ops;
  }
};

/// Runs one client's op stream and stamps its completion time into the
/// client's own slot: with deadlines armed, stray timer events outlive the
/// last op, so the quiesced clock overstates the makespan.
sim::Task<void> client_proc(sim::Simulator* sim, resilience::Engine* engine,
                            workload::YcsbConfig cfg, std::uint64_t seed,
                            workload::YcsbResult* result, SimTime* done_at) {
  co_await workload::ycsb_client(sim, engine, cfg, seed, result);
  *done_at = sim->now();
}

sim::Task<void> repair_proc(resilience::RepairCoordinator* repair) {
  (void)co_await repair->repair_all();
}

/// One full experiment: preload, run the op streams (optionally with a
/// mid-run crash + restart of kCrashedServer), then a repair pass when a
/// fault was injected. `dry_makespan_ns` <= 0 means fault-free baseline;
/// otherwise the crash lands at 50% and the restart at 75% of it. `hedge`
/// configures hedged/load-aware reads on every client engine.
RunOut run_once(SimDur dry_makespan_ns, resilience::HedgeParams hedge = {}) {
  const bool inject = dry_makespan_ns > 0;
  const workload::YcsbConfig cfg = bench_config();
  Testbench bench(cluster::ri_qdr(), kServers, kClients,
                  resilience::Design::kEraCeCd, 3, 2, 3, {}, hedge, {}, {},
                  Testbench::kAutoShards);
  if (inject) bench.cluster().set_rpc_policy(guard_policy());
  cluster::FaultSchedule faults(bench.cluster(), kDetectionLagNs);
  obs::FaultLog fault_log;
  faults.set_fault_log(&fault_log);
  // Health plane armed on every run: the fault-free baseline doubles as
  // the false-positive control, the crash runs measure detection latency.
  cluster::HealthMonitorParams hm;
  hm.interval_ns = 1 * units::kMillisecond;
  hm.detector.min_samples = 6;
  cluster::HealthMonitor monitor(bench.cluster(), hm);

  {  // Preload, partitioned across the clients.
    const std::uint64_t stride = (cfg.record_count + kClients - 1) / kClients;
    for (std::size_t l = 0; l < kClients; ++l) {
      const std::uint64_t first = static_cast<std::uint64_t>(l) * stride;
      const std::uint64_t last =
          std::min<std::uint64_t>(first + stride, cfg.record_count);
      if (first >= last) continue;
      bench.spawn_client(
          l, workload::ycsb_load(&bench.cluster().sim_for_client(l),
                                 &bench.engine(l), cfg, first, last));
    }
    bench.run();
  }
  bench.clear_latency();  // percentiles cover the measured pass only

  const SimTime start = bench.cluster().now_quiesced();
  if (inject) {
    // The crashed node loses its store (replacement semantics): reads
    // fail over to alternate fragments until repair rebuilds it.
    faults.add_crash(start + dry_makespan_ns / 2, kCrashedServer,
                     /*wipe_store=*/true);
    faults.add_restart(start + dry_makespan_ns * 3 / 4, kCrashedServer);
    faults.arm();
  }
  monitor.arm();

  RunOut out;
  std::vector<workload::YcsbResult> results(kClients);
  std::vector<SimTime> done_at(kClients, start);
  for (std::size_t c = 0; c < kClients; ++c) {
    bench.spawn_client(
        c, client_proc(&bench.cluster().sim_for_client(c), &bench.engine(c),
                       cfg, cfg.seed + 1000 + c, &results[c], &done_at[c]));
  }
  bench.run();
  // The monitor's final tick runs from the main thread once all shards park.
  monitor.request_stop();
  const SimTime end = *std::max_element(done_at.begin(), done_at.end());
  out.makespan_ns = end - start;
  // 10 ms symptom-propagation grace: the full RPC deadline ladder plus a
  // couple of detector windows (see obs::analyze_detection).
  out.detection = obs::analyze_detection(
      fault_log, monitor.detector().transitions(), end,
      10 * units::kMillisecond);
  out.latency = bench.latency_rows();
  for (const auto& r : results) out.merged.merge(r);
  for (std::size_t c = 0; c < kClients; ++c) {
    const kv::RpcStats& rpc = bench.cluster().client(c).rpc_stats();
    out.rpc_timeouts += rpc.timeouts;
    out.rpc_retries += rpc.retries;
    out.rpc_expired += rpc.expired_calls;
    const resilience::EngineStats& eng = bench.engine(c).stats();
    out.degraded_gets += eng.degraded_gets;
    out.degraded_sets += eng.degraded_sets;
    out.failover_fetches += eng.failover_fetches;
    out.fallback_gets += eng.fallback_gets;
    out.hedged_gets += eng.hedged_gets;
    out.hedges_fired += eng.hedges_fired;
    out.hedge_wins += eng.hedge_wins;
    out.hedge_wasted_bytes += eng.hedge_wasted_bytes;
  }

  if (inject) {
    // Post-restart repair restores full redundancy on the wiped node.
    resilience::EngineContext ctx;
    ctx.sim = &bench.sim();
    ctx.client = &bench.cluster().client(0);
    ctx.ring = &bench.cluster().ring();
    ctx.membership = &bench.cluster().membership();
    ctx.server_nodes = &bench.cluster().server_nodes();
    ctx.materialize = false;
    ec::RsVandermondeCodec codec(3, 2);
    resilience::RepairCoordinator repair(
        ctx, codec, ec::CostModel::defaults(ec::Scheme::kRsVandermonde, 3, 2));
    repair.set_purge_orphans(true);
    const SimTime t0 = bench.cluster().now_quiesced();
    bench.spawn(repair_proc(&repair));
    bench.run();
    out.repair_ms = units::to_ms(bench.cluster().now_quiesced() - t0);
    out.fragments_rebuilt = repair.stats().fragments_rebuilt;
  }
  return out;
}

void print_run(const std::string& label, const RunOut& run) {
  print_cell(label);
  print_cell(run.merged.throughput_ops_per_s(run.makespan_ns));
  print_cell(units::to_us(static_cast<SimDur>(run.merged.read_latency.mean())));
  print_cell(units::to_us(run.merged.read_latency.p99()));
  print_cell(100.0 * run.availability());
  print_cell(static_cast<double>(run.merged.timeouts));
  print_cell(static_cast<double>(run.merged.unavailable));
  end_row();
}

}  // namespace

int main(int argc, char** argv) {
  obs_init(argc, argv);
  std::printf("EXT3 — online failure handling: YCSB-A, Era-CE-CD RS(3,2),"
              " RI-QDR, %zu clients\n"
              "crash of server %zu (store wiped) at 50%% of the fault-free"
              " makespan, restart at 75%%,\n"
              "detection lag %.0f us, RPC deadline 2 ms x3 attempts\n",
              kClients, kCrashedServer, units::to_us(kDetectionLagNs));

  const RunOut baseline = run_once(0);
  const RunOut faulted = run_once(baseline.makespan_ns);
  // Same crash schedule with hedged, load-ranked reads: a Get whose k-set
  // includes the (not-yet-detected) dead server completes on its hedge
  // fetch instead of waiting out the full RPC deadline ladder.
  resilience::HedgeParams hedge;
  hedge.delta = 1;
  const RunOut hedged = run_once(baseline.makespan_ns, hedge);

  print_header("YCSB under mid-workload crash",
               {"run", "ops/s", "read_us", "read_p99", "avail_%", "timeouts",
                "unavail"});
  print_run("fault-free", baseline);
  print_run("crash+restart", faulted);
  print_run("crash+hedged", hedged);

  const auto detail = [](const char* label, const RunOut& run) {
    print_cell(label);
    print_cell(static_cast<double>(run.rpc_timeouts));
    print_cell(static_cast<double>(run.rpc_retries));
    print_cell(static_cast<double>(run.degraded_gets));
    print_cell(static_cast<double>(run.failover_fetches));
    print_cell(static_cast<double>(run.fallback_gets));
    print_cell(static_cast<double>(run.hedges_fired));
    print_cell(static_cast<double>(run.hedge_wins));
    print_cell(static_cast<double>(run.hedge_wasted_bytes) / 1024.0);
    end_row();
  };
  print_header("failure-handling detail",
               {"run", "rpc_tmo", "rpc_retry", "degr_get", "failover",
                "fallback", "hedges", "h_wins", "h_waste_KB"});
  detail("crash+restart", faulted);
  detail("crash+hedged", hedged);
  std::printf("(crash+restart run: rpc_expired=%llu degr_set=%llu)\n",
              static_cast<unsigned long long>(faulted.rpc_expired),
              static_cast<unsigned long long>(faulted.degraded_sets));

  print_header("post-restart repair", {"repair_ms", "frags_rebuilt"});
  print_cell(faulted.repair_ms);
  print_cell(static_cast<double>(faulted.fragments_rebuilt));
  end_row();

  // Closed detection loop: the crash must surface as a kDown transition
  // once membership learns of it; the fault-free baseline is the
  // false-positive control.
  print_header("crash detection (health plane)",
               {"run", "fault", "node", "detected", "latency_ms"});
  const auto detection_rows = [](const char* label, const RunOut& run) {
    for (const obs::FaultDetection& d : run.detection.faults) {
      print_cell(label);
      print_cell(obs::fault_kind_name(d.fault.kind));
      print_cell("server" + std::to_string(d.fault.node));
      print_cell(d.detected ? "yes" : "MISSED");
      print_cell(d.detected ? units::to_ms(d.latency_ns) : 0.0);
      end_row();
    }
  };
  detection_rows("crash+restart", faulted);
  detection_rows("crash+hedged", hedged);
  std::printf("injected faults detected: %zu/%zu\n",
              faulted.detection.detected + hedged.detection.detected,
              faulted.detection.faults.size() +
                  hedged.detection.faults.size());
  std::printf("false positives (fault-free control): %zu\n",
              baseline.detection.false_positives);

  // Degraded-vs-healthy percentile split: in the crash run, Gets that paid
  // failure handling (failover fetches, T_check) surface as separate
  // degraded=yes rows next to the healthy population of the same run.
  print_latency_rows("latency percentiles (fault-free run)",
                     baseline.latency);
  print_latency_rows("latency percentiles (crash+restart run)",
                     faulted.latency);
  print_latency_rows("latency percentiles (crash+hedged run)",
                     hedged.latency);
  return obs_finalize();
}
