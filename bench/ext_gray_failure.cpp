// EXT4 — Gray failures and the closed detection loop: YCSB-A while one
// server turns gray mid-workload — slow (compute x8, still answering) or
// lossy (fabric silently eats 25% of its traffic) — plus a crash run for
// contrast. Membership stays green for the gray modes: only the online
// health detector (cluster::HealthMonitor + obs::HealthDetector) can tell
// that anything is wrong.
//
// The loop is closed: every injection is stamped into an obs::FaultLog at
// apply time, and analyze_detection() joins the stamps against the
// detector's transition log. The bench reports per-fault detection latency
// and the aggregate "injected faults detected: N/N" line CI gates on,
// plus false positives on a healthy control run of the same seed (must be
// zero). Run with --flight-out=FILE to also exercise the flight-recorder
// dump triggers (crash + timeout burst) for tools/health_report.
//
// Runs at any shard count (--shards=N): the clients spawn onto their own
// shard loops, fault injection and the health monitor run from runtime
// quiesce hooks, and the workload end is the latest client completion.
#include "bench_util.h"
#include "cluster/fault_schedule.h"
#include "cluster/health_monitor.h"
#include "workload/ycsb.h"

namespace {

using namespace hpres;         // NOLINT(google-build-using-namespace)
using namespace hpres::bench;  // NOLINT(google-build-using-namespace)

constexpr std::size_t kServers = 5;
constexpr std::size_t kClients = 8;
constexpr std::size_t kGrayServer = 2;    ///< slowdown / silent-loss target
constexpr std::size_t kCrashedServer = 1;
constexpr SimDur kDetectionLagNs = 500'000;  // membership lag (crash only)
constexpr double kSlowFactor = 50.0;  ///< dying-disk/NIC class straggler
constexpr double kLossProbability = 0.25;
/// Symptom-propagation grace for the ground-truth join: a message dropped
/// just before the fault clears surfaces as a timeout a full RPC deadline
/// ladder later (3 attempts x 2 ms + backoffs), plus detector hysteresis.
constexpr SimDur kDetectionGraceNs = 10 * units::kMillisecond;

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

enum class FaultMode { kNone, kSlow, kLossy, kCrash };

struct RunOut {
  workload::YcsbResult merged;
  SimDur makespan_ns = 0;
  LatencyHistogram get_latency;  ///< measured pass, pooled over degraded
  std::uint64_t rpc_timeouts = 0;
  std::uint64_t rpc_retries = 0;
  std::uint64_t detector_ticks = 0;
  std::uint64_t burst_dumps = 0;
  obs::DetectionReport report;

  [[nodiscard]] double availability() const {
    const double ops = static_cast<double>(merged.reads + merged.writes);
    if (ops <= 0.0) return 1.0;
    return 1.0 - static_cast<double>(merged.failures) / ops;
  }
};

/// One full experiment: preload, then the op streams with `mode`'s fault
/// injected at 35% of the fault-free makespan and cleared at 75% (crash:
/// 50% / restart 75%, matching ext_online_failure). `dry_makespan_ns` <= 0
/// means the fault-free control used to calibrate the schedule.
RunOut run_once(FaultMode mode, SimDur dry_makespan_ns) {
  const workload::YcsbConfig cfg = bench_config();
  Testbench bench(cluster::ri_qdr(), kServers, kClients,
                  resilience::Design::kEraCeCd);
  bench.cluster().set_rpc_policy(guard_policy());
  cluster::FaultSchedule faults(bench.cluster(), kDetectionLagNs);
  obs::FaultLog fault_log;
  faults.set_fault_log(&fault_log);
  cluster::HealthMonitor monitor(bench.cluster());
  {
    ObsSession& obs = ObsSession::instance();
    if (obs.metrics_enabled()) {
      monitor.register_gauges(obs.registry(), bench.label());
    }
  }

  bench.preload(cfg);

  const SimTime start = bench.cluster().now_quiesced();
  if (mode != FaultMode::kNone) {
    const SimTime onset = start + dry_makespan_ns * 35 / 100;
    const SimTime clear = start + dry_makespan_ns * 75 / 100;
    switch (mode) {
      case FaultMode::kSlow:
        faults.add_slowdown(onset, kGrayServer, kSlowFactor);
        faults.add_slowdown(clear, kGrayServer, 1.0);
        break;
      case FaultMode::kLossy:
        faults.add_loss(onset, kGrayServer, kLossProbability);
        faults.add_loss(clear, kGrayServer, 0.0);
        break;
      case FaultMode::kCrash:
        faults.add_crash(start + dry_makespan_ns / 2, kCrashedServer);
        faults.add_restart(clear, kCrashedServer);
        break;
      case FaultMode::kNone:
        break;
    }
    faults.arm();
  }
  monitor.arm();

  RunOut out;
  out.merged = bench.run_clients(cfg);
  // The monitor's final tick runs from the main thread once all shards park.
  monitor.request_stop();
  // The last op's completion ends the pass, so detection metrics cover
  // exactly the workload, not the stray RPC-deadline timers that outlive it.
  const SimTime end = out.merged.done_at;
  out.makespan_ns = end - start;
  out.get_latency = bench.latency("get");
  for (std::size_t c = 0; c < kClients; ++c) {
    const kv::RpcStats& rpc = bench.cluster().client(c).rpc_stats();
    out.rpc_timeouts += rpc.timeouts;
    out.rpc_retries += rpc.retries;
  }
  out.detector_ticks = monitor.ticks();
  out.burst_dumps = monitor.flight_dumps_triggered();
  out.report = obs::analyze_detection(
      fault_log, monitor.detector().transitions(), end, kDetectionGraceNs);
  return out;
}

void print_run(const std::string& label, const RunOut& run) {
  print_cell(label);
  print_cell(run.merged.throughput_ops_per_s(run.makespan_ns));
  print_cell(units::to_us(static_cast<SimDur>(run.get_latency.mean())));
  print_cell(units::to_us(run.get_latency.p99()));
  print_cell(100.0 * run.availability());
  print_cell(static_cast<double>(run.rpc_timeouts));
  print_cell(static_cast<double>(run.rpc_retries));
  end_row();
}

void print_detection(const std::string& label, const RunOut& run) {
  for (const obs::FaultDetection& d : run.report.faults) {
    print_cell(label);
    print_cell(obs::fault_kind_name(d.fault.kind));
    print_cell("server" + std::to_string(d.fault.node));
    print_cell(d.detected ? "yes" : "MISSED");
    print_cell(d.detected ? units::to_ms(d.latency_ns) : 0.0);
    print_cell(d.detected ? obs::node_health_state_name(d.flagged_as) : "-");
    end_row();
  }
}

}  // namespace

int main(int argc, char** argv) {
  obs_init(argc, argv);
  std::printf(
      "EXT4 — gray failures + closed detection loop: YCSB-A, Era-CE-CD"
      " RS(3,2), RI-QDR, %zu clients\n"
      "gray server %zu: slowdown x%.0f or silent loss %.0f%% from 35%% to"
      " 75%% of the fault-free makespan;\n"
      "crash run: server %zu down at 50%%, back at 75%% (membership lag"
      " %.0f us). RPC deadline 2 ms x3.\n"
      "health monitor: 1 ms windows, detector thresholds per"
      " docs/TUNING.md.\n",
      kClients, kGrayServer, kSlowFactor, 100.0 * kLossProbability,
      kCrashedServer, units::to_us(kDetectionLagNs));

  const RunOut healthy = run_once(FaultMode::kNone, 0);
  const RunOut slow = run_once(FaultMode::kSlow, healthy.makespan_ns);
  const RunOut lossy = run_once(FaultMode::kLossy, healthy.makespan_ns);
  const RunOut crash = run_once(FaultMode::kCrash, healthy.makespan_ns);

  print_header("YCSB under gray failure",
               {"run", "ops/s", "read_us", "read_p99", "avail_%", "rpc_tmo",
                "rpc_retry"});
  print_run("healthy", healthy);
  print_run("gray-slow", slow);
  print_run("gray-lossy", lossy);
  print_run("crash", crash);

  print_header("closed detection loop",
               {"run", "fault", "node", "detected", "latency_ms",
                "flagged_as"});
  print_detection("gray-slow", slow);
  print_detection("gray-lossy", lossy);
  print_detection("crash", crash);

  std::size_t injected = 0;
  std::size_t detected = 0;
  std::size_t run_fps = 0;
  for (const RunOut* run : {&slow, &lossy, &crash}) {
    injected += run->report.faults.size();
    detected += run->report.detected;
    run_fps += run->report.false_positives;
  }
  std::printf("\ninjected faults detected: %zu/%zu\n", detected, injected);
  std::printf("false positives (fault runs): %zu\n", run_fps);
  std::printf("false positives (healthy control): %zu over %llu detector"
              " ticks\n",
              healthy.report.false_positives,
              static_cast<unsigned long long>(healthy.detector_ticks));
  std::printf("timeout-burst flight dumps: %llu (gray-lossy run: %llu)\n",
              static_cast<unsigned long long>(
                  slow.burst_dumps + lossy.burst_dumps + crash.burst_dumps),
              static_cast<unsigned long long>(lossy.burst_dumps));
  return obs_finalize();
}
