// Health plane end-to-end: the closed detection loop over a real YCSB run
// (injected fault -> detector flag -> ground-truth join), zero false
// positives on a healthy run, the automatic timeout-burst flight dump, and
// the observation-only invariant — a run with the monitor and flight
// recorder attached is byte-identical to one without them.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "cluster/fault_schedule.h"
#include "cluster/health_monitor.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "testing/fixtures.h"
#include "workload/ycsb.h"

namespace hpres {
namespace {

constexpr std::size_t kServers = 5;
constexpr std::size_t kClients = 3;

kv::RpcPolicy test_policy() {
  kv::RpcPolicy policy;
  policy.timeout_ns = 500'000;  // 500 us per attempt
  policy.max_retries = 1;
  policy.backoff_ns = 50'000;
  return policy;
}

/// Symptom-propagation grace: the 500 us x2 deadline ladder plus one 1 ms
/// detector window.
constexpr SimDur kGraceNs = 2 * units::kMillisecond;

struct PlaneOutcome {
  SimTime makespan = 0;
  std::uint64_t ops = 0;
  std::uint64_t failures = 0;
  std::uint64_t rpc_timeouts = 0;
  std::int64_t read_latency_sum = 0;
  std::uint64_t detector_ticks = 0;
  std::uint64_t events = 0;
  obs::DetectionReport report;
  std::string metrics_json;
};

enum class Fault { kNone, kCrash };

/// Small YCSB-A run, optionally crashing server 1 mid-stream, with the
/// health plane armed (unless `with_plane` is false, for the perturbation
/// check).
PlaneOutcome run_plane_ycsb(std::uint64_t seed, Fault fault,
                            bool with_plane) {
  obs::MetricsRegistry registry;
  ec::RsVandermondeCodec codec(3, 2);
  const auto cost = ec::CostModel::defaults(ec::Scheme::kRsVandermonde, 3, 2);
  cluster::Cluster cl(cluster::ClusterConfig{.num_servers = kServers,
                                             .num_clients = kClients});
  cl.enable_server_ec(codec, cost, false);
  cl.set_rpc_policy(test_policy());

  obs::FlightRecorder flight(64);
  if (with_plane) cl.set_flight_recorder(&flight);

  obs::LatencyRecorder recorder;  // one shard: every engine records here
  std::vector<std::unique_ptr<resilience::Engine>> engines;
  for (std::size_t c = 0; c < kClients; ++c) {
    resilience::EngineContext ctx = cl.engine_context(c, false);
    ctx.recorder = &recorder;
    engines.push_back(resilience::make_engine(resilience::Design::kEraCeCd,
                                              ctx, 3, &codec, cost));
  }
  cl.start();
  cl.register_metrics(registry, "plane");

  cluster::FaultSchedule faults(cl, /*detection_lag_ns=*/200'000);
  obs::FaultLog fault_log;
  faults.set_fault_log(&fault_log);
  if (fault == Fault::kCrash) {
    // The run lasts about 3 ms: the crash leaves the 1 ms detector ticks
    // room to flag it before the workload ends.
    faults.add_crash(1 * units::kMillisecond, 1);
    faults.add_restart(6 * units::kMillisecond, 1);
    faults.arm();
  }

  cluster::HealthMonitor monitor(cl);
  if (with_plane) monitor.arm();

  workload::YcsbConfig cfg;
  cfg.record_count = 150;
  cfg.ops_per_client = 120;
  cfg.value_size = 8192;
  cfg.seed = seed;
  std::vector<workload::YcsbResult> results(kClients);
  struct Proc {
    static sim::Task<void> run(sim::Simulator* sim, resilience::Engine* e,
                               workload::YcsbConfig c, std::uint64_t s,
                               workload::YcsbResult* r, bool load) {
      if (load) co_await workload::ycsb_load(sim, e, c, 0, c.record_count);
      co_await workload::ycsb_client(sim, e, c, s, r);
    }
  };
  for (std::size_t c = 0; c < kClients; ++c) {
    cl.sim().spawn(Proc::run(&cl.sim(), engines[c].get(), cfg, seed + 7 * c,
                             &results[c], c == 0));
  }

  PlaneOutcome out;
  out.makespan = cl.run();
  monitor.request_stop();  // a no-op when the monitor was never armed
  out.events = cl.runtime().events_executed();
  workload::YcsbResult merged;
  for (std::size_t c = 0; c < kClients; ++c) {
    merged.merge(results[c]);
    out.rpc_timeouts += cl.client(c).rpc_stats().timeouts;
  }
  out.ops = merged.reads + merged.writes;
  out.failures = merged.failures;
  out.read_latency_sum = recorder.pooled("get").sum();
  // The latest client's last op ends the workload (stray RPC-deadline
  // timers outlive it).
  const SimTime end = merged.done_at;
  out.detector_ticks = monitor.ticks();
  out.report = obs::analyze_detection(
      fault_log, monitor.detector().transitions(), end, kGraceNs);
  registry.capture();
  out.metrics_json = registry.to_json();
  return out;
}

TEST(HealthPlane, ClosedLoopDetectsInjectedCrash) {
  const PlaneOutcome out = run_plane_ycsb(41, Fault::kCrash, true);
  EXPECT_EQ(out.ops, kClients * 120u);
  ASSERT_EQ(out.report.faults.size(), 1u);  // one onset stamp (the crash)
  EXPECT_TRUE(out.report.faults[0].detected)
      << "injected crash never flagged by the detector";
  EXPECT_EQ(out.report.faults[0].flagged_as, obs::NodeHealthState::kDown);
  // Detection latency: membership lag (200 us) + at most one detector
  // window (1 ms) + scheduling slop; far under a second either way.
  EXPECT_GT(out.report.faults[0].latency_ns, 0);
  EXPECT_LT(out.report.faults[0].latency_ns, 2 * units::kMillisecond);
  EXPECT_EQ(out.report.false_positives, 0u);
  EXPECT_GT(out.detector_ticks, 0u);
}

sim::Task<void> set_one(resilience::Engine* engine, std::size_t i) {
  const Status s = co_await engine->set(
      "burst" + std::to_string(i), make_shared_bytes(make_pattern(1024, i)));
  (void)s;  // writes stranded on the crashed server may fail
}

struct BurstOutcome {
  std::uint64_t rpc_timeouts = 0;
  std::uint64_t flight_dumps = 0;
  std::string dump;  ///< contents of the dump file ("" when none)
};

/// 32 concurrent Sets, each with one fragment on server 1. With `crash`,
/// server 1 is slowed 1000x from the start, so those fragments queue on
/// it, and then crashes at 100 us: every one of them is stranded until its
/// 500 us deadline, and they expire within one detector window.
BurstOutcome run_burst(bool crash, const std::string& dump_path) {
  ec::RsVandermondeCodec codec(3, 2);
  const auto cost = ec::CostModel::defaults(ec::Scheme::kRsVandermonde, 3, 2);
  cluster::Cluster cl(cluster::ClusterConfig{.num_servers = kServers,
                                             .num_clients = 1});
  cl.enable_server_ec(codec, cost, true);
  cl.set_rpc_policy(test_policy());
  obs::FlightRecorder flight(64);
  flight.set_dump_path(dump_path);
  cl.set_flight_recorder(&flight);
  const auto engine = resilience::make_engine(
      resilience::Design::kEraCeCd, cl.engine_context(0), 3, &codec, cost);
  cl.start();

  cluster::FaultSchedule faults(cl, /*detection_lag_ns=*/200'000);
  if (crash) {
    faults.add_slowdown(0, 1, 1000.0);
    faults.add_crash(100 * units::kMicrosecond, 1);
    faults.arm();
  }
  cluster::HealthMonitor monitor(cl);
  monitor.arm();
  for (std::size_t i = 0; i < 32; ++i) {
    cl.sim().spawn(set_one(engine.get(), i));
  }
  cl.run();
  monitor.request_stop();

  BurstOutcome out;
  out.rpc_timeouts = cl.client(0).rpc_stats().timeouts;
  out.flight_dumps = monitor.flight_dumps_triggered();
  std::ifstream in(dump_path, std::ios::binary);
  out.dump.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
  std::remove(dump_path.c_str());
  return out;
}

TEST(HealthPlane, TimeoutBurstTriggersOneFlightDump) {
  const std::string path = ::testing::TempDir() + "health_plane_burst.json";
  std::remove(path.c_str());
  const BurstOutcome crashed = run_burst(true, path);
  EXPECT_GE(crashed.rpc_timeouts, cluster::HealthMonitor::kTimeoutBurst);
  EXPECT_GE(crashed.flight_dumps, 1u);
  // The crash dump is written first; the burst dump comes after it.
  EXPECT_NE(crashed.dump.find("\"reason\":\"timeout-burst\""),
            std::string::npos);

  // Control: a healthy run has no deadline expiries and writes no dump.
  const BurstOutcome healthy = run_burst(false, path);
  EXPECT_EQ(healthy.rpc_timeouts, 0u);
  EXPECT_EQ(healthy.flight_dumps, 0u);
  EXPECT_TRUE(healthy.dump.empty());
}

TEST(HealthPlane, HealthyRunRaisesNoFlags) {
  const PlaneOutcome out = run_plane_ycsb(42, Fault::kNone, true);
  EXPECT_EQ(out.ops, kClients * 120u);
  EXPECT_TRUE(out.report.faults.empty());
  EXPECT_EQ(out.report.false_positives, 0u)
      << "detector flagged a node in a fault-free run";
  EXPECT_GT(out.detector_ticks, 0u);
}

TEST(HealthPlane, MonitoringIsObservationOnly) {
  // The whole plane — signals, detector ticker, flight recorder — must not
  // perturb the workload: same seed with and without the plane attached
  // produces byte-identical results, down to the full metrics export and
  // the executed event count (the ticker is a quiesce hook, not an event
  // source). This is the "detector-disabled runs are byte-identical"
  // determinism guarantee the observability docs promise.
  const PlaneOutcome with_plane = run_plane_ycsb(43, Fault::kCrash, true);
  const PlaneOutcome without = run_plane_ycsb(43, Fault::kCrash, false);
  EXPECT_EQ(with_plane.makespan, without.makespan);
  EXPECT_EQ(with_plane.events, without.events);
  EXPECT_EQ(with_plane.ops, without.ops);
  EXPECT_EQ(with_plane.failures, without.failures);
  EXPECT_EQ(with_plane.rpc_timeouts, without.rpc_timeouts);
  EXPECT_EQ(with_plane.read_latency_sum, without.read_latency_sum);
  ASSERT_EQ(with_plane.metrics_json, without.metrics_json);
  // And the plane actually ran in the monitored variant.
  EXPECT_GT(with_plane.detector_ticks, 0u);
  EXPECT_EQ(without.detector_ticks, 0u);
}

TEST(HealthPlane, SameSeedSamePlaneIsDeterministic) {
  const PlaneOutcome a = run_plane_ycsb(44, Fault::kCrash, true);
  const PlaneOutcome b = run_plane_ycsb(44, Fault::kCrash, true);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.detector_ticks, b.detector_ticks);
  ASSERT_EQ(a.report.faults.size(), b.report.faults.size());
  for (std::size_t i = 0; i < a.report.faults.size(); ++i) {
    EXPECT_EQ(a.report.faults[i].detected_at_ns,
              b.report.faults[i].detected_at_ns);
  }
  ASSERT_EQ(a.metrics_json, b.metrics_json);
}

}  // namespace
}  // namespace hpres
