// Mid-workload fault injection end-to-end: a YCSB run with a server
// crashing and restarting while requests are in flight must run to
// completion (every op resolves — no silent-drop hangs), and the whole
// faulted experiment must stay bit-identical across same-seed runs.
#include <gtest/gtest.h>

#include "cluster/fault_schedule.h"
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

struct FaultedOutcome {
  SimTime makespan = 0;
  std::uint64_t events = 0;
  std::uint64_t ops = 0;
  std::uint64_t failures = 0;
  std::uint64_t rpc_timeouts = 0;
  std::uint64_t fired = 0;
  std::string metrics_json;
};

/// Small YCSB-A run with a crash at 2 ms and a restart at 6 ms of
/// simulated time, the crashed store wiped (replacement node semantics).
FaultedOutcome run_faulted_ycsb(std::uint64_t seed) {
  obs::MetricsRegistry registry;
  ec::RsVandermondeCodec codec(3, 2);
  const auto cost = ec::CostModel::defaults(ec::Scheme::kRsVandermonde, 3, 2);
  cluster::Cluster cl(cluster::ClusterConfig{.num_servers = kServers,
                                             .num_clients = kClients});
  cl.enable_server_ec(codec, cost, false);
  cl.set_rpc_policy(test_policy());
  std::vector<std::unique_ptr<resilience::Engine>> engines;
  for (std::size_t c = 0; c < kClients; ++c) {
    engines.push_back(resilience::make_engine(
        resilience::Design::kEraCeCd, cl.engine_context(c, false), 3, &codec,
        cost));
  }
  cl.start();
  cl.register_metrics(registry, "faulted");

  cluster::FaultSchedule faults(cl, /*detection_lag_ns=*/200'000);
  faults.add_crash(2 * units::kMillisecond, 1, /*wipe_store=*/true);
  faults.add_restart(6 * units::kMillisecond, 1);
  faults.arm();

  workload::YcsbConfig cfg;
  cfg.record_count = 150;
  cfg.ops_per_client = 120;
  cfg.value_size = 8192;
  cfg.seed = seed;
  std::vector<workload::YcsbResult> results(kClients);
  struct Proc {
    static sim::Task<void> run(sim::Simulator* sim, resilience::Engine* e,
                               workload::YcsbConfig c, std::uint64_t s,
                               workload::YcsbResult* r, bool load,
                               bool* done) {
      if (load) co_await workload::ycsb_load(sim, e, c, 0, c.record_count);
      co_await workload::ycsb_client(sim, e, c, s, r);
      *done = true;
    }
  };
  bool flags[kClients] = {};
  for (std::size_t c = 0; c < kClients; ++c) {
    cl.sim().spawn(Proc::run(&cl.sim(), engines[c].get(), cfg, seed + 7 * c,
                             &results[c], c == 0, &flags[c]));
  }
  FaultedOutcome out;
  out.makespan = cl.run();
  for (std::size_t c = 0; c < kClients; ++c) {
    EXPECT_TRUE(flags[c]) << "client " << c
                          << " hung: an op never resolved under the fault";
  }
  out.events = cl.sim().events_executed();
  out.fired = faults.fired();
  for (std::size_t c = 0; c < kClients; ++c) {
    out.ops += results[c].reads + results[c].writes;
    out.failures += results[c].failures;
    out.rpc_timeouts += cl.client(c).rpc_stats().timeouts;
  }
  registry.capture();
  out.metrics_json = registry.to_json();
  return out;
}

TEST(FaultInjection, MidWorkloadCrashResolvesEveryOp) {
  const FaultedOutcome out = run_faulted_ycsb(31);
  // All ops issued and resolved (OK or a clean failure code) — the run
  // reached quiescence with every client finished.
  EXPECT_EQ(out.ops, kClients * 120u);
  EXPECT_EQ(out.fired, 2u);  // crash and restart both applied
  // The crash landed mid-stream: something observed it.
  EXPECT_GT(out.failures + out.rpc_timeouts, 0u);
  // But the cluster stayed mostly available (k-of-n reads, retries).
  EXPECT_LT(out.failures, out.ops / 2);
}

TEST(FaultInjection, SameSeedSameScheduleIsByteIdentical) {
  const FaultedOutcome a = run_faulted_ycsb(52);
  const FaultedOutcome b = run_faulted_ycsb(52);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.rpc_timeouts, b.rpc_timeouts);
  // The full metrics export — every counter on every node — byte-for-byte.
  ASSERT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_NE(a.metrics_json.find("\"rpc.timeouts\""), std::string::npos);
}

TEST(FaultInjection, DetectionLagDelaysMembershipNotFabric) {
  cluster::Cluster cl(
      cluster::ClusterConfig{.num_servers = kServers, .num_clients = 1});
  cl.start();
  cluster::FaultSchedule faults(cl, /*detection_lag_ns=*/1'000'000);
  faults.add_crash(1'000, 2);
  faults.arm();
  struct Probe {
    static sim::Task<void> run(cluster::Cluster* cl) {
      co_await cl->sim().delay(2'000);  // crash applied, lag still running
      EXPECT_FALSE(cl->fabric().node_up(cl->server_nodes()[2]));
      EXPECT_TRUE(cl->membership().up(2));  // oracle hasn't noticed yet
      co_await cl->sim().delay(1'000'000);  // past the detection lag
      EXPECT_FALSE(cl->membership().up(2));
    }
  };
  bool finished = false;
  struct Runner {
    static sim::Task<void> run(cluster::Cluster* cl, bool* done) {
      co_await Probe::run(cl);
      *done = true;
    }
  };
  cl.sim().spawn(Runner::run(&cl, &finished));
  cl.run();
  EXPECT_TRUE(finished);
}

}  // namespace
}  // namespace hpres
