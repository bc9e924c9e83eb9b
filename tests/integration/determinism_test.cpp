// Whole-experiment determinism and testbed sanity: identical runs must
// produce bit-identical simulated timings (the property every benchmark's
// reproducibility rests on), and the named testbeds must be ordered the
// way the paper's clusters are.
#include <gtest/gtest.h>

#include "cluster/testbeds.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "testing/fixtures.h"
#include "workload/ycsb.h"

namespace hpres {
namespace {

struct RunOutcome {
  SimTime makespan = 0;
  std::uint64_t events = 0;
  std::uint64_t reads = 0;
  std::int64_t read_latency_sum = 0;
};

RunOutcome run_small_ycsb(std::uint64_t seed) {
  ec::RsVandermondeCodec codec(3, 2);
  const auto cost = ec::CostModel::defaults(ec::Scheme::kRsVandermonde, 3, 2);
  cluster::Cluster cl(
      cluster::ClusterConfig{.num_servers = 5, .num_clients = 4});
  cl.enable_server_ec(codec, cost, false);
  obs::LatencyRecorder recorder;  // one shard: every engine records here
  std::vector<std::unique_ptr<resilience::Engine>> engines;
  for (std::size_t c = 0; c < 4; ++c) {
    resilience::EngineContext ctx = cl.engine_context(c, false);
    ctx.recorder = &recorder;
    engines.push_back(resilience::make_engine(resilience::Design::kEraCeCd,
                                              ctx, 3, &codec, cost));
  }
  cl.start();

  workload::YcsbConfig cfg;
  cfg.record_count = 200;
  cfg.ops_per_client = 100;
  cfg.value_size = 8192;
  cfg.seed = seed;

  std::vector<workload::YcsbResult> results(4);
  struct Proc {
    static sim::Task<void> run(sim::Simulator* sim, resilience::Engine* e,
                               workload::YcsbConfig c, std::uint64_t s,
                               workload::YcsbResult* r, bool load) {
      if (load) co_await workload::ycsb_load(sim, e, c, 0, c.record_count);
      co_await workload::ycsb_client(sim, e, c, s, r);
    }
  };
  for (std::size_t c = 0; c < 4; ++c) {
    cl.sim().spawn(Proc::run(&cl.sim(), engines[c].get(), cfg,
                             seed + 13 * c, &results[c], c == 0));
  }
  const SimTime makespan = cl.run();

  RunOutcome out;
  out.makespan = makespan;
  out.events = cl.sim().events_executed();
  for (const auto& r : results) out.reads += r.reads;
  out.read_latency_sum = recorder.pooled("get").sum();
  return out;
}

TEST(Determinism, IdenticalRunsAreBitIdentical) {
  const RunOutcome a = run_small_ycsb(111);
  const RunOutcome b = run_small_ycsb(111);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.read_latency_sum, b.read_latency_sum);
}

TEST(Determinism, DifferentSeedsDiverge) {
  const RunOutcome a = run_small_ycsb(111);
  const RunOutcome b = run_small_ycsb(222);
  EXPECT_NE(a.read_latency_sum, b.read_latency_sum);
}

// --- Observability export determinism --------------------------------------

struct ObsOutcome {
  std::string trace_json;
  std::string metrics_json;
  SimTime makespan = 0;
};

/// Same small YCSB run as above, but fully instrumented: span tracer wired
/// through the engine and the fabric, every stats struct registered, and
/// both exports serialized. The artifacts themselves must be bit-identical
/// across same-seed runs — that is what makes the trace/metrics files a
/// trustworthy record of an experiment.
ObsOutcome run_instrumented_ycsb(std::uint64_t seed) {
  obs::Tracer tracer(true);
  obs::MetricsRegistry registry;
  const std::uint32_t pid = tracer.declare_process("determinism-pt");

  ec::RsVandermondeCodec codec(3, 2);
  const auto cost = ec::CostModel::defaults(ec::Scheme::kRsVandermonde, 3, 2);
  cluster::Cluster cl(
      cluster::ClusterConfig{.num_servers = 5, .num_clients = 2});
  cl.enable_server_ec(codec, cost, false);
  cl.set_tracer(&tracer, pid);
  std::vector<std::unique_ptr<resilience::Engine>> engines;
  for (std::size_t c = 0; c < 2; ++c) {
    engines.push_back(resilience::make_engine(
        resilience::Design::kEraCeCd, cl.engine_context(c, false), 3, &codec,
        cost));
  }
  cl.start();
  cl.register_metrics(registry, "ycsb");
  for (std::size_t c = 0; c < 2; ++c) {
    engines[c]->stats().register_with(registry, "client" + std::to_string(c),
                                      "ycsb");
  }

  workload::YcsbConfig cfg;
  cfg.record_count = 100;
  cfg.ops_per_client = 60;
  cfg.value_size = 8192;
  cfg.seed = seed;
  std::vector<workload::YcsbResult> results(2);
  struct Proc {
    static sim::Task<void> run(sim::Simulator* sim, resilience::Engine* e,
                               workload::YcsbConfig c, std::uint64_t s,
                               workload::YcsbResult* r, bool load) {
      if (load) co_await workload::ycsb_load(sim, e, c, 0, c.record_count);
      co_await workload::ycsb_client(sim, e, c, s, r);
    }
  };
  for (std::size_t c = 0; c < 2; ++c) {
    cl.sim().spawn(Proc::run(&cl.sim(), engines[c].get(), cfg, seed + 13 * c,
                             &results[c], c == 0));
  }
  ObsOutcome out;
  out.makespan = cl.run();
  registry.capture();
  out.trace_json = tracer.to_json();
  out.metrics_json = registry.to_json();
  return out;
}

TEST(Determinism, ObservabilityExportsAreByteIdentical) {
  const ObsOutcome a = run_instrumented_ycsb(77);
  const ObsOutcome b = run_instrumented_ycsb(77);
  EXPECT_EQ(a.makespan, b.makespan);
  // Byte-for-byte: same spans, same order, same counter samples, same
  // histogram percentiles.
  ASSERT_EQ(a.trace_json, b.trace_json);
  ASSERT_EQ(a.metrics_json, b.metrics_json);
  // And the artifacts are non-trivial (spans + metrics actually recorded).
  EXPECT_NE(a.trace_json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(a.trace_json.find("\"fabric/send\""), std::string::npos);
  EXPECT_NE(a.metrics_json.find("\"engine.sets\""), std::string::npos);
}

TEST(Determinism, TracingDoesNotPerturbTheSimulation) {
  // The instrumented run and the plain run share seeds; tracing must not
  // change a single simulated timestamp.
  const ObsOutcome traced = run_instrumented_ycsb(111);
  EXPECT_GT(traced.makespan, 0);
  const ObsOutcome again = run_instrumented_ycsb(111);
  EXPECT_EQ(traced.makespan, again.makespan);
}

TEST(Testbeds, GenerationsAreOrdered) {
  const auto qdr = cluster::ri_qdr();
  const auto comet = cluster::sdsc_comet();
  const auto edr = cluster::ri2_edr();
  EXPECT_LT(qdr.fabric.bandwidth_gbps, comet.fabric.bandwidth_gbps);
  EXPECT_LT(comet.fabric.bandwidth_gbps, edr.fabric.bandwidth_gbps);
  EXPECT_LE(qdr.cpu_factor, comet.cpu_factor);
  EXPECT_LE(comet.cpu_factor, edr.cpu_factor);
  EXPECT_EQ(qdr.server.workers, 8u);  // the paper's 8-worker servers
}

TEST(Testbeds, IpoibVariantKeepsServersChangesFabric) {
  const auto rdma = cluster::ri_qdr();
  const auto ipoib = cluster::ri_qdr_ipoib();
  EXPECT_GT(ipoib.fabric.latency_ns, rdma.fabric.latency_ns);
  EXPECT_LT(ipoib.fabric.bandwidth_gbps, rdma.fabric.bandwidth_gbps);
  EXPECT_EQ(ipoib.server.workers, rdma.server.workers);
}

TEST(Testbeds, MakeConfigWiresCounts) {
  const auto cfg = cluster::make_config(cluster::ri_qdr(), 7, 3);
  EXPECT_EQ(cfg.num_servers, 7u);
  EXPECT_EQ(cfg.num_clients, 3u);
  EXPECT_EQ(cfg.fabric.name, "rdma-qdr");
}

TEST(ZeroBytes, CacheAliasesPerSize) {
  const SharedBytes a = zero_bytes(4096);
  const SharedBytes b = zero_bytes(4096);
  const SharedBytes c = zero_bytes(8192);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a->size(), 4096u);
  for (const auto byte : *a) EXPECT_EQ(byte, std::byte{0});
}

}  // namespace
}  // namespace hpres
