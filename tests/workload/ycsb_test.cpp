// YCSB driver: key formatting, load + run phases against a simulated
// cluster, read/write mix, result merging, and the engine's recorder as
// the one per-op latency record.
#include "workload/ycsb.h"

#include <gtest/gtest.h>

#include "cluster/fault_schedule.h"
#include "testing/fixtures.h"
#include "workload/ohb.h"

namespace hpres::workload {
namespace {

using hpres::testing::FiveNodeClusterTest;
using hpres::testing::run_sim;

TEST(YcsbKey, FixedWidthPadding) {
  EXPECT_EQ(ycsb_key(0), "user000000000000");
  EXPECT_EQ(ycsb_key(1234), "user000000001234");
  EXPECT_EQ(ycsb_key(0).size(), kYcsbKeyBytes);
  EXPECT_EQ(ycsb_key(123'456'789'012'345).size(), kYcsbKeyBytes);
}

TEST(YcsbKey, DistinctIdsDistinctKeys) {
  EXPECT_NE(ycsb_key(1), ycsb_key(2));
}

TEST(YcsbResult, MergeAggregates) {
  YcsbResult a;
  YcsbResult b;
  a.reads = 10;
  a.writes = 5;
  a.done_at = 1000;
  b.reads = 3;
  b.writes = 7;
  b.failures = 2;
  b.done_at = 2000;
  a.merge(b);
  EXPECT_EQ(a.reads, 13u);
  EXPECT_EQ(a.writes, 12u);
  EXPECT_EQ(a.failures, 2u);
  EXPECT_EQ(a.done_at, 2000);  // max, not sum
}

TEST(YcsbResult, ThroughputFromMakespan) {
  YcsbResult r;
  r.reads = 500;
  r.writes = 500;
  EXPECT_DOUBLE_EQ(r.throughput_ops_per_s(units::kSecond), 1000.0);
  EXPECT_EQ(r.throughput_ops_per_s(0), 0.0);
}

TEST(YcsbConfig, Presets) {
  EXPECT_DOUBLE_EQ(YcsbConfig::workload_a().read_fraction, 0.5);
  EXPECT_DOUBLE_EQ(YcsbConfig::workload_b().read_fraction, 0.95);
}

class YcsbDriverTest : public FiveNodeClusterTest {};

TEST_F(YcsbDriverTest, LoadThenRunProducesExpectedMix) {
  auto engine = make_engine(resilience::Design::kEraCeCd);
  cluster_.start();
  YcsbConfig cfg;
  cfg.record_count = 200;
  cfg.ops_per_client = 400;
  cfg.value_size = 4096;
  struct Body {
    static sim::Task<void> run(sim::Simulator* sim,
                               resilience::Engine* engine, YcsbConfig* cfg,
                               YcsbResult* result) {
      co_await ycsb_load(sim, engine, *cfg, 0, cfg->record_count);
      co_await ycsb_client(sim, engine, *cfg, /*client_seed=*/77, result);
    }
  };
  YcsbResult result;
  run_sim(cluster_.sim(), Body::run, &cluster_.sim(), engine.get(), &cfg,
          &result);

  EXPECT_EQ(result.reads + result.writes, 400u);
  // 50:50 mix within generous bounds.
  EXPECT_GT(result.reads, 140u);
  EXPECT_GT(result.writes, 140u);
  // Every key was preloaded, so no failures.
  EXPECT_EQ(result.failures, 0u);
  EXPECT_GT(result.done_at, 0);
  EXPECT_LE(result.done_at, cluster_.sim().now());
  EXPECT_GT(result.throughput_ops_per_s(result.done_at), 0.0);
  // The recorder holds every op once: the preload's Sets and the mix.
  EXPECT_EQ(recorder_.pooled("get").count(), result.reads);
  EXPECT_EQ(recorder_.pooled("set").count(),
            cfg.record_count + result.writes);
}

TEST_F(YcsbDriverTest, ReadHeavyMixSkewsToReads) {
  auto engine = make_engine(resilience::Design::kAsyncRep);
  cluster_.start();
  YcsbConfig cfg = YcsbConfig::workload_b();
  cfg.record_count = 100;
  cfg.ops_per_client = 400;
  cfg.value_size = 1024;
  struct Body {
    static sim::Task<void> run(sim::Simulator* sim,
                               resilience::Engine* engine, YcsbConfig* cfg,
                               YcsbResult* result) {
      co_await ycsb_load(sim, engine, *cfg, 0, cfg->record_count);
      co_await ycsb_client(sim, engine, *cfg, 99, result);
    }
  };
  YcsbResult result;
  run_sim(cluster_.sim(), Body::run, &cluster_.sim(), engine.get(), &cfg,
          &result);
  EXPECT_GT(result.reads, 7 * result.writes);
  EXPECT_EQ(result.failures, 0u);
}

// Under a crash of more servers than the code tolerates, with deadlines
// armed, the recorder still holds exactly one latency per op the client
// counted, failed ops included.
TEST_F(YcsbDriverTest, RecorderCountsEveryOpThroughACrash) {
  cluster_.set_rpc_policy(kv::RpcPolicy{.timeout_ns = 500'000,
                                        .max_retries = 1,
                                        .backoff_ns = 50'000});
  auto engine = make_engine(resilience::Design::kEraCeCd);
  cluster_.start();
  YcsbConfig cfg;
  cfg.record_count = 200;
  cfg.ops_per_client = 400;
  cfg.value_size = 4096;
  cluster_.sim().spawn(
      ycsb_load(&cluster_.sim(), engine.get(), cfg, 0, cfg.record_count));
  cluster_.run();
  recorder_.clear();

  const SimTime start = cluster_.now_quiesced();
  cluster::FaultSchedule faults(cluster_);
  for (const std::size_t server : {1u, 2u, 3u}) {
    faults.add_crash(start + units::kMillisecond, server);
  }
  faults.arm();
  YcsbResult result;
  cluster_.sim().spawn(
      ycsb_client(&cluster_.sim(), engine.get(), cfg, 77, &result));
  cluster_.run();

  EXPECT_EQ(faults.fired(), 3u);
  EXPECT_EQ(result.reads + result.writes, cfg.ops_per_client);
  ASSERT_GT(result.failures, 0u);
  EXPECT_LT(result.failures, cfg.ops_per_client);  // some ops ran first
  EXPECT_GT(result.done_at, start);
  EXPECT_EQ(recorder_.pooled("get").count(), result.reads);
  EXPECT_EQ(recorder_.pooled("set").count(), result.writes);
}

class OhbDriverTest : public FiveNodeClusterTest {};

TEST_F(OhbDriverTest, SetThenGetWorkloadsComplete) {
  attach_tracer();
  auto engine = make_engine(resilience::Design::kEraCeCd);
  cluster_.start();
  OhbConfig cfg;
  cfg.operations = 100;
  cfg.value_size = 16 * 1024;
  struct Body {
    static sim::Task<void> run(sim::Simulator* sim,
                               resilience::Engine* engine, OhbConfig* cfg,
                               OhbResult* set_result, OhbResult* get_result) {
      co_await ohb_set_workload(sim, engine, *cfg, set_result);
      co_await ohb_get_workload(sim, engine, *cfg, get_result);
    }
  };
  OhbResult set_result;
  OhbResult get_result;
  run_sim(cluster_.sim(), Body::run, &cluster_.sim(), engine.get(), &cfg,
          &set_result, &get_result);

  EXPECT_EQ(set_result.operations, 100u);
  EXPECT_EQ(set_result.failures, 0u);
  EXPECT_GT(set_result.avg_latency_us(), 0.0);
  EXPECT_EQ(get_result.failures, 0u);
  // Ops run back to back, so the recorder's latencies add up to the pass.
  const std::string scheme(engine->name());
  const LatencyHistogram* sets = recorder_.histogram({"set", scheme, false});
  const LatencyHistogram* gets = recorder_.histogram({"get", scheme, false});
  ASSERT_NE(sets, nullptr);
  ASSERT_NE(gets, nullptr);
  EXPECT_EQ(sets->count(), 100u);
  EXPECT_EQ(sets->sum(), set_result.total_ns);
  EXPECT_EQ(gets->sum(), get_result.total_ns);
  // Client-side encode shows up as compute in the Set breakdown...
  EXPECT_EQ(span_ns("set/encode"), 100 * cost_.encode_ns(cfg.value_size));
  // ...but healthy Gets never decode, and mostly wait on fragments.
  EXPECT_EQ(span_count("get/decode"), 0u);
  EXPECT_GT(span_ns("get"), span_ns("get/request"));
}

}  // namespace
}  // namespace hpres::workload
