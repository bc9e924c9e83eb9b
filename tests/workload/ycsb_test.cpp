// YCSB driver: key formatting, load + run phases against a simulated
// cluster, read/write mix, result merging.
#include "workload/ycsb.h"

#include <gtest/gtest.h>

#include "testing/fixtures.h"
#include "workload/ohb.h"

namespace hpres::workload {
namespace {

using hpres::testing::FiveNodeClusterTest;
using hpres::testing::run_sim;

TEST(YcsbKey, FixedWidthPadding) {
  EXPECT_EQ(ycsb_key(0, 16), "user000000000000");
  EXPECT_EQ(ycsb_key(1234, 16), "user000000001234");
  EXPECT_EQ(ycsb_key(0, 16).size(), 16u);
  EXPECT_EQ(ycsb_key(99, 8).size(), 8u);
}

TEST(YcsbKey, DistinctIdsDistinctKeys) {
  EXPECT_NE(ycsb_key(1, 16), ycsb_key(2, 16));
}

TEST(YcsbResult, MergeAggregates) {
  YcsbResult a;
  YcsbResult b;
  a.reads = 10;
  a.writes = 5;
  a.duration_ns = 1000;
  a.read_latency.record(100);
  b.reads = 3;
  b.writes = 7;
  b.failures = 2;
  b.duration_ns = 2000;
  b.read_latency.record(300);
  a.merge(b);
  EXPECT_EQ(a.reads, 13u);
  EXPECT_EQ(a.writes, 12u);
  EXPECT_EQ(a.failures, 2u);
  EXPECT_EQ(a.duration_ns, 2000);  // max, not sum
  EXPECT_EQ(a.read_latency.count(), 2u);
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
  EXPECT_GT(result.duration_ns, 0);
  EXPECT_GT(result.read_latency.count(), 0u);
  EXPECT_GT(result.write_latency.count(), 0u);
  EXPECT_GT(result.throughput_ops_per_s(result.duration_ns), 0.0);
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
