// MetricsRegistry: owned vs bound metrics, capture semantics, lookup, and
// the deterministic stably-ordered JSON snapshot the benchmarks emit.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

namespace hpres::obs {
namespace {

MetricLabels labels(std::string component, std::string node = "",
                    std::string op = "") {
  return MetricLabels{std::move(component), std::move(node), std::move(op)};
}

TEST(MetricsRegistry, OwnedCounterAccumulates) {
  MetricsRegistry reg;
  Counter& c = reg.counter("engine.sets", labels("engine", "client0"));
  c.inc();
  c.inc(9);
  EXPECT_EQ(c.value(), 10u);
  EXPECT_EQ(reg.value_of("engine.sets", labels("engine", "client0")), 10);
}

TEST(MetricsRegistry, ReRegisteringReturnsSameObject) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x", labels("c"));
  Counter& b = reg.counter("x", labels("c"));
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);
  // Different labels are distinct metrics.
  Counter& other = reg.counter("x", labels("c", "n1"));
  EXPECT_NE(&a, &other);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricsRegistry, GaugeHoldsPointInTimeValue) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("depth", labels("queue"));
  g.set(5);
  g.add(-2);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(reg.value_of("depth", labels("queue")), 3);
}

TEST(MetricsRegistry, BoundCountersReadSourceAtSnapshotTime) {
  MetricsRegistry reg;
  std::uint64_t u64 = 0;
  std::int64_t i64 = 0;
  std::uint32_t u32 = 0;
  reg.bind_counter("a", labels("c"), &u64);
  reg.bind_counter("b", labels("c"), &i64);
  reg.bind_counter("c", labels("c"), &u32);
  u64 = 11;
  i64 = 22;
  u32 = 33;
  EXPECT_EQ(reg.value_of("a", labels("c")), 11);
  EXPECT_EQ(reg.value_of("b", labels("c")), 22);
  EXPECT_EQ(reg.value_of("c", labels("c")), 33);
  u64 = 100;  // live binding follows the source
  EXPECT_EQ(reg.value_of("a", labels("c")), 100);
}

TEST(MetricsRegistry, BoundGaugeUsesReader) {
  MetricsRegistry reg;
  int calls = 0;
  reg.bind_gauge("r", labels("c"), [&calls]() -> std::int64_t {
    return ++calls;
  });
  EXPECT_EQ(reg.value_of("r", labels("c")), 1);
  EXPECT_EQ(reg.value_of("r", labels("c")), 2);
}

TEST(MetricsRegistry, CaptureFreezesBoundSourcesSoTheyMayDie) {
  MetricsRegistry reg;
  auto src = std::make_unique<std::uint64_t>(7);
  auto hist = std::make_unique<LatencyHistogram>();
  hist->record(1000);
  hist->record(3000);
  reg.bind_counter("frozen", labels("c"), src.get());
  reg.histogram("lat", labels("c")).merge(*hist);  // histograms are owned
  reg.capture();
  src.reset();
  hist.reset();
  EXPECT_EQ(reg.value_of("frozen", labels("c")), 7);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"lat\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);
}

TEST(MetricsRegistry, CaptureIsIdempotentAndKeepsOwnedLive) {
  MetricsRegistry reg;
  Counter& c = reg.counter("owned", labels("c"));
  c.inc(5);
  reg.capture();
  reg.capture();
  c.inc(5);  // owned metrics stay live after capture
  EXPECT_EQ(reg.value_of("owned", labels("c")), 10);
}

TEST(MetricsRegistry, ValueOfAbsentOrHistogramIsNullopt) {
  MetricsRegistry reg;
  reg.histogram("h", labels("c"));
  EXPECT_EQ(reg.value_of("h", labels("c")), std::nullopt);
  EXPECT_EQ(reg.value_of("missing", labels("c")), std::nullopt);
}

TEST(MetricsRegistry, JsonIsIndependentOfRegistrationOrder) {
  MetricsRegistry forward;
  MetricsRegistry backward;
  forward.counter("a", labels("x")).inc(1);
  forward.counter("b", labels("x")).inc(2);
  forward.gauge("g", labels("y", "n0")).set(-3);
  backward.gauge("g", labels("y", "n0")).set(-3);
  backward.counter("b", labels("x")).inc(2);
  backward.counter("a", labels("x")).inc(1);
  EXPECT_EQ(forward.to_json(), backward.to_json());
}

TEST(MetricsRegistry, JsonCarriesLabelsAndKinds) {
  MetricsRegistry reg;
  reg.counter("ops", labels("engine", "client0", "set")).inc(4);
  reg.gauge("temp", labels("env")).set(-17);
  LatencyHistogram& h = reg.histogram("lat", labels("engine"));
  h.record(500);
  const std::string json = reg.to_json();
  for (const char* needle :
       {"\"ops\"", "\"engine\"", "\"client0\"", "\"set\"",
        "\"type\":\"counter\"", "\"value\":4", "\"type\":\"gauge\"",
        "\"value\":-17", "\"type\":\"histogram\"", "\"p50\":",
        "\"schema\":\"hpres-metrics-v1\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
}

TEST(MetricsRegistry, WriteJsonRoundTrips) {
  MetricsRegistry reg;
  reg.counter("k", labels("c")).inc(42);
  const std::string path = "metrics_test_out.json";
  ASSERT_TRUE(reg.write_json(path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), reg.to_json());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hpres::obs
