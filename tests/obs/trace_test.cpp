// Span tracer and periodic gauge sampler: zero-overhead-when-disabled,
// duration totals, Chrome trace_event JSON shape, and the sampler's
// interval boundaries at one shard and its final flush.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include "obs/sampler.h"
#include "sim/shard_runtime.h"

namespace hpres::obs {
namespace {

TEST(Tracer, DisabledRecordsNothing) {
  Tracer t;  // disabled by default
  EXPECT_FALSE(t.enabled());
  const std::uint32_t pid = t.declare_process("pt0");
  t.complete(pid, 1, "set", "engine", 0, 100);
  t.async_span(pid, 7, "wait", "arpe", 0, 50);
  t.instant(pid, 1, "drop", "fabric", 10);
  t.counter(pid, "depth", 10, 3);
  EXPECT_EQ(t.event_count(), 0u);
  EXPECT_EQ(t.total_ns(pid, "set"), 0);
  EXPECT_EQ(t.span_count(pid, "set"), 0u);
}

TEST(Tracer, ProcessIdsAreSequentialRegardlessOfEnabled) {
  Tracer t;
  EXPECT_EQ(t.declare_process("a"), 0u);
  t.set_enabled(true);
  EXPECT_EQ(t.declare_process("b"), 1u);
  EXPECT_EQ(t.declare_process("c"), 2u);
  // Only the enabled declarations emitted metadata events.
  EXPECT_EQ(t.event_count(), 2u);
}

TEST(Tracer, CompleteSpansAccumulateTotals) {
  Tracer t(true);
  const std::uint32_t pid = t.declare_process("pt0");
  t.complete(pid, 1, "set", "engine", 0, 100);
  t.complete(pid, 2, "set", "engine", 50, 250);
  t.complete(pid, 1, "get", "engine", 400, 30);
  EXPECT_EQ(t.total_ns(pid, "set"), 350);
  EXPECT_EQ(t.span_count(pid, "set"), 2u);
  EXPECT_EQ(t.total_ns(pid, "get"), 30);
  // Totals are per process.
  const std::uint32_t other = t.declare_process("pt1");
  EXPECT_EQ(t.total_ns(other, "set"), 0);
}

TEST(Tracer, AsyncSpanCountsOnceAndEmitsBeginEndPair) {
  Tracer t(true);
  const std::uint32_t pid = t.declare_process("pt0");
  const std::size_t before = t.event_count();
  t.async_span(pid, 42, "arpe/window_wait", "arpe", 1000, 500);
  EXPECT_EQ(t.event_count(), before + 2);  // 'b' + 'e'
  EXPECT_EQ(t.total_ns(pid, "arpe/window_wait"), 500);
  EXPECT_EQ(t.span_count(pid, "arpe/window_wait"), 1u);
  const std::string json = t.to_json();
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"42\""), std::string::npos);
}

TEST(Tracer, JsonHasTraceEventShape) {
  Tracer t(true);
  const std::uint32_t pid = t.declare_process("point \"zero\"");
  t.complete(pid, Tracer::kNicTidBase + 3, "fabric/send", "fabric", 1500, 750);
  t.counter(pid, "in_flight_bytes", 2000, 4096);
  t.instant(pid, 1, "drop", "fabric", 2500);
  const std::string json = t.to_json();
  for (const char* needle :
       {"\"displayTimeUnit\":\"ns\"", "\"traceEvents\":[",
        "\"ph\":\"M\"", "\"process_name\"",
        "\"point \\\"zero\\\"\"",  // escaping
        "\"ph\":\"X\"", "\"fabric/send\"", "\"ph\":\"C\"",
        "\"args\":{\"value\":4096}", "\"ph\":\"i\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
  // Timestamps serialize in fixed-width fractional microseconds:
  // 1500 ns -> "1.500".
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":0.750"), std::string::npos);
}

TEST(Tracer, JsonIsAPureFunctionOfTheEvents) {
  const auto build = [] {
    Tracer t(true);
    const std::uint32_t pid = t.declare_process("pt0");
    t.complete(pid, 1, "set", "engine", 0, 100);
    t.async_span(pid, 2, "wait", "arpe", 10, 20);
    t.counter(pid, "depth", 30, 1);
    return t.to_json();
  };
  EXPECT_EQ(build(), build());
}

// --- Causal tracing primitives ---------------------------------------------

TEST(TraceContext, InvalidWhenDisabledAndChildKeepsTraceId) {
  Tracer off;
  EXPECT_EQ(off.new_trace_id(), 0u);
  EXPECT_FALSE(TraceContext{}.valid());

  Tracer on(true);
  const TraceContext root{on.new_trace_id(), /*span_id=*/17, 0};
  ASSERT_TRUE(root.valid());
  const TraceContext child = root.child(99);
  EXPECT_EQ(child.trace_id, root.trace_id);
  EXPECT_EQ(child.span_id, 99u);
  EXPECT_EQ(child.parent_span_id, root.span_id);
}

TEST(Tracer, TraceIdsAreDenseAndWatermarkSnapshotsThem) {
  Tracer t(true);
  const std::uint64_t wm = t.trace_watermark();
  const std::uint64_t a = t.new_trace_id();
  const std::uint64_t b = t.new_trace_id();
  EXPECT_EQ(a, wm);
  EXPECT_EQ(b, wm + 1);
  EXPECT_EQ(t.trace_watermark(), wm + 2);
}

TEST(LanePool, ReusesLowestFreedLaneFirst) {
  LanePool pool;
  EXPECT_EQ(pool.acquire(), 0u);
  EXPECT_EQ(pool.acquire(), 1u);
  EXPECT_EQ(pool.acquire(), 2u);
  pool.release(2);
  pool.release(0);
  EXPECT_EQ(pool.acquire(), 0u);  // lowest first, not LIFO
  EXPECT_EQ(pool.acquire(), 2u);
  EXPECT_EQ(pool.acquire(), 3u);  // pool empty again -> fresh lane
}

TEST(Tracer, TaggedSpansIncludeCompleteAndAsyncButNotFlows) {
  Tracer t(true);
  const std::uint32_t pid = t.declare_process("pt0");
  const std::uint32_t other = t.declare_process("pt1");
  t.complete(pid, 1, "get", "engine", 0, 100, /*trace_id=*/5);
  t.async_span(pid, 7, "fabric/txq", "fabric", 10, 20, /*trace_id=*/5);
  t.complete(pid, 2, "set", "engine", 0, 50);  // untagged: skipped
  t.flow('s', pid, 1, 5, /*flow_id=*/1, /*trace_id=*/5);
  t.instant(pid, 1, "fabric/drop", "fabric", 6, /*trace_id=*/5);
  t.complete(other, 1, "get", "engine", 0, 9, /*trace_id=*/6);  // other pid

  const std::vector<TraceSpan> spans = t.tagged_spans(pid);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "get");
  EXPECT_EQ(spans[0].trace_id, 5u);
  EXPECT_EQ(spans[0].dur_ns, 100);
  // The async 'b' event carries the duration, so no 'e' pairing is needed.
  EXPECT_EQ(spans[1].name, "fabric/txq");
  EXPECT_EQ(spans[1].tid, 7u);
  EXPECT_EQ(spans[1].dur_ns, 20);
}

TEST(Tracer, RetainTracesDropsOnlyUnkeptTaggedEvents) {
  Tracer t(true);
  const std::uint32_t pid = t.declare_process("pt0");
  t.complete(pid, 1, "get", "engine", 0, 100, /*trace_id=*/1);
  t.complete(pid, 2, "get", "engine", 0, 900, /*trace_id=*/2);
  t.complete(pid, 3, "fabric/send", "fabric", 0, 10);  // untagged
  t.counter(pid, "depth", 5, 1);
  const std::size_t before = t.event_count();

  t.retain_traces({2});
  EXPECT_EQ(t.event_count(), before - 1);  // only trace 1's span dropped
  const std::vector<TraceSpan> spans = t.tagged_spans(pid);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].trace_id, 2u);
  // Totals were accumulated at record time and survive pruning.
  EXPECT_EQ(t.total_ns(pid, "get"), 1000);
  EXPECT_EQ(t.span_count(pid, "get"), 2u);
}

TEST(Tracer, FlowEventsSerializeAsArrowTriple) {
  Tracer t(true);
  const std::uint32_t pid = t.declare_process("pt0");
  const std::uint64_t msg = t.new_flow_id();
  t.flow('s', pid, 3, 100, msg, /*trace_id=*/9);
  t.flow('t', pid, Tracer::kNicTidBase + 0, 150, msg, 9);
  t.flow('f', pid, Tracer::kNicTidBase + 1, 300, msg, 9);
  const std::string json = t.to_json();
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  // Binding-point "enclosing slice" so the arrow lands on the receiving
  // span rather than the next one on the track.
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"trace\":9}"), std::string::npos);
}

// Regression (hostile names): every control character, quote, and backslash
// must be escaped so downstream `python3 -m json.tool` validation passes.
TEST(Tracer, JsonEscapesHostileNames) {
  Tracer t(true);
  std::string hostile = "evil\"name\\with\nnewline\ttab\b\f";
  hostile.push_back('\x01');
  hostile.push_back('\x1f');
  const std::uint32_t pid = t.declare_process(hostile);
  t.complete(pid, 1, hostile, hostile, 0, 10);
  const std::string json = t.to_json();
  for (const char* needle : {"evil\\\"name\\\\with\\nnewline\\ttab\\b\\f",
                             "\\u0001", "\\u001f"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
  // No raw control byte may survive into the serialized document (the
  // inter-event '\n' separators are structural whitespace, which is legal).
  for (const char c : json) {
    if (c == '\n') continue;
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << "raw control byte";
  }
}

// --- Sampler ---------------------------------------------------------------

struct SamplerRig {
  sim::ShardRuntime runtime{1, /*lookahead_ns=*/1'000};
  sim::Simulator& sim = runtime.shard(0);
  Tracer tracer{true};
  std::uint32_t pid = tracer.declare_process("rig");
  std::int64_t depth = 0;
};

sim::Task<void> workload(SamplerRig* rig) {
  for (int i = 1; i <= 5; ++i) {
    co_await rig->sim.delay(1'000);
    rig->depth = i;
  }
}

TEST(Sampler, SamplesGaugesOnSimClockUntilStopped) {
  SamplerRig rig;
  Sampler sampler(rig.runtime, /*interval_ns=*/500);
  sampler.add_gauge(&rig.tracer, rig.pid, "queue_depth",
                    [&rig] { return rig.depth; });
  rig.sim.spawn(workload(&rig));
  sampler.start();
  const SimTime end = rig.runtime.run();
  // The hook adds no events: the run ends on the workload's last event and
  // the sampler never kept the queue alive.
  EXPECT_EQ(end, 5'000);
  EXPECT_EQ(rig.runtime.events_executed(), 6u);
  // One sample per 0.5 us boundary from t=0 through t=5 us, each taken
  // before any event at that instant: the 5 us sample still sees depth 4.
  EXPECT_EQ(sampler.samples(), 11u);
  EXPECT_EQ(sampler.num_gauges(), 1u);
  EXPECT_EQ(sampler.series_stats(0).min(), 0.0);
  EXPECT_EQ(sampler.series_stats(0).max(), 4.0);
  // Counter samples land on the simulated clock's interval boundaries.
  const std::string json = rig.tracer.to_json();
  EXPECT_NE(json.find("\"queue_depth\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":4.500"), std::string::npos);
  EXPECT_EQ(json.find("\"ts\":4.750"), std::string::npos);
}

// Regression (terminal flush): a gauge change in the last partial interval
// must still be observed — flush() takes one final sample at the quiesced
// instant instead of waiting for a boundary that will never come.
TEST(Sampler, FlushSamplesFinalPartialInterval) {
  SamplerRig rig;
  Sampler sampler(rig.runtime, /*interval_ns=*/1'000);
  sampler.add_gauge(&rig.tracer, rig.pid, "queue_depth",
                    [&rig] { return rig.depth; });
  rig.sim.spawn([](SamplerRig* r) -> sim::Task<void> {
    // Change the gauge mid-interval: no boundary lands after the change.
    co_await r->sim.delay(1'250);
    r->depth = 42;
  }(&rig));
  sampler.start();
  const SimTime end = rig.runtime.run();
  // Boundaries at t=0 and t=1000 saw depth 0; only the flush can see 42.
  EXPECT_EQ(sampler.series_stats(0).max(), 0.0);
  sampler.flush(end);
  EXPECT_EQ(sampler.series_stats(0).max(), 42.0);
  // And the flush happens exactly once even if requested again.
  const std::uint64_t n = sampler.samples();
  sampler.flush(end);
  EXPECT_EQ(sampler.samples(), n);
}

TEST(Sampler, DisabledTracerMakesStartANoOp) {
  sim::ShardRuntime runtime(1, 1'000);
  Tracer tracer;  // disabled
  Sampler sampler(runtime, 500);
  std::int64_t v = 0;
  sampler.add_gauge(&tracer, 0, "g", [&v] { return v; });
  sampler.start();
  runtime.run();  // no hook was registered; returns immediately
  sampler.flush(runtime.shard(0).now());
  EXPECT_EQ(sampler.samples(), 0u);
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(Sampler, NoGaugesMakesStartANoOp) {
  sim::ShardRuntime runtime(1, 1'000);
  Sampler sampler(runtime, 500);
  sampler.start();
  runtime.run();
  sampler.flush(runtime.shard(0).now());
  EXPECT_EQ(sampler.samples(), 0u);
}

}  // namespace
}  // namespace hpres::obs
