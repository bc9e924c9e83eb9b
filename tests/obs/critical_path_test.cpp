// Critical-path coverage sweep: exact partition of the root interval,
// priority resolution between overlapping spans, fan-out vs net NIC
// distinction, decode exposure vs ARPE-style overlap, and the tail
// selector.
#include "obs/critical_path.h"

#include <gtest/gtest.h>

#include <vector>

#include "obs/trace.h"

namespace hpres::obs {
namespace {

TraceSpan span(std::uint64_t trace, std::uint64_t tid, SimTime begin,
               SimDur dur, std::string name, std::string cat) {
  return TraceSpan{trace, tid, begin, dur, std::move(name), std::move(cat)};
}

// Root on node 0 (tid < kLanesPerNode): the op's own NIC is kNicTidBase + 0.
constexpr std::uint64_t kRootTid = 3;
constexpr std::uint64_t kOwnNic = Tracer::kNicTidBase + 0;
constexpr std::uint64_t kRemoteNic = Tracer::kNicTidBase + 2;

TEST(CriticalPath, PhaseSumEqualsTotalExactly) {
  // Root [0, 1000); children deliberately leave gaps, overlap each other,
  // and stick out past the root end (must be clipped).
  std::vector<TraceSpan> spans{
      span(1, kRootTid, 0, 1000, "get", "engine"),
      span(1, kRootTid, 0, 100, "get/request", "engine"),
      span(1, kRootTid, 100, 600, "get/fetch", "engine"),
      span(1, kOwnNic, 120, 80, "fabric/send", "fabric"),
      span(1, kRemoteNic, 250, 150, "fabric/recv", "fabric"),
      span(1, 42, 400, 100, "server/handle", "server"),
      span(1, kRootTid, 700, 400, "get/decode", "engine"),  // clipped at 1000
  };
  const CriticalPathAnalysis cp = analyze_critical_path(spans);
  ASSERT_EQ(cp.ops.size(), 1u);
  const OpAttribution& op = cp.ops[0];
  EXPECT_EQ(op.op, "get");
  EXPECT_EQ(op.total_ns, 1000);
  EXPECT_EQ(op.phase_sum(), op.total_ns);  // the acceptance invariant
  EXPECT_EQ(op.phase(Phase::kSerialize), 100);
  EXPECT_EQ(op.phase(Phase::kFanout), 80);    // own NIC send
  EXPECT_EQ(op.phase(Phase::kNet), 150);      // remote NIC recv
  EXPECT_EQ(op.phase(Phase::kServer), 100);
  // get/fetch [100,700) minus the covered 80+150+100 leaves 270 wait-for-k.
  EXPECT_EQ(op.phase(Phase::kWaitK), 270);
  EXPECT_EQ(op.phase(Phase::kDecode), 300);   // clipped to the root end
  // Uncovered root time: [0,1000) minus everything above.
  EXPECT_EQ(op.phase(Phase::kOther), 0);
}

TEST(CriticalPath, HigherPriorityWinsOverlap) {
  // Encode inside a fan-out window inside the root: every instant of the
  // encode attributes to compute, not to the window.
  std::vector<TraceSpan> spans{
      span(1, kRootTid, 0, 400, "set", "engine"),
      span(1, kRootTid, 0, 400, "set/fanout", "engine"),
      span(1, kRootTid, 100, 200, "set/encode", "engine"),
  };
  const CriticalPathAnalysis cp = analyze_critical_path(spans);
  ASSERT_EQ(cp.ops.size(), 1u);
  EXPECT_EQ(cp.ops[0].phase(Phase::kEncode), 200);
  EXPECT_EQ(cp.ops[0].phase(Phase::kWaitK), 200);
  EXPECT_EQ(cp.ops[0].phase_sum(), 400);
}

TEST(CriticalPath, ServerSideComputeClassifies) {
  std::vector<TraceSpan> spans{
      span(1, kRootTid, 0, 300, "get", "engine"),
      span(1, 50, 50, 200, "server/handle", "server"),
      span(1, 50, 100, 100, "server/decode", "server"),
  };
  const CriticalPathAnalysis cp = analyze_critical_path(spans);
  ASSERT_EQ(cp.ops.size(), 1u);
  EXPECT_EQ(cp.ops[0].phase(Phase::kDecode), 100);
  EXPECT_EQ(cp.ops[0].phase(Phase::kServer), 100);
  EXPECT_EQ(cp.ops[0].phase(Phase::kOther), 100);
}

TEST(CriticalPath, RootlessTracesAreCountedNotAttributed) {
  // Repair traces have tagged spans but no engine set/get/del root.
  std::vector<TraceSpan> spans{
      span(7, kRootTid, 0, 500, "repair/fetch", "repair"),
      span(1, kRootTid, 0, 100, "get", "engine"),
  };
  const CriticalPathAnalysis cp = analyze_critical_path(spans);
  EXPECT_EQ(cp.ops.size(), 1u);
  EXPECT_EQ(cp.traces_without_root, 1u);
  EXPECT_EQ(cp.spans_seen, 2u);
}

TEST(CriticalPath, DecodeExposedWhenNoConcurrentTraffic) {
  std::vector<TraceSpan> spans{
      span(1, kRootTid, 0, 500, "get", "engine"),
      span(1, kRootTid, 100, 200, "get/decode", "engine"),
  };
  const CriticalPathAnalysis cp = analyze_critical_path(spans);
  ASSERT_EQ(cp.ops.size(), 1u);
  EXPECT_EQ(cp.ops[0].decode_ns, 200);
  EXPECT_EQ(cp.ops[0].decode_exposed_ns, 200);  // nothing else in flight
}

TEST(CriticalPath, DecodeHiddenBehindOtherOpsTraffic) {
  // ARPE overlap: while trace 1 decodes [100, 300), trace 2's fragment
  // fetch occupies the wire [150, 280) — that stretch of the decode is
  // hidden behind communication, only the rest is exposed stall.
  std::vector<TraceSpan> spans{
      span(1, kRootTid, 0, 500, "get", "engine"),
      span(1, kRootTid, 100, 200, "get/decode", "engine"),
      span(2, kRootTid + 1, 120, 400, "get", "engine"),
      span(2, kRemoteNic, 150, 130, "fabric/send", "fabric"),
  };
  const CriticalPathAnalysis cp = analyze_critical_path(spans);
  ASSERT_EQ(cp.ops.size(), 2u);
  const OpAttribution& decoding = cp.ops[0];
  EXPECT_EQ(decoding.trace_id, 1u);
  EXPECT_EQ(decoding.decode_ns, 200);
  EXPECT_EQ(decoding.decode_exposed_ns, 200 - 130);
  // The op's OWN traffic never hides its own decode.
  std::vector<TraceSpan> own{
      span(1, kRootTid, 0, 500, "get", "engine"),
      span(1, kRootTid, 100, 200, "get/decode", "engine"),
      span(1, kRemoteNic, 150, 130, "fabric/send", "fabric"),
  };
  const CriticalPathAnalysis cp_own = analyze_critical_path(own);
  EXPECT_EQ(cp_own.ops[0].decode_exposed_ns, 200);
}

TEST(CriticalPath, SlowestFractionIsDeterministicAndBounded) {
  std::vector<OpAttribution> ops(10);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ops[i].trace_id = i + 1;
    ops[i].total_ns = static_cast<SimDur>((i % 5) * 100);  // ties
  }
  const auto tail = slowest_fraction(ops, 0.2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0]->total_ns, 400);
  EXPECT_EQ(tail[1]->total_ns, 400);
  EXPECT_LT(tail[0]->trace_id, tail[1]->trace_id);  // tie-break on id
  EXPECT_EQ(slowest_fraction(ops, 0.0).size(), 1u);  // never empty
  EXPECT_TRUE(slowest_fraction({}, 0.5).empty());
}

TEST(PhaseAggregate, AccumulatesPerPhase) {
  OpAttribution a;
  a.total_ns = 100;
  a.phase_ns[static_cast<std::size_t>(Phase::kNet)] = 100;
  OpAttribution b;
  b.total_ns = 50;
  b.phase_ns[static_cast<std::size_t>(Phase::kNet)] = 30;
  b.phase_ns[static_cast<std::size_t>(Phase::kQueue)] = 20;
  PhaseAggregate agg;
  agg.add(a);
  agg.add(b);
  EXPECT_EQ(agg.count, 2u);
  EXPECT_EQ(agg.total_ns, 150);
  EXPECT_EQ(agg.phase(Phase::kNet), 130);
  EXPECT_EQ(agg.phase(Phase::kQueue), 20);
}

}  // namespace
}  // namespace hpres::obs
