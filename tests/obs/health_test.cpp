// Online gray-failure detector edge cases: the relative-outlier rule under
// uniform slowness, hysteresis under flapping, hold-on-abstain for empty
// windows, loss and burn-rate evidence, and the ground-truth join
// (analyze_detection) including the symptom-propagation grace window.
#include "obs/health.h"

#include <gtest/gtest.h>

#include <vector>

namespace hpres::obs {
namespace {

constexpr std::size_t kNodes = 5;

/// A window of `responses` replies averaging `rtt_us` microseconds each.
HealthSample ok_window(std::uint64_t responses = 20, double rtt_us = 10.0) {
  HealthSample s;
  s.window.responses = responses;
  s.window.rtt_sum_ns =
      static_cast<SimDur>(rtt_us * 1000.0 * static_cast<double>(responses));
  return s;
}

HealthSample lossy_window(std::uint64_t responses, std::uint64_t timeouts,
                          std::uint64_t drops) {
  HealthSample s = ok_window(responses);
  s.window.timeouts = timeouts;
  s.window.drops = drops;
  return s;
}

std::vector<HealthSample> uniform(double rtt_us) {
  return std::vector<HealthSample>(kNodes, ok_window(20, rtt_us));
}

TEST(HealthDetector, AllNodesSlowIsNotAnOutlier) {
  // Every node's RTT degrades 30x together (say a cluster-wide GC pause or
  // a saturated fabric). The cluster median rises with them, so nobody is
  // an *outlier* and nobody gets flagged — gray-failure detection is
  // relative by design.
  HealthDetector det(kNodes);
  SimTime t = 0;
  for (int tick = 0; tick < 10; ++tick) {
    det.tick(t += 1000, uniform(300.0));  // 30x the healthy 10 us
  }
  for (std::size_t i = 0; i < kNodes; ++i) {
    EXPECT_EQ(det.state(i), NodeHealthState::kHealthy) << "node " << i;
  }
  EXPECT_TRUE(det.transitions().empty());
}

TEST(HealthDetector, SingleSlowOutlierIsFlagged) {
  HealthDetector det(kNodes);
  SimTime t = 0;
  for (int tick = 0; tick < 5; ++tick) {
    std::vector<HealthSample> samples = uniform(10.0);
    samples[2] = ok_window(20, 400.0);  // 40x its peers
    det.tick(t += 1000, samples);
  }
  EXPECT_EQ(det.state(2), NodeHealthState::kGraySlow);
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (i != 2) {
      EXPECT_EQ(det.state(i), NodeHealthState::kHealthy);
    }
  }
  // Flag after 2 evidence ticks: suspect on the first, flagged on the 2nd.
  ASSERT_GE(det.transitions().size(), 2u);
  EXPECT_EQ(det.transitions()[0].to, NodeHealthState::kSuspect);
  EXPECT_EQ(det.transitions()[1].to, NodeHealthState::kGraySlow);
  EXPECT_EQ(det.transitions()[1].node, 2u);
}

TEST(HealthDetector, WindowsBelowTheSampleFloorAbstain) {
  // The same 40x outlier is no evidence when each window holds fewer than
  // kMinSamples responses, and flags once windows reach the floor.
  constexpr std::uint64_t kFloor = HealthDetector::kMinSamples;
  for (const std::uint64_t responses : {kFloor - 1, kFloor}) {
    HealthDetector det(kNodes);
    SimTime t = 0;
    for (int tick = 0; tick < 5; ++tick) {
      std::vector<HealthSample> samples = uniform(10.0);
      samples[2] = ok_window(responses, 400.0);
      det.tick(t += 1000, samples);
    }
    EXPECT_EQ(det.state(2), responses < kFloor ? NodeHealthState::kHealthy
                                               : NodeHealthState::kGraySlow)
        << responses << " responses per window";
  }
}

TEST(HealthDetector, FlappingNodeNeverClearsHysteresis) {
  // One bad window, one clean window, repeated: the evidence streak resets
  // every other tick, so the 2-tick flag streak is never reached — the
  // node bounces between suspect and healthy but is never flagged.
  HealthDetector det(kNodes);
  SimTime t = 0;
  for (int tick = 0; tick < 20; ++tick) {
    std::vector<HealthSample> samples = uniform(10.0);
    if (tick % 2 == 0) samples[1] = ok_window(20, 400.0);
    det.tick(t += 1000, samples);
  }
  for (const HealthTransition& tr : det.transitions()) {
    EXPECT_NE(tr.to, NodeHealthState::kGraySlow)
        << "flapping node got flagged at t=" << tr.t_ns;
    EXPECT_NE(tr.to, NodeHealthState::kGrayLossy);
  }
  EXPECT_NE(det.state(1), NodeHealthState::kGraySlow);
}

TEST(HealthDetector, LossyNodeIsFlaggedLossy) {
  HealthDetector det(kNodes);
  SimTime t = 0;
  for (int tick = 0; tick < 4; ++tick) {
    std::vector<HealthSample> samples = uniform(10.0);
    samples[3] = lossy_window(10, 3, 2);  // 5 failures / 15 trials = 33%
    det.tick(t += 1000, samples);
  }
  EXPECT_EQ(det.state(3), NodeHealthState::kGrayLossy);
}

TEST(HealthDetector, EmptyWindowsHoldStateAndStreaks) {
  // Hold-on-abstain: a badly lossy node parks every closed-loop caller on
  // its RPC deadline, so the windows between drop bursts are silent.
  // Silence is not health evidence — it must neither clear an existing
  // flag nor reset the clean-streak bookkeeping.
  HealthDetector det(kNodes);
  SimTime t = 0;
  // Drive node 3 to gray-lossy.
  for (int tick = 0; tick < 3; ++tick) {
    std::vector<HealthSample> samples = uniform(10.0);
    samples[3] = lossy_window(10, 3, 2);
    det.tick(t += 1000, samples);
  }
  ASSERT_EQ(det.state(3), NodeHealthState::kGrayLossy);

  // Many completely empty windows (no trials, no queue): state frozen.
  for (int tick = 0; tick < 10; ++tick) {
    std::vector<HealthSample> samples = uniform(10.0);
    samples[3] = HealthSample{};  // trials == 0, queue_depth == 0
    det.tick(t += 1000, samples);
  }
  EXPECT_EQ(det.state(3), NodeHealthState::kGrayLossy)
      << "empty windows must not clear a flagged node";

  // Real clean windows do clear it — after 4 of them.
  for (int tick = 0; tick < 3; ++tick) {
    det.tick(t += 1000, uniform(10.0));
    EXPECT_EQ(det.state(3), NodeHealthState::kGrayLossy);
  }
  det.tick(t += 1000, uniform(10.0));  // 4th clean tick clears
  EXPECT_EQ(det.state(3), NodeHealthState::kHealthy);
}

TEST(HealthDetector, BurnRateNeedsBothWindows) {
  // The burn-rate rule is multi-window: a single 100%-over-SLO hiccup
  // moves the fast EWMA but not the slow one — no evidence. Sustained
  // burn moves both and flags the node even when its RTT is not an
  // outlier (e.g. bimodal latency with a healthy-looking mean).
  HealthDetector det(kNodes);
  SimTime t = 0;

  // One hiccup tick, then clean: never flagged.
  {
    std::vector<HealthSample> samples = uniform(10.0);
    samples[0].window.over_slo = samples[0].window.responses;
    det.tick(t += 1000, samples);
  }
  for (int tick = 0; tick < 4; ++tick) det.tick(t += 1000, uniform(10.0));
  EXPECT_NE(det.state(0), NodeHealthState::kGraySlow);

  // Sustained burn on node 4: flagged after the slow EWMA catches up.
  for (int tick = 0; tick < 6; ++tick) {
    std::vector<HealthSample> samples = uniform(10.0);
    samples[4].window.over_slo = samples[4].window.responses;
    det.tick(t += 1000, samples);
  }
  EXPECT_EQ(det.state(4), NodeHealthState::kGraySlow);
}

TEST(HealthDetector, MembershipDownIsImmediate) {
  HealthDetector det(kNodes);
  std::vector<HealthSample> samples = uniform(10.0);
  samples[1].up = false;
  det.tick(1000, samples);
  EXPECT_EQ(det.state(1), NodeHealthState::kDown);  // no hysteresis wait
  ASSERT_EQ(det.transitions().size(), 1u);
  EXPECT_EQ(det.transitions()[0].to, NodeHealthState::kDown);
}

// --- analyze_detection: the ground-truth join ------------------------------

HealthTransition flag_at(SimTime t, std::size_t node,
                         NodeHealthState to = NodeHealthState::kGrayLossy) {
  return HealthTransition{t, node, NodeHealthState::kSuspect, to, 0.0, 0.0};
}

TEST(AnalyzeDetection, DetectedWithinWindowMeasuresLatency) {
  FaultLog log;
  log.stamp(1000, 2, FaultKind::kLoss);
  log.stamp(9000, 2, FaultKind::kLossClear);
  const std::vector<HealthTransition> tr = {flag_at(3500, 2)};
  const DetectionReport r = analyze_detection(log, tr, 20'000);
  ASSERT_EQ(r.faults.size(), 1u);
  EXPECT_EQ(r.detected, 1u);
  EXPECT_EQ(r.missed, 0u);
  EXPECT_TRUE(r.faults[0].detected);
  EXPECT_EQ(r.faults[0].latency_ns, 2500);
  EXPECT_EQ(r.faults[0].flagged_as, NodeHealthState::kGrayLossy);
  EXPECT_EQ(r.false_positives, 0u);
}

TEST(AnalyzeDetection, NoTransitionMeansMissed) {
  FaultLog log;
  log.stamp(1000, 2, FaultKind::kSlowdown);
  const DetectionReport r = analyze_detection(log, {}, 20'000);
  EXPECT_EQ(r.detected, 0u);
  EXPECT_EQ(r.missed, 1u);
}

TEST(AnalyzeDetection, FlagOnHealthyNodeIsAFalsePositive) {
  FaultLog log;
  log.stamp(1000, 2, FaultKind::kLoss);
  // Node 4 has no fault; flagging it is a false positive. A later
  // flagged->flagged refresh (kind change) is not a *new* positive.
  const std::vector<HealthTransition> tr = {
      flag_at(3000, 2),
      flag_at(5000, 4),
      HealthTransition{6000, 4, NodeHealthState::kGrayLossy,
                       NodeHealthState::kGraySlow, 0.0, 0.0},
  };
  const DetectionReport r = analyze_detection(log, tr, 20'000);
  EXPECT_EQ(r.detected, 1u);
  EXPECT_EQ(r.false_positives, 1u);
}

TEST(AnalyzeDetection, GraceWindowCreditsLateSymptoms) {
  // The fault clears at t=9000 but the flag lands at t=11000 — symptoms
  // propagate on an RPC-deadline delay. Without grace this is a miss AND
  // a false positive; with grace it is a detection.
  FaultLog log;
  log.stamp(1000, 2, FaultKind::kLoss);
  log.stamp(9000, 2, FaultKind::kLossClear);
  const std::vector<HealthTransition> tr = {flag_at(11'000, 2)};

  const DetectionReport strict = analyze_detection(log, tr, 20'000, 0);
  EXPECT_EQ(strict.missed, 1u);
  EXPECT_EQ(strict.false_positives, 1u);

  const DetectionReport lenient = analyze_detection(log, tr, 20'000, 5000);
  EXPECT_EQ(lenient.detected, 1u);
  EXPECT_EQ(lenient.missed, 0u);
  EXPECT_EQ(lenient.false_positives, 0u);
  EXPECT_EQ(lenient.faults[0].latency_ns, 10'000);
}

TEST(AnalyzeDetection, UnclearedFaultWindowExtendsToEnd) {
  FaultLog log;
  log.stamp(1000, 0, FaultKind::kCrash);  // never restarted
  const std::vector<HealthTransition> tr = {
      flag_at(15'000, 0, NodeHealthState::kDown)};
  const DetectionReport r = analyze_detection(log, tr, 20'000);
  EXPECT_EQ(r.detected, 1u);
  EXPECT_EQ(r.false_positives, 0u);
}

// --- HealthSignals: windowed deltas ----------------------------------------

TEST(HealthSignals, TakeWindowReturnsDeltasAndAdvances) {
  constexpr SimDur kSlo = HealthSignals::kSloNs;
  HealthSignals sig(2);
  sig.on_response(0, kSlo);      // at the SLO: not over it
  sig.on_response(0, kSlo + 1);  // over SLO
  sig.on_timeout(0);
  sig.on_retry(0);
  sig.on_drop(1);

  HealthWindow w0 = sig.take_window(0);
  EXPECT_EQ(w0.responses, 2u);
  EXPECT_EQ(w0.timeouts, 1u);
  EXPECT_EQ(w0.retries, 1u);
  EXPECT_EQ(w0.over_slo, 1u);
  EXPECT_EQ(w0.rtt_sum_ns, 2 * kSlo + 1);
  EXPECT_EQ(sig.take_window(1).drops, 1u);

  // Second take with no new activity: all-zero window, not cumulative.
  w0 = sig.take_window(0);
  EXPECT_EQ(w0.responses, 0u);
  EXPECT_EQ(w0.rtt_sum_ns, 0);

  // Out-of-range nodes are ignored, never a crash.
  sig.on_timeout(99);
  EXPECT_EQ(sig.take_window(99).timeouts, 0u);
}

}  // namespace
}  // namespace hpres::obs
