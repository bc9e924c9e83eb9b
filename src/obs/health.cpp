#include "obs/health.h"

#include <algorithm>

namespace hpres::obs {
namespace {

// Evidence thresholds. A node is slow when its score exceeds kSlowRatio x
// the cluster median and also the absolute kSlowFloor, so near-idle jitter
// never flags. It is lossy when (timeouts+drops)/attempts exceeds
// kLossyRate.
constexpr double kSlowRatio = 3.0;
constexpr double kSlowFloor = 4.0;
constexpr double kLossyRate = 0.10;

// SLO burn-rate rule (multi-window): the fraction of over-SLO responses is
// tracked by a fast and a slow EWMA; both must burn the error budget
// faster than kBurnThreshold x kSloBudget to count as evidence.
constexpr double kSloBudget = 0.01;      // tolerated over-SLO fraction
constexpr double kBurnThreshold = 10.0;  // alert at 10x budget burn
constexpr double kBurnFastAlpha = 0.5;   // fast window EWMA smoothing
constexpr double kBurnSlowAlpha = 0.1;   // slow window EWMA smoothing

// Hysteresis (in detector ticks).
constexpr std::uint32_t kFlagAfter = 2;   // consecutive evidence ticks to flag
constexpr std::uint32_t kClearAfter = 4;  // consecutive clean ticks to unflag

[[nodiscard]] bool is_flagged(NodeHealthState s) noexcept {
  return s == NodeHealthState::kGraySlow || s == NodeHealthState::kGrayLossy ||
         s == NodeHealthState::kDown;
}

/// Clear kind that ends a given onset kind's active interval.
[[nodiscard]] bool clears(FaultKind onset, FaultKind clear) noexcept {
  switch (onset) {
    case FaultKind::kCrash: return clear == FaultKind::kRestart;
    case FaultKind::kSlowdown: return clear == FaultKind::kSlowdownClear;
    case FaultKind::kLoss: return clear == FaultKind::kLossClear;
    default: return false;
  }
}

[[nodiscard]] bool is_onset(FaultKind k) noexcept {
  return k == FaultKind::kCrash || k == FaultKind::kSlowdown ||
         k == FaultKind::kLoss;
}

}  // namespace

const char* node_health_state_name(NodeHealthState s) noexcept {
  switch (s) {
    case NodeHealthState::kHealthy: return "healthy";
    case NodeHealthState::kSuspect: return "suspect";
    case NodeHealthState::kGraySlow: return "gray_slow";
    case NodeHealthState::kGrayLossy: return "gray_lossy";
    case NodeHealthState::kDown: return "down";
  }
  return "unknown";
}

const char* fault_kind_name(FaultKind k) noexcept {
  switch (k) {
    case FaultKind::kCrash: return "crash";
    case FaultKind::kRestart: return "restart";
    case FaultKind::kSlowdown: return "slowdown";
    case FaultKind::kSlowdownClear: return "slowdown_clear";
    case FaultKind::kLoss: return "loss";
    case FaultKind::kLossClear: return "loss_clear";
  }
  return "unknown";
}

HealthWindow HealthSignals::take_window(std::size_t node) {
  HealthWindow out;
  if (node >= cum_.size()) return out;
  const HealthWindow& c = cum_[node];
  HealthWindow& l = last_[node];
  out.responses = c.responses - l.responses;
  out.timeouts = c.timeouts - l.timeouts;
  out.retries = c.retries - l.retries;
  out.drops = c.drops - l.drops;
  out.over_slo = c.over_slo - l.over_slo;
  out.rtt_sum_ns = c.rtt_sum_ns - l.rtt_sum_ns;
  l = c;
  return out;
}

void HealthDetector::transition(SimTime now_ns, std::size_t node,
                                NodeHealthState to) {
  NodeState& st = nodes_[node];
  if (st.state == to) return;
  transitions_.push_back(
      HealthTransition{now_ns, node, st.state, to, st.score, median_});
  st.state = to;
}

std::size_t HealthDetector::tick(SimTime now_ns,
                                 std::span<const HealthSample> samples) {
  ++ticks_;
  const std::size_t n = std::min(samples.size(), nodes_.size());
  const std::size_t before = transitions_.size();

  // Pass 1: window scores, then the cluster median over up nodes. The
  // median is the detector's notion of "normal right now": a node is only
  // gray-slow *relative* to it, so a uniformly slow cluster (every score
  // rises together) keeps every node within kSlowRatio of the median and
  // nobody gets flagged.
  std::vector<double> up_scores;
  up_scores.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const HealthSample& s = samples[i];
    const double rtt_us =
        s.window.responses > 0
            ? units::to_us(s.window.rtt_sum_ns) /
                  static_cast<double>(s.window.responses)
            : 0.0;
    nodes_[i].score =
        (1.0 + static_cast<double>(s.queue_depth)) * (1.0 + rtt_us);
    if (s.up) up_scores.push_back(nodes_[i].score);
  }
  if (!up_scores.empty()) {
    std::nth_element(up_scores.begin(),
                     up_scores.begin() + up_scores.size() / 2,
                     up_scores.end());
    median_ = up_scores[up_scores.size() / 2];
  }

  // Pass 2: per-node evidence + hysteresis state machine.
  for (std::size_t i = 0; i < n; ++i) {
    const HealthSample& s = samples[i];
    NodeState& st = nodes_[i];

    if (!s.up) {
      // Membership already applied its own detection lag; mirror it
      // immediately rather than re-debouncing a definitive signal.
      st.evidence_streak = 0;
      st.clean_streak = 0;
      transition(now_ns, i, NodeHealthState::kDown);
      continue;
    }

    // Loss evidence: failed deliveries out of everything attempted against
    // this node. Drops and the timeouts they cause both count — the rate
    // overshoots a little, which only helps detection.
    const std::uint64_t trials =
        s.window.responses + s.window.timeouts + s.window.drops;
    const std::uint64_t failures = s.window.timeouts + s.window.drops;

    // No data at all this window: abstain and *hold* the current state and
    // streaks. An empty window is not evidence of health — a badly lossy
    // node parks every closed-loop caller on its RPC deadline, so the
    // windows between drop bursts are silent. Treating silence as "clean"
    // would reset the evidence streak and the kFlagAfter hysteresis could
    // never accumulate.
    if (trials == 0 && s.queue_depth == 0) continue;
    const bool lossy =
        trials >= kMinSamples &&
        static_cast<double>(failures) >
            kLossyRate * static_cast<double>(trials);

    // Slow evidence: relative outlier with an absolute floor.
    const bool enough_rtt = s.window.responses >= kMinSamples;
    const bool slow = enough_rtt &&
                      st.score > kSlowRatio * median_ &&
                      st.score > kSlowFloor;

    // SLO burn-rate: both the fast and slow EWMA of the over-SLO fraction
    // must burn the budget at kBurnThreshold x to count (multi-window rule
    // — a single hiccup moves the fast EWMA but not the slow one).
    if (s.window.responses > 0) {
      const double ratio = static_cast<double>(s.window.over_slo) /
                           static_cast<double>(s.window.responses);
      st.burn_fast =
          (1.0 - kBurnFastAlpha) * st.burn_fast + kBurnFastAlpha * ratio;
      st.burn_slow =
          (1.0 - kBurnSlowAlpha) * st.burn_slow + kBurnSlowAlpha * ratio;
    }
    const double burn_limit = kBurnThreshold * kSloBudget;
    const bool burning = enough_rtt && st.burn_fast > burn_limit &&
                         st.burn_slow > burn_limit;

    const bool evidence = lossy || slow || burning;
    const NodeHealthState flag = lossy ? NodeHealthState::kGrayLossy
                                       : NodeHealthState::kGraySlow;

    if (evidence) {
      ++st.evidence_streak;
      st.clean_streak = 0;
      st.pending = flag;
      if (is_flagged(st.state)) {
        // Already flagged: refresh the kind if the dominant evidence
        // changed (e.g. a lossy node that is now merely slow).
        transition(now_ns, i, flag);
      } else if (st.evidence_streak >= kFlagAfter) {
        transition(now_ns, i, flag);
      } else {
        transition(now_ns, i, NodeHealthState::kSuspect);
      }
    } else {
      ++st.clean_streak;
      st.evidence_streak = 0;
      if (st.state == NodeHealthState::kSuspect) {
        transition(now_ns, i, NodeHealthState::kHealthy);
      } else if (is_flagged(st.state) &&
                 st.clean_streak >= kClearAfter) {
        transition(now_ns, i, NodeHealthState::kHealthy);
      }
    }
  }
  return transitions_.size() - before;
}

DetectionReport analyze_detection(
    const FaultLog& faults, std::span<const HealthTransition> transitions,
    SimTime end_ns, SimDur grace_ns) {
  DetectionReport report;
  const auto& stamps = faults.stamps();

  for (std::size_t i = 0; i < stamps.size(); ++i) {
    const FaultStamp& onset = stamps[i];
    if (!is_onset(onset.kind)) continue;
    SimTime clear_at = end_ns;
    for (std::size_t j = i + 1; j < stamps.size(); ++j) {
      if (stamps[j].node == onset.node && clears(onset.kind, stamps[j].kind)) {
        clear_at = stamps[j].t_ns + grace_ns;
        break;
      }
    }
    FaultDetection det;
    det.fault = onset;
    for (const HealthTransition& tr : transitions) {
      if (tr.node != onset.node || !is_flagged(tr.to)) continue;
      if (tr.t_ns < onset.t_ns || tr.t_ns > clear_at) continue;
      det.detected = true;
      det.detected_at_ns = tr.t_ns;
      det.latency_ns = tr.t_ns - onset.t_ns;
      det.flagged_as = tr.to;
      break;
    }
    det.detected ? ++report.detected : ++report.missed;
    report.faults.push_back(det);
  }

  // False positives: a healthy/suspect -> flagged transition on a node with
  // no active fault covering that instant.
  for (const HealthTransition& tr : transitions) {
    if (!is_flagged(tr.to) || is_flagged(tr.from)) continue;
    bool active = false;
    for (std::size_t i = 0; i < stamps.size() && !active; ++i) {
      const FaultStamp& onset = stamps[i];
      if (!is_onset(onset.kind) || onset.node != tr.node) continue;
      if (tr.t_ns < onset.t_ns) continue;
      SimTime clear_at = end_ns;
      for (std::size_t j = i + 1; j < stamps.size(); ++j) {
        if (stamps[j].node == onset.node &&
            clears(onset.kind, stamps[j].kind)) {
          clear_at = stamps[j].t_ns + grace_ns;
          break;
        }
      }
      active = tr.t_ns <= clear_at;
    }
    if (!active) ++report.false_positives;
  }
  return report;
}

}  // namespace hpres::obs
