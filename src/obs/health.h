// Online gray-failure detection: per-node health signals, an anomaly
// detector with hysteresis and SLO burn-rate rules, and ground-truth
// bookkeeping that turns fault injection into measurable detection
// latency / false-positive metrics.
//
// Split of responsibilities:
//   HealthSignals  — passive cumulative counters fed from the hot paths
//                    (rpc timeouts/retries/responses with RTT, fabric
//                    drops); windowed deltas are taken per detector tick.
//   HealthDetector — pure decision function: tick(now, samples) folds the
//                    window into per-node scores, compares each node
//                    against the *cluster median* (a node is gray-slow
//                    only relative to its peers — an all-slow cluster has
//                    no outlier and raises no flag), applies loss-rate and
//                    SLO burn-rate rules, and runs kFlagAfter/kClearAfter
//                    hysteresis so one bad window can't flap the state.
//   FaultLog       — ground-truth stamps written by FaultSchedule at
//                    injection time; analyze_detection() joins it against
//                    the detector's transition log to produce per-fault
//                    detection latency, missed faults and false positives.
//
// Everything here is observation-only: no simulated time is consumed and
// no RNG is drawn, so a run with the detector attached is byte-identical
// to one without (asserted by the determinism suite).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/units.h"

namespace hpres::obs {

// ---------------------------------------------------------------------------
// Signals

/// One node's windowed activity between two detector ticks (deltas of the
/// cumulative HealthSignals counters).
struct HealthWindow {
  std::uint64_t responses = 0;   ///< guarded replies that arrived
  std::uint64_t timeouts = 0;    ///< guarded attempts that hit the deadline
  std::uint64_t retries = 0;     ///< re-sent attempts after a timeout
  std::uint64_t drops = 0;       ///< fabric messages lost to/from this node
  std::uint64_t over_slo = 0;    ///< responses slower than the SLO
  SimDur rtt_sum_ns = 0;         ///< sum of observed response RTTs

  HealthWindow& operator+=(const HealthWindow& o) noexcept {
    responses += o.responses;
    timeouts += o.timeouts;
    retries += o.retries;
    drops += o.drops;
    over_slo += o.over_slo;
    rtt_sum_ns += o.rtt_sum_ns;
    return *this;
  }
};

/// Cumulative per-node counters updated from the rpc/net hot paths.
/// Indices are *server indices* (server NodeId == index by convention).
class HealthSignals {
 public:
  /// Per-response latency SLO: a slower response counts as over-SLO for
  /// the detector's burn-rate rule.
  static constexpr SimDur kSloNs = 2 * units::kMillisecond;

  explicit HealthSignals(std::size_t nodes) : cum_(nodes), last_(nodes) {}

  void on_timeout(std::size_t node) noexcept {
    if (node < cum_.size()) ++cum_[node].timeouts;
  }
  void on_retry(std::size_t node) noexcept {
    if (node < cum_.size()) ++cum_[node].retries;
  }
  void on_response(std::size_t node, SimDur rtt_ns) noexcept {
    if (node >= cum_.size()) return;
    HealthWindow& c = cum_[node];
    ++c.responses;
    c.rtt_sum_ns += rtt_ns;
    if (rtt_ns > kSloNs) ++c.over_slo;
  }
  void on_drop(std::size_t node) noexcept {
    if (node < cum_.size()) ++cum_[node].drops;
  }

  [[nodiscard]] std::size_t num_nodes() const noexcept { return cum_.size(); }
  [[nodiscard]] const HealthWindow& cumulative(std::size_t node) const {
    return cum_.at(node);
  }

  /// Delta since the previous take_window() call for `node`, then advances
  /// the window mark. Called once per node per detector tick.
  [[nodiscard]] HealthWindow take_window(std::size_t node);

 private:
  std::vector<HealthWindow> cum_;
  std::vector<HealthWindow> last_;
};

// ---------------------------------------------------------------------------
// Detector

enum class NodeHealthState : std::uint8_t {
  kHealthy = 0,
  kSuspect = 1,    ///< evidence seen, hysteresis streak not yet reached
  kGraySlow = 2,   ///< relative-outlier latency / SLO burn confirmed
  kGrayLossy = 3,  ///< timeout+drop rate over threshold confirmed
  kDown = 4,       ///< membership says the node is out
};

[[nodiscard]] const char* node_health_state_name(NodeHealthState s) noexcept;

/// Per-node per-tick input assembled by the monitor.
struct HealthSample {
  HealthWindow window;
  std::uint32_t queue_depth = 0;  ///< instantaneous handler queue depth
  bool up = true;                 ///< membership's detected-alive bit
};

struct HealthTransition {
  SimTime t_ns = 0;
  std::size_t node = 0;
  NodeHealthState from = NodeHealthState::kHealthy;
  NodeHealthState to = NodeHealthState::kHealthy;
  double score = 0.0;        ///< node's score at the transition tick
  double median = 0.0;       ///< cluster median score that tick
};

/// The detector's evidence thresholds, SLO burn-rate rule and hysteresis
/// are constants (health.cpp); only the sample floor is declared here.
class HealthDetector {
 public:
  /// Windows with fewer attempts (or, for the slow rule, responses) than
  /// this abstain on that rule.
  static constexpr std::uint64_t kMinSamples = 6;

  explicit HealthDetector(std::size_t nodes) : nodes_(nodes) {}

  /// Folds one window of samples (one entry per node) into the per-node
  /// state machines. Returns the number of state transitions this tick.
  std::size_t tick(SimTime now_ns, std::span<const HealthSample> samples);

  [[nodiscard]] NodeHealthState state(std::size_t node) const {
    return nodes_.at(node).state;
  }
  /// Latest composite badness score ((1+queue)(1+rtt_us) over the window).
  [[nodiscard]] double score(std::size_t node) const {
    return nodes_.at(node).score;
  }
  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] std::uint64_t ticks() const noexcept { return ticks_; }
  [[nodiscard]] const std::vector<HealthTransition>& transitions()
      const noexcept {
    return transitions_;
  }

 private:
  struct NodeState {
    NodeHealthState state = NodeHealthState::kHealthy;
    double score = 1.0;
    double burn_fast = 0.0;
    double burn_slow = 0.0;
    std::uint32_t evidence_streak = 0;
    std::uint32_t clean_streak = 0;
    NodeHealthState pending = NodeHealthState::kHealthy;  ///< flag to apply
  };

  void transition(SimTime now_ns, std::size_t node, NodeHealthState to);

  std::vector<NodeState> nodes_;
  std::vector<HealthTransition> transitions_;
  double median_ = 1.0;
  std::uint64_t ticks_ = 0;
};

// ---------------------------------------------------------------------------
// Ground truth and the closed loop

enum class FaultKind : std::uint8_t {
  kCrash = 0,
  kRestart = 1,
  kSlowdown = 2,
  kSlowdownClear = 3,
  kLoss = 4,
  kLossClear = 5,
};

[[nodiscard]] const char* fault_kind_name(FaultKind k) noexcept;

struct FaultStamp {
  SimTime t_ns = 0;
  std::size_t node = 0;
  FaultKind kind = FaultKind::kCrash;
};

/// Append-only ground-truth log; FaultSchedule stamps every injection here.
/// Deliberately *not* wired into the flight recorder: the post-mortem tools
/// must reconstruct the faulty node from symptoms alone.
class FaultLog {
 public:
  void stamp(SimTime t_ns, std::size_t node, FaultKind kind) {
    stamps_.push_back(FaultStamp{t_ns, node, kind});
  }
  [[nodiscard]] const std::vector<FaultStamp>& stamps() const noexcept {
    return stamps_;
  }
  [[nodiscard]] bool empty() const noexcept { return stamps_.empty(); }

 private:
  std::vector<FaultStamp> stamps_;
};

/// One injected fault joined against the detector's transition log.
struct FaultDetection {
  FaultStamp fault;
  bool detected = false;
  SimTime detected_at_ns = 0;
  SimDur latency_ns = 0;                 ///< detected_at - injected_at
  NodeHealthState flagged_as = NodeHealthState::kHealthy;
};

struct DetectionReport {
  std::vector<FaultDetection> faults;  ///< one per onset stamp
  std::size_t detected = 0;
  std::size_t missed = 0;
  /// Flag transitions for nodes with no active fault at that instant.
  std::size_t false_positives = 0;
};

/// Joins ground truth with detector transitions over [0, end_ns]. A fault
/// counts as detected when the node transitions into a flagged state
/// (kGraySlow/kGrayLossy/kDown — kSuspect is internal) at or after the
/// injection and before the fault clears (or `end_ns` when it never does).
/// `grace_ns` extends each fault's attribution window past its clear
/// stamp: symptoms propagate on a delay (a message dropped just before the
/// clear only surfaces as a timeout one RPC deadline later), so a flag
/// raised inside the grace window still belongs to the fault — both for
/// detection credit and for not counting it as a false positive. Size it
/// as the full RPC deadline ladder plus a couple of detector windows.
[[nodiscard]] DetectionReport analyze_detection(
    const FaultLog& faults, std::span<const HealthTransition> transitions,
    SimTime end_ns, SimDur grace_ns = 0);

}  // namespace hpres::obs
