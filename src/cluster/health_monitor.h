// Cluster health plane: the active monitor that closes the loop between
// the passive per-node signals (obs::HealthSignals, fed by rpc/fabric hot
// paths) and the online anomaly detector (obs::HealthDetector).
//
// Every `interval_ns` of simulated time the monitor assembles one
// HealthSample per server (windowed signal deltas + instantaneous handler
// queue depth + the membership oracle's view) and runs one detector tick.
// Transitions are mirrored into the flight recorder (kHealthState) and
// into owned Prometheus gauges (health.score_x1000 / health.node_state); a
// cluster-wide burst of RPC deadline expiries in one window triggers an
// automatic flight dump.
//
// The ticker is a ShardRuntime quiesce hook at every shard count: tick
// times are the exact interval boundaries (windows are capped so no event
// at or past a boundary runs first), ticks are stamped at those
// boundaries, and each sample sums the per-shard HealthSignals domains —
// all cross-shard reads happen while every shard thread is parked, so the
// detector's inputs are deterministic for a fixed (seed, shard count).
//
// Lifecycle mirrors obs::Sampler: the harness calls request_stop() from
// the main thread once run() returns, and a final tick covers the last
// partial window. Monitoring is observation-only — the hook adds no
// simulator events and never perturbs workload timing, so at one shard a
// monitored run reports identical workload results and event counts to an
// unmonitored one.
#pragma once

#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "obs/health.h"

namespace hpres::cluster {

struct HealthMonitorParams {
  /// Detector tick period (simulated). 100µs ≈ a few hundred ops per
  /// window at the simulated service rates — enough samples to clear
  /// HealthParams::min_samples without detection lag suffering.
  SimDur interval_ns = 100 * units::kMicrosecond;
  /// Per-response latency SLO classifying over-SLO responses for the
  /// burn-rate rule.
  SimDur slo_ns = 2 * units::kMillisecond;
  /// Cluster-wide RPC deadline expiries in a single window that trigger an
  /// automatic flight-recorder dump ("timeout-burst"). 0 disables.
  std::uint64_t timeout_burst = 8;
  /// Detector thresholds and hysteresis.
  obs::HealthParams detector;
};

class HealthMonitor {
 public:
  explicit HealthMonitor(Cluster& cluster, HealthMonitorParams params = {});
  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;
  ~HealthMonitor();

  /// Wires the signal counters into the cluster's rpc/fabric layers and
  /// registers the ticker's runtime quiesce hook. Call once, between
  /// runs; the monitor must outlive the simulation.
  void arm();

  /// Takes one final detector tick at the current (quiesced) instant and
  /// stops the ticker. Idempotent. This reads cross-shard state, so call
  /// it only at quiescence — from the main thread after run() returns —
  /// never from a coroutine on a shard loop.
  void request_stop();

  /// Registers per-server owned gauges (health.score_x1000 as the
  /// fixed-point composite score, health.node_state as the NodeHealthState
  /// ordinal) under component "health". Owned, not bound: the values
  /// survive registry capture() after the monitor is destroyed.
  void register_gauges(obs::MetricsRegistry& reg, const std::string& op_label);

  [[nodiscard]] const obs::HealthDetector& detector() const noexcept {
    return detector_;
  }
  [[nodiscard]] obs::HealthSignals& signals() noexcept { return signals_; }
  [[nodiscard]] std::uint64_t ticks() const noexcept {
    return detector_.ticks();
  }
  [[nodiscard]] std::uint64_t flight_dumps_triggered() const noexcept {
    return burst_dumps_;
  }

 private:
  /// One detector tick stamped at `now`: sums the per-shard signal windows,
  /// samples queue depth + membership, runs the detector, mirrors
  /// transitions/gauges, and fires the timeout-burst dump.
  void tick_at(SimTime now);
  /// Quiesce-hook body: ticks every interval boundary that is due at or
  /// before `min_next`, returns the next boundary (caps windows so no
  /// event at or past it runs before the tick).
  SimTime on_quiesce(SimTime min_next);

  Cluster* cluster_;
  HealthMonitorParams params_;
  obs::HealthSignals signals_;
  obs::HealthDetector detector_;
  std::vector<obs::HealthSample> samples_;   ///< reused per tick
  std::vector<obs::Gauge*> score_gauges_;    ///< per server, when registered
  std::vector<obs::Gauge*> state_gauges_;
  std::size_t seen_transitions_ = 0;
  std::uint64_t burst_dumps_ = 0;
  SimTime next_tick_ = 0;    ///< next tick boundary
  std::size_t hook_id_ = 0;  ///< runtime hook slot, valid once armed
  bool stop_ = false;
  bool armed_ = false;
};

}  // namespace hpres::cluster
