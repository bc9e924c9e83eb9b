// Deterministic mid-workload fault injection.
//
// A FaultSchedule crashes and restarts servers at fixed simulated times
// while a workload is running, reproducing the online failure model the
// controlled fail_server/recover_server pair cannot: a crash flips the
// fabric at the crash instant (in-flight requests to the node are dropped
// and resolve via RPC deadlines; new sends fail fast) but the membership
// oracle only learns of it after a configurable detection lag, during
// which clients still route to the dead server. Everything is driven by
// simulated time, so the same schedule on the same seed replays
// bit-identically.
//
// The schedule is a ShardRuntime quiesce hook at every shard count:
// windows are capped at the next due event, so each fault applies at its
// exact scheduled instant, before any event at that instant, while every
// shard thread is parked — the fabric topology flags, membership oracle,
// and server state mutate race-free, and detection-lag membership flips
// queue on the same hook. Crash dumps fold the per-shard flight domains
// into the parent recorder before writing the file.
#pragma once

#include <vector>

#include "cluster/cluster.h"

namespace hpres::cluster {

class PlacementManager;

class FaultSchedule {
 public:
  /// `detection_lag_ns` is the delay between a crash/restart taking
  /// effect in the fabric and the membership oracle observing it.
  explicit FaultSchedule(Cluster& cluster, SimDur detection_lag_ns = 0)
      : cluster_(&cluster), detection_lag_ns_(detection_lag_ns) {}
  FaultSchedule(const FaultSchedule&) = delete;
  FaultSchedule& operator=(const FaultSchedule&) = delete;
  ~FaultSchedule();

  /// Schedules a crash of `server_index` at simulated time `at_ns`.
  /// `wipe_store` additionally discards the server's contents, modelling a
  /// replacement node taking over the id (repair must rebuild everything).
  void add_crash(SimTime at_ns, std::size_t server_index,
                 bool wipe_store = false);

  /// Schedules a restart of `server_index` at simulated time `at_ns`.
  void add_restart(SimTime at_ns, std::size_t server_index);

  /// Schedules a gray failure: from `at_ns` on, `server_index` multiplies
  /// its compute costs by `factor` (1.0 restores full speed). Fabric and
  /// membership are untouched — the node keeps answering, slowly — which is
  /// exactly the straggler pattern hedged reads are built to mask.
  void add_slowdown(SimTime at_ns, std::size_t server_index, double factor);

  /// Schedules a gray-lossy failure: from `at_ns` on, fabric messages to
  /// or from `server_index` are silently dropped with `probability` (0.0
  /// restores a clean link). Membership stays green — peers only see the
  /// timeouts — which is the silent-loss pattern the health detector's
  /// loss-rate rule exists for. Requires a nonzero RpcPolicy timeout or
  /// affected callers park forever.
  void add_loss(SimTime at_ns, std::size_t server_index, double probability);

  /// Schedules a ring join of `server_index` at simulated time `at_ns`,
  /// executed by the attached PlacementManager (set_placement_manager).
  /// Placement changes run on a dedicated sequential driver coroutine —
  /// the manager already defers its cross-shard mutations to its own
  /// quiesce hook, so no hook plumbing is needed here.
  void add_join(SimTime at_ns, std::size_t server_index);

  /// Schedules a graceful ring leave of `server_index` at `at_ns`.
  void add_leave(SimTime at_ns, std::size_t server_index);

  /// Attaches the placement plane that executes add_join/add_leave events.
  /// Must outlive the schedule; required before arm() if any are queued.
  void set_placement_manager(PlacementManager* manager) noexcept {
    placement_ = manager;
  }

  /// Attaches the ground-truth log: every applied event is stamped with
  /// its simulated time, node, and fault kind. The closed detection loop
  /// joins these stamps against the detector's transitions. The log is
  /// deliberately kept out of the flight recorder so post-mortem tooling
  /// must infer the faulty node from symptoms.
  void set_fault_log(obs::FaultLog* log) noexcept { fault_log_ = log; }

  /// Starts the schedule by registering its runtime quiesce hook (a
  /// schedule that is never armed costs nothing). Call exactly once,
  /// between runs; the schedule must outlive the simulation.
  void arm();

  /// Number of events applied so far: crashes, restarts, slowdowns, loss
  /// changes, and the joins and leaves the placement plane accepted.
  [[nodiscard]] std::size_t fired() const noexcept { return fired_; }

 private:
  struct FaultEvent {
    SimTime at_ns = 0;
    std::size_t server = 0;
    bool restart = false;
    bool wipe = false;
    double slow = 0.0;   ///< > 0: gray-failure slowdown, not a crash/restart
    double loss = -1.0;  ///< >= 0: per-node silent-loss probability
  };

  /// A membership flip (crash/restart observation) still pending its
  /// detection lag.
  struct PendingDetect {
    SimTime at_ns = 0;
    std::size_t server = 0;
    bool up = false;
  };

  struct PlacementEvent {
    SimTime at_ns = 0;
    std::size_t server = 0;
    bool join = false;
  };

  static sim::Task<void> placement_driver(FaultSchedule* self);

  void apply(const FaultEvent& ev, SimTime now);
  /// Quiesce-hook body: applies every event and pending membership flip
  /// due at or before `min_next`, each stamped at its own due time;
  /// returns the earliest remaining due time so the runtime caps windows
  /// at it.
  SimTime on_quiesce(SimTime min_next);

  Cluster* cluster_;
  SimDur detection_lag_ns_;
  PlacementManager* placement_ = nullptr;
  std::vector<FaultEvent> events_;
  std::vector<PlacementEvent> placement_events_;
  std::vector<PendingDetect> detects_;
  std::size_t idx_ = 0;  ///< next unapplied event
  std::size_t fired_ = 0;
  std::size_t hook_id_ = 0;  ///< runtime hook slot, valid once armed
  bool armed_ = false;
  obs::FaultLog* fault_log_ = nullptr;
};

}  // namespace hpres::cluster
