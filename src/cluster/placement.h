// Versioned placement plane: epoch-stamped elastic membership for the
// hash ring, in the spirit of QFS's LayoutManager owning chunk placement.
//
// A PlacementManager turns "server joins the ring" / "server leaves the
// ring" into a safe online protocol over the existing data plane:
//
//   1. Cutover — the shared ring swaps to the new active set and bumps its
//      placement epoch. The mutation is applied by the manager's runtime
//      quiesce hook, at every shard count, so no shard observes a
//      half-built ring.
//   2. Install — the new epoch streams to every live server
//      (kPlacementEpoch). From the moment a server installs it, writes
//      stamped with an older epoch bounce with kWrongEpoch and the engine
//      re-runs them under the refreshed ring.
//   3. Migrate — the embedded RepairCoordinator discovers every key
//      (discover_all) and reconciles it from the pre-cutover ring to the
//      live one (reconcile_key), counting the per-key work in its
//      RepairStats; packed-stripe locator entries are re-homed here. Keys
//      are paced so foreground traffic keeps its latency envelope.
//   4. Finish — the view's previous ring is cleared and (epoch acks
//      permitting) the stale copies at old positions are deleted.
//
// Clients attach the manager's view (Cluster::set_placement_view) and
// their engines read it through the client. Between cutover and finish
// the view carries the pre-cutover ring, which keeps every acked value
// readable: a Get that misses re-runs under it (old positions are not
// cleaned until finish), Deletes unlink under both rings, and bounced
// Sets retry under the new ring. See DESIGN.md for the invariant
// argument.
#pragma once

#include <cstddef>
#include <cstdint>

#include "cluster/cluster.h"
#include "kv/placement.h"
#include "resilience/repair.h"

namespace hpres::cluster {

struct PlacementStats {
  std::uint64_t changes = 0;           ///< completed join/leave transitions
  std::uint64_t epoch_acks = 0;        ///< kPlacementEpoch acks received
  std::uint64_t locators_moved = 0;    ///< stripe locator entries re-homed
  std::uint64_t cleanup_deletes = 0;   ///< stale copies removed at finish

  /// Registers every field into `reg` under component "placement".
  void register_with(obs::MetricsRegistry& reg, std::string node,
                     std::string op = {}) const {
    const obs::MetricLabels labels{"placement", std::move(node),
                                   std::move(op)};
    reg.bind_counter("placement.changes", labels, &changes);
    reg.bind_counter("placement.epoch_acks", labels, &epoch_acks);
    reg.bind_counter("placement.locators_moved", labels, &locators_moved);
    reg.bind_counter("placement.cleanup_deletes", labels, &cleanup_deletes);
  }
};

class PlacementManager {
 public:
  /// `ctx` is the coordinator's engine context (a cluster client plus the
  /// cluster's live ring/membership) — migration and repair RPCs issue
  /// through it. Every referent, the codec, and the cluster must outlive
  /// the manager. The constructor installs the manager's runtime quiesce
  /// hook, so construct it between run() calls: the hook must bound
  /// windows before any change starts mid-window.
  PlacementManager(Cluster& cluster, const ec::Codec& codec,
                   ec::CostModel cost, resilience::EngineContext ctx);
  PlacementManager(const PlacementManager&) = delete;
  PlacementManager& operator=(const PlacementManager&) = delete;
  ~PlacementManager();

  /// The versioned view clients attach to (Cluster::set_placement_view);
  /// their engines read it through the client. Stable address for the
  /// manager's lifetime. While a change is in flight its `prev` points at
  /// the manager's pre-cutover ring snapshot.
  [[nodiscard]] const kv::PlacementView* view() const noexcept {
    return &view_;
  }

  [[nodiscard]] std::uint64_t epoch() const noexcept { return view_.epoch; }
  [[nodiscard]] bool in_transition() const noexcept {
    return view_.prev != nullptr;
  }

  /// The event loop the coordinator's coroutines must run on (its client's
  /// shard loop) — spawn join()/leave() here.
  [[nodiscard]] sim::Simulator& coordinator_sim() noexcept {
    return *ctx_.sim;
  }

  /// Projects a provisioned-but-inactive server into the ring and runs the
  /// full cutover/install/migrate/finish protocol. One change at a time.
  sim::Task<Status> join(std::size_t server);

  /// Withdraws an active server from the ring (graceful scale-in: the
  /// server keeps serving reads of its stale copies until cleanup). A
  /// leave that would leave fewer active servers than the codec's n is
  /// refused with kInvalidArgument before anything changes: two fragments
  /// of a key would share a server.
  sim::Task<Status> leave(std::size_t server);

  [[nodiscard]] const PlacementStats& stats() const noexcept {
    return stats_;
  }
  /// Migration's per-key work (keys scanned, fragments copied, ...).
  [[nodiscard]] const resilience::RepairStats& repair_stats() const noexcept {
    return repair_.stats();
  }

  /// Registers the placement counters, the current epoch gauge, and the
  /// embedded repair coordinator's counters into `reg`.
  void register_metrics(obs::MetricsRegistry& reg,
                        const std::string& op_label) const;

 private:
  enum class Pending : std::uint8_t { kNone, kCutover, kFinish };

  sim::Task<Status> run_change(std::size_t server, bool join);
  /// Swaps the live ring to the new active set, snapshots the old ring,
  /// bumps the view's epoch, and points the view's `prev` at the snapshot.
  /// Called from the quiesce hook.
  void apply_cutover(std::size_t server, bool join);
  /// Clears the view's `prev` — the transition is over.
  void apply_finish();
  /// Publishes `pending` and waits for the quiesce hook to apply it (the
  /// hook caps windows at one poll interval, so this resolves at the
  /// coordinator's first poll).
  sim::Task<void> await_applied(Pending pending);
  SimTime on_quiesce(SimTime min_next);

  /// Streams the current epoch to every live provisioned server; returns
  /// the number of acks (cleanup is gated on acks == live servers).
  sim::Task<std::size_t> install_epochs();
  sim::Task<void> migrate_all(bool cleanup_ok);
  sim::Task<void> migrate_locator(kv::Key key, bool cleanup_ok);
  sim::Task<void> pace();

  [[nodiscard]] net::NodeId node_of(std::size_t server) const {
    return (*ctx_.server_nodes)[server];
  }
  [[nodiscard]] const kv::HashRing& ring() const noexcept {
    return *ctx_.ring;
  }

  Cluster* cluster_;
  const ec::Codec* codec_;
  resilience::EngineContext ctx_;
  resilience::RepairCoordinator repair_;
  kv::PlacementView view_;
  kv::HashRing prev_ring_;  ///< pre-cutover snapshot (stable address)
  PlacementStats stats_;
  std::size_t paced_ = 0;   ///< keys migrated since the last pacing pause
  bool changing_ = false;

  // Quiesce-hook handshake: the coordinator coroutine publishes a pending
  // mutation, the hook applies it while every shard is parked, and the
  // coroutine polls until it lands.
  Pending pending_ = Pending::kNone;
  std::size_t pending_server_ = 0;
  bool pending_join_ = false;
  std::size_t hook_id_ = 0;
};

}  // namespace hpres::cluster
