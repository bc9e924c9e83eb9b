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
//   3. Migrate — a scan-driven pass (reusing RepairCoordinator discovery)
//      copies every fragment whose owner changed from its old position to
//      its new one with if_absent semantics, falls back to erasure rebuild
//      when an old owner is gone, and re-homes packed-stripe locator
//      directory entries. Copies are paced so foreground traffic keeps
//      its latency envelope.
//   4. Finish — the transition flag drops and (epoch acks permitting) the
//      stale copies at old positions are deleted.
//
// Between cutover and finish the engines' placement hooks keep every
// acked value readable: Get misses retry under the pre-cutover ring
// (old positions are not cleaned until finish), Deletes dual-issue, and
// bounced Sets retry under the new ring. See DESIGN.md for the invariant
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
  std::uint64_t keys_scanned = 0;      ///< keys examined by migration passes
  std::uint64_t keys_moved = 0;        ///< keys with >= 1 fragment relocated
  std::uint64_t fragments_moved = 0;   ///< fragments copied old -> new owner
  std::uint64_t fragments_rebuilt = 0; ///< fragments recreated via repair
  std::uint64_t moved_bytes = 0;       ///< fragment payload bytes copied
  std::uint64_t locators_moved = 0;    ///< stripe locator entries re-homed
  std::uint64_t cleanup_deletes = 0;   ///< stale copies removed at finish

  /// Registers every field into `reg` under component "placement".
  void register_with(obs::MetricsRegistry& reg, std::string node,
                     std::string op = {}) const {
    const obs::MetricLabels labels{"placement", std::move(node),
                                   std::move(op)};
    reg.bind_counter("placement.changes", labels, &changes);
    reg.bind_counter("placement.epoch_acks", labels, &epoch_acks);
    reg.bind_counter("placement.keys_scanned", labels, &keys_scanned);
    reg.bind_counter("placement.keys_moved", labels, &keys_moved);
    reg.bind_counter("placement.fragments_moved", labels, &fragments_moved);
    reg.bind_counter("placement.fragments_rebuilt", labels,
                     &fragments_rebuilt);
    reg.bind_counter("placement.moved_bytes", labels, &moved_bytes);
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

  /// The versioned view engines and clients attach to
  /// (Cluster::set_placement_view / Engine::attach_placement). Stable
  /// address for the manager's lifetime.
  [[nodiscard]] const kv::PlacementView* view() const noexcept {
    return &view_;
  }

  /// The pre-cutover ring, valid while a transition is in flight (engines
  /// resolve read fallbacks against it). Stable address.
  [[nodiscard]] const kv::HashRing& prev_ring() const noexcept {
    return prev_ring_;
  }

  [[nodiscard]] std::uint64_t epoch() const noexcept { return view_.epoch; }
  [[nodiscard]] bool in_transition() const noexcept {
    return view_.in_transition;
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
  /// bumps the view's epoch, and raises in_transition. Called from the
  /// quiesce hook.
  void apply_cutover(std::size_t server, bool join);
  /// Drops in_transition — the transition is over.
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
  sim::Task<void> migrate_key(kv::Key key, bool cleanup_ok);
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
