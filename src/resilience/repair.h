// Fragment reconciler — the recovery the paper defers to future work ("we
// plan to undertake detailed recovery overhead analysis"), and the data
// mover of an elastic placement change.
//
// reconcile_key(key, from, to) puts every fragment of a key at its owner
// under `to`: a slot already there is left alone, a slot whose `from`
// owner is up and holds it is copied from there, and any other slot is
// rebuilt from the survivors the codec selects (k, or a local group under
// repair locality). Every write is an if_absent fragment put, so a client
// Set that lands first is never overwritten. Repair — a failed server
// came back empty and its keys read degraded — is reconcile_key(key,
// ring, ring); migration (cluster::PlacementManager) is reconcile_key(key,
// previous ring, live ring). Both discover keys through discover_all and
// count per-key work in one RepairStats.
#pragma once

#include <set>

#include "ec/chunker.h"
#include "ec/codec.h"
#include "ec/cost_model.h"
#include "resilience/engine.h"

namespace hpres::resilience {

struct RepairStats {
  std::uint64_t keys_scanned = 0;
  std::uint64_t keys_repaired = 0;  ///< had >= 1 fragment copied or rebuilt
  std::uint64_t fragments_copied = 0;   ///< moved from their `from` owner
  std::uint64_t bytes_copied = 0;
  std::uint64_t fragments_rebuilt = 0;
  std::uint64_t bytes_rebuilt = 0;
  std::uint64_t fragments_read = 0;     ///< survivor fragments fetched
  std::uint64_t bytes_read = 0;         ///< repair network traffic
  std::uint64_t local_repairs = 0;      ///< read fewer than k fragments
  std::uint64_t unrepairable_keys = 0;  ///< survivors cannot rebuild the key
  std::uint64_t orphaned_keys = 0;      ///< unreconstructable leftovers found
  std::uint64_t orphan_fragments_purged = 0;  ///< stray fragments deleted
  /// Discovery kScans (fragment or locator) that did not answer OK; keys
  /// held only behind a failed scan are not reconciled by that pass.
  std::uint64_t scan_failures = 0;

  /// Registers every field into `reg` under component "repair".
  void register_with(obs::MetricsRegistry& reg, std::string node,
                     std::string op = {}) const {
    const obs::MetricLabels labels{"repair", std::move(node), std::move(op)};
    reg.bind_counter("repair.keys_scanned", labels, &keys_scanned);
    reg.bind_counter("repair.keys_repaired", labels, &keys_repaired);
    reg.bind_counter("repair.fragments_copied", labels, &fragments_copied);
    reg.bind_counter("repair.bytes_copied", labels, &bytes_copied);
    reg.bind_counter("repair.fragments_rebuilt", labels, &fragments_rebuilt);
    reg.bind_counter("repair.bytes_rebuilt", labels, &bytes_rebuilt);
    reg.bind_counter("repair.fragments_read", labels, &fragments_read);
    reg.bind_counter("repair.bytes_read", labels, &bytes_read);
    reg.bind_counter("repair.local_repairs", labels, &local_repairs);
    reg.bind_counter("repair.unrepairable_keys", labels, &unrepairable_keys);
    reg.bind_counter("repair.orphaned_keys", labels, &orphaned_keys);
    reg.bind_counter("repair.orphan_fragments_purged", labels,
                     &orphan_fragments_purged);
    reg.bind_counter("repair.scan_failures", labels, &scan_failures);
  }
};

class RepairCoordinator {
 public:
  /// The codec and every EngineContext referent must outlive the
  /// coordinator.
  RepairCoordinator(EngineContext ctx, const ec::Codec& codec,
                    ec::CostModel cost)
      : ctx_(ctx), codec_(&codec), cost_(cost) {}
  RepairCoordinator(const RepairCoordinator&) = delete;
  RepairCoordinator& operator=(const RepairCoordinator&) = delete;

  [[nodiscard]] const RepairStats& stats() const noexcept { return stats_; }

  /// When enabled, a key whose surviving fragments cannot decode it and
  /// which has no staged full copy is treated as deleted: its leftover
  /// fragments are purged instead of lingering forever. These orphans arise
  /// when a Delete runs while a fragment owner is down and the owner later
  /// restarts with its store intact. Off by default — purging is only
  /// safe when no in-flight writes race the repair pass, and
  /// unrepairable-key accounting should otherwise stay non-destructive.
  void set_purge_orphans(bool on) noexcept { purge_orphans_ = on; }

  /// Adds to `*into` the base keys whose fragments a live server holds
  /// (kScan), or with `locators` the keys of its packed-stripe locator
  /// directory. Repairing every key discovered through any single live
  /// server covers all keys that server shares a fragment with. A scan
  /// that fails counts in RepairStats::scan_failures.
  sim::Task<Status> discover(std::size_t via_server_index,
                             std::set<kv::Key>* into, bool locators = false);

  /// Scans every live server in index order into `bases` and, when
  /// `locators` is non-null, its locator directory into `locators` right
  /// after. Returns the last failed scan's code (OK when none failed).
  sim::Task<Status> discover_all(std::set<kv::Key>* bases,
                                 std::set<kv::Key>* locators);

  /// Puts every fragment of `key` at its live owner under `to` (see the
  /// file comment). `*moved`, when non-null, is set to the slots now at
  /// their `to` owner whose `from` owner is another live server: that
  /// server's copy is stale, for the caller to delete. OK when nothing was
  /// missing; kTooManyFailures when the survivors cannot decode the key.
  /// Both rings must outlive the call.
  sim::Task<Status> reconcile_key(kv::Key key, const kv::HashRing& from,
                                  const kv::HashRing& to,
                                  ec::SlotMask* moved = nullptr);

  /// Discovers via every live server and reconciles every key found
  /// under the live ring.
  /// Returns the last failure among the scans and the key repairs, so a
  /// server that never answered its scan does not pass as repaired.
  sim::Task<Status> repair_all();

 private:
  /// Repairs run sequentially, so one reserved lane per coordinator node
  /// suffices (the top lane, unreachable by engine op allocation under any
  /// realistic ARPE window).
  [[nodiscard]] std::uint64_t trace_tid() const noexcept {
    return static_cast<std::uint64_t>(ctx_.client->id()) *
               obs::Tracer::kLanesPerNode +
           (obs::Tracer::kLanesPerNode - 1);
  }

  [[nodiscard]] net::NodeId node(std::size_t server) const {
    return (*ctx_.server_nodes)[server];
  }

  /// Closes one reconcile_key phase that began at `t0`: a `name` span on
  /// the coordinator's lane under `trace` (when `tr` is live) and a
  /// kRepairPhase flight record carrying the phase's duration and `code`
  /// (0 probe, 1 fetch, 2 reconstruct, 3 replace).
  void record_phase(obs::Tracer* tr, const obs::TraceContext& trace,
                    std::string_view name, std::uint8_t code, SimTime t0);

  /// Deletes the surviving fragments of an unreconstructable key (see
  /// set_purge_orphans). Skips the purge when the stager still holds a
  /// staged full copy of the key — that copy can re-create the fragments.
  /// `place` is the key's placement.
  sim::Task<void> purge_orphan(kv::Key key, kv::Placement place,
                               ec::SlotMask present);

  EngineContext ctx_;
  const ec::Codec* codec_;
  ec::CostModel cost_;
  RepairStats stats_;
  bool purge_orphans_ = false;
};

}  // namespace hpres::resilience
