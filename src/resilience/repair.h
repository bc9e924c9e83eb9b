// Fragment repair coordinator — the recovery machinery the paper defers to
// future work ("we plan to undertake detailed recovery overhead analysis").
//
// When a failed server comes back empty (or a replacement takes its node
// id), every key keeps working in degraded mode, but each degraded Get
// pays T_decode and one fewer failure is now tolerable. The coordinator
// restores full redundancy: it discovers affected keys by scanning a live
// peer's fragment index, fetches the surviving fragments the codec selects
// per key (k, or a local group under repair locality), rebuilds the missing
// ones with the real codec, and re-places them on their designated owners.
#pragma once

#include "ec/chunker.h"
#include "ec/codec.h"
#include "ec/cost_model.h"
#include "resilience/engine.h"

namespace hpres::resilience {

struct RepairStats {
  std::uint64_t keys_scanned = 0;
  std::uint64_t keys_repaired = 0;      ///< had at least one fragment rebuilt
  std::uint64_t fragments_rebuilt = 0;
  std::uint64_t bytes_rebuilt = 0;
  std::uint64_t fragments_read = 0;     ///< survivor fragments fetched
  std::uint64_t bytes_read = 0;         ///< repair network traffic
  std::uint64_t local_repairs = 0;      ///< read fewer than k fragments
  std::uint64_t unrepairable_keys = 0;  ///< survivors cannot rebuild the key
  std::uint64_t orphaned_keys = 0;      ///< unreconstructable leftovers found
  std::uint64_t orphan_fragments_purged = 0;  ///< stray fragments deleted
  std::uint64_t scan_failures = 0;  ///< kScan RPCs that did not answer OK

  /// Registers every field into `reg` under component "repair".
  void register_with(obs::MetricsRegistry& reg, std::string node,
                     std::string op = {}) const {
    const obs::MetricLabels labels{"repair", std::move(node), std::move(op)};
    reg.bind_counter("repair.keys_scanned", labels, &keys_scanned);
    reg.bind_counter("repair.keys_repaired", labels, &keys_repaired);
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

  /// Enumerates the base keys whose fragments a live server holds
  /// (kScan). Repairing every key discovered through any single live
  /// server covers all keys that server shares a fragment with. A scan
  /// that fails counts in RepairStats::scan_failures.
  sim::Task<Result<std::vector<kv::Key>>> discover(
      std::size_t via_server_index);

  /// Restores every missing fragment of `key` whose designated owner is
  /// alive. No-op (OK) when the key is fully intact; kTooManyFailures when
  /// the surviving fragments cannot decode it.
  sim::Task<Status> repair_key(kv::Key key);

  /// Discovers via every live server and repairs every affected key.
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

  /// Closes one repair_key phase that began at `t0`: a `name` span on the
  /// coordinator's lane under `trace` (when `tr` is live) and a
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
