#include "resilience/repair.h"

#include <bit>

namespace hpres::resilience {

sim::Task<Status> RepairCoordinator::discover(std::size_t via_server_index,
                                              std::set<kv::Key>* into,
                                              bool locators) {
  if (!ctx_.membership->up(via_server_index)) {
    co_return Status{StatusCode::kUnavailable, "scan target is down"};
  }
  const kv::Response resp = co_await ctx_.client->invoke(
      node(via_server_index), kv::scan_request(locators));
  if (resp.code != StatusCode::kOk) {
    ++stats_.scan_failures;
    co_return Status{resp.code};
  }
  into->insert(resp.keys.begin(), resp.keys.end());
  co_return Status::Ok();
}

sim::Task<Status> RepairCoordinator::discover_all(
    std::set<kv::Key>* bases, std::set<kv::Key>* locators) {
  StatusCode worst = StatusCode::kOk;
  for (std::size_t s = 0; s < ctx_.membership->size(); ++s) {
    if (!ctx_.membership->up(s)) continue;
    const Status found = co_await discover(s, bases);
    if (!found.ok()) worst = found.code();
    if (locators == nullptr) continue;
    const Status dir = co_await discover(s, locators, true);
    if (!dir.ok()) worst = dir.code();
  }
  co_return Status{worst};
}

void RepairCoordinator::record_phase(obs::Tracer* tr,
                                     const obs::TraceContext& trace,
                                     std::string_view name,
                                     std::uint8_t code, SimTime t0) {
  const SimTime now = ctx_.sim->now();
  if (tr != nullptr) {
    tr->complete(ctx_.trace_pid, trace_tid(), name, "repair", t0, now - t0,
                 trace.trace_id);
  }
  if (ctx_.flight != nullptr) {
    ctx_.flight->record(now, ctx_.client->id(),
                        obs::FlightEventType::kRepairPhase,
                        static_cast<std::uint64_t>(now - t0), 0, code);
  }
}

sim::Task<Status> RepairCoordinator::reconcile_key(kv::Key key,
                                                   const kv::HashRing& from,
                                                   const kv::HashRing& to,
                                                   ec::SlotMask* moved) {
  ++stats_.keys_scanned;
  const std::size_t n = codec_->n();
  obs::Tracer* const tr = ctx_.live_tracer();
  // Each key's reconcile is one causal trace: the probe/copy/fetch/replace
  // RPCs and their server handling carry it, so a repair storm is
  // attributable in the trace viewer just like a client op.
  const obs::TraceContext rtrace{tr != nullptr ? tr->new_trace_id() : 0,
                                 trace_tid(), 0};

  // Phase 1 — presence probe at every live `to` owner: head-only Gets, no
  // fragment payloads move.
  kv::Placement place = to.place(key);
  ec::SlotMask owner_alive = 0;
  ec::SlotMask present = 0;
  std::optional<kv::ChunkInfo> meta;
  const SimTime probe_t0 = ctx_.sim->now();
  {
    std::vector<sim::Future<kv::Response>> pending(n);
    for (std::size_t slot = 0; slot < n; ++slot) {
      const std::size_t owner = place.owner(slot);
      if (!ctx_.membership->up(owner)) continue;
      owner_alive |= ec::slot_bit(slot);
      kv::Request req = kv::fragment_request(kv::Verb::kGet, key, slot);
      req.head_only = true;
      req.trace = rtrace;
      pending[slot] = ctx_.client->call_async(node(owner), std::move(req));
    }
    for (std::size_t slot = 0; slot < n; ++slot) {
      if (!pending[slot].valid()) continue;
      const kv::Response resp = co_await pending[slot].wait();
      if (resp.code != StatusCode::kOk) continue;
      present |= ec::slot_bit(slot);
      if (resp.chunk) meta = resp.chunk;
    }
  }
  record_phase(tr, rtrace, "repair/probe", 0, probe_t0);

  // Phase 1b — copy: a missing slot whose `from` owner is another live
  // server comes from that owner while it still holds the fragment. This
  // is the one place a slot is chosen for copy rather than rebuild; under
  // one ring (`from` == `to`) no slot qualifies.
  kv::Placement from_place = from.place(key);
  ec::SlotMask relocated = 0;
  std::size_t copies = 0;
  for (std::size_t slot = 0; slot < n; ++slot) {
    const std::size_t source = from_place.owner(slot);
    if (source == place.owner(slot) || !ctx_.membership->up(source)) continue;
    relocated |= ec::slot_bit(slot);
    if (!ec::has_slot(owner_alive & ~present, slot)) continue;
    kv::Request get = kv::fragment_request(kv::Verb::kGet, key, slot);
    get.trace = rtrace;
    const kv::Response got =
        co_await ctx_.client->invoke(node(source), std::move(get));
    if (got.code != StatusCode::kOk || !got.value || !got.chunk) continue;
    kv::Request put =
        kv::fragment_put(key, slot, got.value, got.chunk->original_size);
    put.if_absent = true;
    put.trace = rtrace;
    const kv::Response ack =
        co_await ctx_.client->invoke(node(place.owner(slot)), std::move(put));
    if (ack.code != StatusCode::kOk) continue;
    present |= ec::slot_bit(slot);
    meta = got.chunk;
    ++copies;
    ++stats_.fragments_copied;
    stats_.bytes_copied += got.value->size();
  }
  if (moved != nullptr) *moved = relocated & present;

  const ec::SlotMask rebuild = owner_alive & ~present;
  const auto rebuilt_count = static_cast<std::size_t>(std::popcount(rebuild));
  // Phase 2 — choose the fetch set: the codec names the survivors that
  // produce every lost slot (a local group under repair locality, else k).
  // An undecodable pattern is unrepairable even with rebuild empty.
  const Result<ec::ReadSet> selected = codec_->select(rebuild, present);
  if (!selected.ok() || !meta) {
    ++stats_.unrepairable_keys;
    if (purge_orphans_ && present != 0) {
      co_await purge_orphan(std::move(key), place, present);
    }
    co_return Status{StatusCode::kTooManyFailures,
                     "surviving fragments cannot rebuild the key"};
  }
  if (rebuild == 0) {
    if (copies != 0) ++stats_.keys_repaired;
    co_return Status::Ok();
  }
  const ec::ReadSet& fetch = *selected;

  const std::size_t value_size = meta->original_size;
  const ec::ChunkLayout layout =
      ec::make_layout(value_size, codec_->k(), codec_->alignment());

  std::vector<SharedBytes> fetched(n);
  const SimTime fetch_t0 = ctx_.sim->now();
  {
    std::vector<sim::Future<kv::Response>> pending;
    pending.reserve(fetch.size());
    for (const std::size_t slot : fetch) {
      kv::Request req = kv::fragment_request(kv::Verb::kGet, key, slot);
      req.trace = rtrace;
      pending.push_back(
          ctx_.client->call_async(node(place.owner(slot)), std::move(req)));
    }
    for (std::size_t i = 0; i < fetch.size(); ++i) {
      kv::Response resp = co_await pending[i].wait();
      if (resp.code != StatusCode::kOk) {
        co_return Status{StatusCode::kInternal,
                         "fragment vanished between probe and fetch"};
      }
      fetched[fetch[i]] = std::move(resp.value);
    }
    stats_.fragments_read += fetch.size();
    stats_.bytes_read += fetch.size() * layout.fragment_size;
  }
  record_phase(tr, rtrace, "repair/fetch", 1, fetch_t0);

  // Phase 3 — rebuild. Compute cost scales with the bytes actually read
  // (the locality saving the paper's future work is after).
  const SimDur reconstruct_ns = cost_.decode_ns(
      fetch.size() * layout.fragment_size,
      static_cast<unsigned>(rebuilt_count));
  co_await ctx_.client->cpu().execute(reconstruct_ns);
  record_phase(tr, rtrace, "repair/reconstruct", 2,
               ctx_.sim->now() - reconstruct_ns);

  const Result<ec::Fragments> rebuilt =
      ec::rebuild_fragments(*codec_, fetched, fetch, rebuild,
                            layout.fragment_size, ctx_.materialize);
  if (!rebuilt.ok()) co_return rebuilt.status();

  // Phase 4 — re-place rebuilt fragments on their designated owners. A
  // client Set that landed after the probe is newer than these bytes, so
  // the put only fills an absent slot.
  const SimTime replace_t0 = ctx_.sim->now();
  std::vector<sim::Future<kv::Response>> writes;
  writes.reserve(rebuilt_count);
  for (std::size_t slot = 0; slot < n; ++slot) {
    if (!ec::has_slot(rebuild, slot)) continue;
    kv::Request req =
        kv::fragment_put(key, slot, (*rebuilt)[slot], value_size);
    req.if_absent = true;
    req.trace = rtrace;
    writes.push_back(
        ctx_.client->call_async(node(place.owner(slot)), std::move(req)));
  }
  StatusCode worst = StatusCode::kOk;
  for (const auto& f : writes) {
    const kv::Response resp = co_await f.wait();
    if (resp.code != StatusCode::kOk) worst = resp.code;
  }
  record_phase(tr, rtrace, "repair/replace", 3, replace_t0);
  if (worst == StatusCode::kOk) {
    ++stats_.keys_repaired;
    if (fetch.size() < codec_->k()) ++stats_.local_repairs;
    stats_.fragments_rebuilt += rebuilt_count;
    stats_.bytes_rebuilt += rebuilt_count * layout.fragment_size;
  }
  co_return Status{worst};
}

sim::Task<void> RepairCoordinator::purge_orphan(kv::Key key,
                                                kv::Placement place,
                                                ec::SlotMask present) {
  const std::size_t n = codec_->n();
  // A staged full copy on any live owner means the key can still be
  // re-distributed (server-side encode mid-flight): leave it alone.
  for (std::size_t slot = 0; slot < n; ++slot) {
    const std::size_t owner = place.owner(slot);
    if (!ctx_.membership->up(owner)) continue;
    kv::Request probe;
    probe.verb = kv::Verb::kGet;
    probe.key = key;
    probe.head_only = true;
    const kv::Response resp =
        co_await ctx_.client->invoke(node(owner), std::move(probe));
    if (resp.code == StatusCode::kOk) co_return;
    break;  // one stager probe suffices; the stager is the first live owner
  }
  ++stats_.orphaned_keys;
  std::vector<sim::Future<kv::Response>> deletes;
  deletes.reserve(n);
  for (std::size_t slot = 0; slot < n; ++slot) {
    if (!ec::has_slot(present, slot)) continue;
    deletes.push_back(ctx_.client->call_async(
        node(place.owner(slot)),
        kv::fragment_request(kv::Verb::kDelete, key, slot)));
  }
  for (const auto& f : deletes) {
    const kv::Response resp = co_await f.wait();
    if (resp.code == StatusCode::kOk) ++stats_.orphan_fragments_purged;
  }
}

sim::Task<Status> RepairCoordinator::repair_all() {
  std::set<kv::Key> keys;
  StatusCode worst = (co_await discover_all(&keys, nullptr)).code();
  for (const kv::Key& key : keys) {
    const Status s = co_await reconcile_key(key, *ctx_.ring, *ctx_.ring);
    if (!s.ok()) worst = s.code();
  }
  co_return Status{worst};
}

}  // namespace hpres::resilience
