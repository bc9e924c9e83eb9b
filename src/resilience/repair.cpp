#include "resilience/repair.h"

#include <bit>
#include <set>

namespace hpres::resilience {

sim::Task<Result<std::vector<kv::Key>>> RepairCoordinator::discover(
    std::size_t via_server_index) {
  if (!ctx_.membership->up(via_server_index)) {
    co_return Status{StatusCode::kUnavailable, "scan target is down"};
  }
  kv::Request req;
  req.verb = kv::Verb::kScan;
  const kv::Response resp = co_await ctx_.client->invoke(
      (*ctx_.server_nodes)[via_server_index], std::move(req));
  if (resp.code != StatusCode::kOk) {
    ++stats_.scan_failures;
    co_return Status{resp.code};
  }
  co_return resp.keys;
}

sim::Task<Status> RepairCoordinator::repair_key(kv::Key key) {
  ++stats_.keys_scanned;
  const std::size_t k = codec_->k();
  const std::size_t n = codec_->n();
  obs::Tracer* const tr = ctx_.live_tracer();
  // Each key's repair is one causal trace: the probe/fetch/replace RPCs and
  // their server handling carry it, so a repair storm is attributable in
  // the trace viewer just like a client op.
  const obs::TraceContext rtrace{tr != nullptr ? tr->new_trace_id() : 0,
                                 trace_tid(), 0};

  // Phase 1 — presence probe: head-only Gets, no fragment payloads move.
  kv::Placement place = ctx_.ring->place(key);
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
      kv::Request req;
      req.verb = kv::Verb::kGet;
      req.key = kv::chunk_key(key, slot);
      req.head_only = true;
      req.trace = rtrace;
      pending[slot] = ctx_.client->call_async((*ctx_.server_nodes)[owner],
                                              std::move(req));
    }
    for (std::size_t slot = 0; slot < n; ++slot) {
      if (!pending[slot].valid()) continue;
      const kv::Response resp = co_await pending[slot].wait();
      if (resp.code != StatusCode::kOk) continue;
      present |= ec::slot_bit(slot);
      if (resp.chunk) meta = resp.chunk;
    }
  }
  if (tr != nullptr) {
    tr->complete(ctx_.trace_pid, trace_tid(), "repair/probe", "repair",
                 probe_t0, ctx_.sim->now() - probe_t0, rtrace.trace_id);
  }
  if (ctx_.flight != nullptr) {
    ctx_.flight->record(
        ctx_.sim->now(), ctx_.client->id(), obs::FlightEventType::kRepairPhase,
        static_cast<std::uint64_t>(ctx_.sim->now() - probe_t0), 0,
        /*code=*/0);
  }
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
  if (rebuild == 0) co_return Status::Ok();
  const ec::ReadSet& fetch = *selected;

  const std::size_t value_size = meta->original_size;
  const ec::ChunkLayout layout =
      ec::make_layout(value_size, k, codec_->alignment());

  std::vector<SharedBytes> fetched(n);
  const SimTime fetch_t0 = ctx_.sim->now();
  {
    std::vector<sim::Future<kv::Response>> pending;
    pending.reserve(fetch.size());
    for (const std::size_t slot : fetch) {
      kv::Request req;
      req.verb = kv::Verb::kGet;
      req.key = kv::chunk_key(key, slot);
      req.trace = rtrace;
      const std::size_t owner = place.owner(slot);
      pending.push_back(ctx_.client->call_async((*ctx_.server_nodes)[owner],
                                                std::move(req)));
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
  if (tr != nullptr) {
    tr->complete(ctx_.trace_pid, trace_tid(), "repair/fetch", "repair",
                 fetch_t0, ctx_.sim->now() - fetch_t0, rtrace.trace_id);
  }
  if (ctx_.flight != nullptr) {
    ctx_.flight->record(
        ctx_.sim->now(), ctx_.client->id(), obs::FlightEventType::kRepairPhase,
        static_cast<std::uint64_t>(ctx_.sim->now() - fetch_t0), 0,
        /*code=*/1);
  }

  // Phase 3 — rebuild. Compute cost scales with the bytes actually read
  // (the locality saving the paper's future work is after).
  const SimDur reconstruct_ns = cost_.decode_ns(
      fetch.size() * layout.fragment_size,
      static_cast<unsigned>(rebuilt_count));
  co_await ctx_.client->cpu().execute(reconstruct_ns);
  if (tr != nullptr) {
    tr->complete(ctx_.trace_pid, trace_tid(), "repair/reconstruct", "repair",
                 ctx_.sim->now() - reconstruct_ns, reconstruct_ns,
                 rtrace.trace_id);
  }
  if (ctx_.flight != nullptr) {
    ctx_.flight->record(
        ctx_.sim->now(), ctx_.client->id(), obs::FlightEventType::kRepairPhase,
        static_cast<std::uint64_t>(reconstruct_ns), 0, /*code=*/2);
  }

  const Result<std::vector<SharedBytes>> rebuilt =
      ec::rebuild_fragments(*codec_, fetched, fetch, rebuild,
                            layout.fragment_size, ctx_.materialize, scratch_);
  if (!rebuilt.ok()) co_return rebuilt.status();

  // Phase 4 — re-place rebuilt fragments on their designated owners.
  const SimTime replace_t0 = ctx_.sim->now();
  std::vector<sim::Future<kv::Response>> writes;
  writes.reserve(rebuilt_count);
  for (std::size_t slot = 0; slot < n; ++slot) {
    if (!ec::has_slot(rebuild, slot)) continue;
    kv::Request req = kv::fragment_put(key, slot, (*rebuilt)[slot],
                                       value_size, k, codec_->m());
    req.trace = rtrace;
    const std::size_t owner = place.owner(slot);
    writes.push_back(
        ctx_.client->call_async((*ctx_.server_nodes)[owner], std::move(req)));
  }
  StatusCode worst = StatusCode::kOk;
  for (const auto& f : writes) {
    const kv::Response resp = co_await f.wait();
    if (resp.code != StatusCode::kOk) worst = resp.code;
  }
  if (tr != nullptr) {
    tr->complete(ctx_.trace_pid, trace_tid(), "repair/replace", "repair",
                 replace_t0, ctx_.sim->now() - replace_t0, rtrace.trace_id);
  }
  if (ctx_.flight != nullptr) {
    ctx_.flight->record(
        ctx_.sim->now(), ctx_.client->id(), obs::FlightEventType::kRepairPhase,
        static_cast<std::uint64_t>(ctx_.sim->now() - replace_t0), 0,
        /*code=*/3);
  }
  if (worst == StatusCode::kOk) {
    ++stats_.keys_repaired;
    if (fetch.size() < k) ++stats_.local_repairs;
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
    const kv::Response resp = co_await ctx_.client->invoke(
        (*ctx_.server_nodes)[owner], std::move(probe));
    if (resp.code == StatusCode::kOk) co_return;
    break;  // one stager probe suffices; the stager is the first live owner
  }
  ++stats_.orphaned_keys;
  std::vector<sim::Future<kv::Response>> deletes;
  deletes.reserve(n);
  for (std::size_t slot = 0; slot < n; ++slot) {
    if (!ec::has_slot(present, slot)) continue;
    kv::Request req;
    req.verb = kv::Verb::kDelete;
    req.key = kv::chunk_key(key, slot);
    const std::size_t owner = place.owner(slot);
    deletes.push_back(
        ctx_.client->call_async((*ctx_.server_nodes)[owner], std::move(req)));
  }
  for (const auto& f : deletes) {
    const kv::Response resp = co_await f.wait();
    if (resp.code == StatusCode::kOk) ++stats_.orphan_fragments_purged;
  }
}

sim::Task<Status> RepairCoordinator::repair_all() {
  std::set<kv::Key> keys;
  StatusCode worst = StatusCode::kOk;
  for (std::size_t s = 0; s < ctx_.membership->size(); ++s) {
    if (!ctx_.membership->up(s)) continue;
    Result<std::vector<kv::Key>> found = co_await discover(s);
    if (!found.ok()) {
      worst = found.status().code();
      continue;
    }
    keys.insert(found->begin(), found->end());
  }
  for (const kv::Key& key : keys) {
    const Status s = co_await repair_key(key);
    if (!s.ok()) worst = s.code();
  }
  co_return Status{worst};
}

}  // namespace hpres::resilience
