#include "cluster/placement.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <set>
#include <utility>
#include <vector>

namespace hpres::cluster {

namespace {

/// Keys migrated between pacing pauses. Smaller batches spread the
/// migration traffic thinner under foreground load.
constexpr std::size_t kMigrateBatch = 8;
/// Pause inserted after each batch (simulated time).
constexpr SimDur kBatchPauseNs = 20'000;
/// Poll interval while waiting for the quiesce hook to apply a pending
/// cutover/finish. The hook also caps every runtime window at this
/// length, so a published mutation lands before the next poll.
constexpr SimDur kPollNs = 2'000;

}  // namespace

PlacementManager::PlacementManager(Cluster& cluster, const ec::Codec& codec,
                                   ec::CostModel cost,
                                   resilience::EngineContext ctx)
    : cluster_(&cluster),
      codec_(&codec),
      ctx_(ctx),
      repair_(ctx, codec, cost),
      prev_ring_(cluster.ring()) {
  assert(ctx_.sim != nullptr && ctx_.client != nullptr &&
         ctx_.ring == &cluster.ring() &&
         "coordinator context must reference the cluster's live ring");
  view_.epoch = cluster.ring().epoch();
  // Ring/view mutations are read lock-free by every shard, so they apply
  // from a quiesce hook while all shards are parked.
  hook_id_ = cluster.runtime().add_quiesce_hook(
      [this](SimTime min_next) { return on_quiesce(min_next); });
}

PlacementManager::~PlacementManager() {
  cluster_->runtime().remove_quiesce_hook(hook_id_);
}

void PlacementManager::register_metrics(obs::MetricsRegistry& reg,
                                        const std::string& op_label) const {
  stats_.register_with(reg, "coordinator", op_label);
  const obs::MetricLabels labels{"placement", "coordinator", op_label};
  reg.bind_gauge("placement.epoch", labels, &view_.epoch);
  repair_.stats().register_with(reg, "coordinator", op_label);
}

sim::Task<Status> PlacementManager::join(std::size_t server) {
  return run_change(server, true);
}

sim::Task<Status> PlacementManager::leave(std::size_t server) {
  return run_change(server, false);
}

sim::Task<Status> PlacementManager::run_change(std::size_t server,
                                               bool join) {
  assert(!changing_ && "one placement change at a time");
  // Below n active servers slot_index wraps and one server would hold two
  // fragments of a key. No mutation is pending between changes, so the
  // live ring is stable to read here.
  if (!join && ring().num_active() <= codec_->n()) {
    co_return Status{StatusCode::kInvalidArgument,
                     "leave would shrink the ring below the codec width"};
  }
  changing_ = true;
  obs::Tracer* const tr = ctx_.live_tracer();
  // One reserved lane below the repair coordinator's: placement changes
  // run sequentially, and engine op lanes never reach this high.
  const std::uint64_t tid =
      static_cast<std::uint64_t>(ctx_.client->id()) *
          obs::Tracer::kLanesPerNode +
      (obs::Tracer::kLanesPerNode - 2);
  const std::uint64_t trace_id = tr != nullptr ? tr->new_trace_id() : 0;
  const SimTime t0 = ctx_.sim->now();

  // Phase 1 — cutover: swap the live ring and bump the epoch.
  pending_server_ = server;
  pending_join_ = join;
  co_await await_applied(Pending::kCutover);

  // Phase 2 — stream the new epoch to every live server. From each ack on,
  // that server bounces writes still stamped with the old epoch.
  const SimTime install_t0 = ctx_.sim->now();
  const std::size_t acks = co_await install_epochs();
  std::size_t live = 0;
  for (std::size_t s = 0; s < ctx_.membership->size(); ++s) {
    if (ctx_.membership->up(s)) ++live;
  }
  if (tr != nullptr) {
    tr->complete(ctx_.trace_pid, tid, "placement/install", "placement",
                 install_t0, ctx_.sim->now() - install_t0, trace_id);
  }

  // Phase 3 — migrate. Destructive cleanup only when every live server
  // acked the epoch: until then an old-epoch write could still land at an
  // old position after we deleted it, losing the bounce-and-retry story.
  const SimTime migrate_t0 = ctx_.sim->now();
  co_await migrate_all(acks == live);
  if (tr != nullptr) {
    tr->complete(ctx_.trace_pid, tid, "placement/migrate", "placement",
                 migrate_t0, ctx_.sim->now() - migrate_t0, trace_id);
  }

  // Phase 4 — finish: drop the transition flag (and with it the engines'
  // prev-ring fallback path).
  co_await await_applied(Pending::kFinish);
  ++stats_.changes;
  if (tr != nullptr) {
    tr->complete(ctx_.trace_pid, tid, join ? "placement/join"
                                           : "placement/leave",
                 "placement", t0, ctx_.sim->now() - t0, trace_id);
  }
  changing_ = false;
  co_return Status::Ok();
}

void PlacementManager::apply_cutover(std::size_t server, bool join) {
  prev_ring_ = cluster_->ring();
  kv::HashRing& live = cluster_->mutable_ring();
  if (join) {
    live.add_server(server);
  } else {
    live.remove_server(server);
  }
  view_.epoch = live.epoch();
  view_.in_transition = true;
}

void PlacementManager::apply_finish() {
  view_.in_transition = false;
}

sim::Task<void> PlacementManager::await_applied(Pending pending) {
  pending_ = pending;
  while (pending_ != Pending::kNone) {
    co_await ctx_.sim->delay(kPollNs);
  }
}

SimTime PlacementManager::on_quiesce(SimTime min_next) {
  // Flag flips and ring rebuilds only — no events are scheduled here.
  switch (pending_) {
    case Pending::kNone:
      break;
    case Pending::kCutover:
      apply_cutover(pending_server_, pending_join_);
      pending_ = Pending::kNone;
      break;
    case Pending::kFinish:
      apply_finish();
      pending_ = Pending::kNone;
      break;
  }
  // A change can start mid-window, and with one shard nothing else bounds
  // a window. Capping every window at one poll interval means a mutation
  // published mid-window is applied before the coordinator's next poll
  // event runs, at any shard count.
  return min_next == sim::Simulator::kNever ? sim::Simulator::kNever
                                            : min_next + kPollNs;
}

sim::Task<std::size_t> PlacementManager::install_epochs() {
  std::vector<sim::Future<kv::Response>> pending;
  pending.reserve(ctx_.membership->size());
  for (std::size_t s = 0; s < ctx_.membership->size(); ++s) {
    if (!ctx_.membership->up(s)) continue;
    kv::Request req;
    req.verb = kv::Verb::kPlacementEpoch;
    req.epoch = view_.epoch;
    pending.push_back(ctx_.client->call_async(node_of(s), std::move(req)));
  }
  std::size_t acks = 0;
  for (const auto& f : pending) {
    const kv::Response resp = co_await f.wait();
    if (resp.code == StatusCode::kOk && resp.epoch >= view_.epoch) ++acks;
  }
  stats_.epoch_acks += acks;
  co_return acks;
}

sim::Task<void> PlacementManager::migrate_all(bool cleanup_ok) {
  // Discovery rides the repair coordinator's scan (fragment base keys,
  // including packed-stripe bases) plus the locator-directory walk. Both
  // sets are deduped and ordered, so the pass is deterministic.
  std::set<kv::Key> bases;
  std::set<kv::Key> locators;
  for (std::size_t s = 0; s < ctx_.membership->size(); ++s) {
    if (!ctx_.membership->up(s)) continue;
    Result<std::vector<kv::Key>> found = co_await repair_.discover(s);
    if (found.ok()) bases.insert(found->begin(), found->end());
    kv::Request req;
    req.verb = kv::Verb::kScan;
    req.stripe_lookup = true;
    const kv::Response resp =
        co_await ctx_.client->invoke(node_of(s), std::move(req));
    if (resp.code == StatusCode::kOk) {
      locators.insert(resp.keys.begin(), resp.keys.end());
    }
  }
  paced_ = 0;
  for (const kv::Key& key : bases) {
    co_await migrate_key(key, cleanup_ok);
  }
  for (const kv::Key& key : locators) {
    co_await migrate_locator(key, cleanup_ok);
  }
}

sim::Task<void> PlacementManager::migrate_key(kv::Key key, bool cleanup_ok) {
  ++stats_.keys_scanned;
  const std::size_t n = codec_->n();
  bool moved_any = false;
  bool need_repair = false;
  // (slot, old owner) pairs whose copy landed — cleanup targets.
  std::vector<std::pair<std::size_t, std::size_t>> copied;
  for (std::size_t slot = 0; slot < n; ++slot) {
    const std::size_t old_owner = prev_ring_.slot_index(key, slot);
    const std::size_t new_owner = ring().slot_index(key, slot);
    if (old_owner == new_owner) continue;
    if (!ctx_.membership->up(old_owner)) {
      need_repair = true;  // old copy unreachable: rebuild below
      continue;
    }
    kv::Request fetch;
    fetch.verb = kv::Verb::kGet;
    fetch.key = kv::chunk_key(key, slot);
    kv::Response got =
        co_await ctx_.client->invoke(node_of(old_owner), std::move(fetch));
    if (got.code != StatusCode::kOk || !got.value) {
      need_repair = true;
      continue;
    }
    // if_absent: a concurrent client write under the new epoch already
    // placed fresher bytes here — the stale copy must never clobber it.
    kv::Request put;
    put.verb = kv::Verb::kSet;
    put.key = kv::chunk_key(key, slot);
    put.value = got.value;
    put.chunk = got.chunk;
    put.if_absent = true;
    const kv::Response ack =
        co_await ctx_.client->invoke(node_of(new_owner), std::move(put));
    if (ack.code != StatusCode::kOk) {
      need_repair = true;
      continue;
    }
    ++stats_.fragments_moved;
    stats_.moved_bytes += got.value->size();
    moved_any = true;
    copied.emplace_back(slot, old_owner);
  }
  if (need_repair) {
    // The copies above are durable at their new positions, so the repair
    // probe (which resolves under the live ring) sees them; only the
    // fragments whose old owner is gone get rebuilt from survivors.
    const std::uint64_t before = repair_.stats().fragments_rebuilt;
    co_await repair_.repair_key(key);
    stats_.fragments_rebuilt += repair_.stats().fragments_rebuilt - before;
    moved_any = true;
  }
  if (moved_any) ++stats_.keys_moved;
  if (cleanup_ok) {
    for (const auto& [slot, old_owner] : copied) {
      kv::Request del;
      del.verb = kv::Verb::kDelete;
      del.key = kv::chunk_key(key, slot);
      const kv::Response resp =
          co_await ctx_.client->invoke(node_of(old_owner), std::move(del));
      if (resp.code == StatusCode::kOk) ++stats_.cleanup_deletes;
    }
  }
  co_await pace();
}

sim::Task<void> PlacementManager::migrate_locator(kv::Key key,
                                                  bool cleanup_ok) {
  // Locator directory entries replicate on the first m+1 dir owners; the
  // sets under the two rings usually overlap, so only the difference moves.
  const std::size_t copies = codec_->m() + 1;
  std::vector<std::size_t> old_owners;
  std::vector<std::size_t> new_owners;
  old_owners.reserve(copies);
  new_owners.reserve(copies);
  for (std::size_t j = 0; j < copies; ++j) {
    old_owners.push_back(prev_ring_.slot_index(key, j));
    new_owners.push_back(ring().slot_index(key, j));
  }
  const auto contains = [](const std::vector<std::size_t>& v, std::size_t s) {
    return std::find(v.begin(), v.end(), s) != v.end();
  };
  bool changed = false;
  for (const std::size_t s : new_owners) {
    if (!contains(old_owners, s)) changed = true;
  }
  if (!changed) co_return;
  ++stats_.keys_scanned;
  // Any old dir owner still holding the locator can source it.
  std::optional<kv::StripeLoc> loc;
  for (const std::size_t s : old_owners) {
    if (!ctx_.membership->up(s)) continue;
    kv::Request req;
    req.verb = kv::Verb::kGet;
    req.key = key;
    req.stripe_lookup = true;
    const kv::Response resp =
        co_await ctx_.client->invoke(node_of(s), std::move(req));
    if (resp.code == StatusCode::kOk && resp.stripe) {
      loc = resp.stripe;
      break;
    }
  }
  if (!loc) co_return;  // already cleaned up (or unlinked concurrently)
  bool moved = false;
  for (const std::size_t s : new_owners) {
    if (contains(old_owners, s)) continue;  // already hosts the entry
    kv::Request req;
    req.verb = kv::Verb::kSetStripeIndex;
    req.key = loc->stripe;
    req.chunk = kv::ChunkInfo{loc->stripe_bytes, 0, 0, 0};
    req.stripe_index.push_back(
        kv::StripeIndexEntry{key, loc->offset, loc->len});
    req.if_absent = true;
    const kv::Response resp =
        co_await ctx_.client->invoke(node_of(s), std::move(req));
    if (resp.code == StatusCode::kOk) moved = true;
  }
  if (moved) ++stats_.locators_moved;
  if (cleanup_ok) {
    for (const std::size_t s : old_owners) {
      if (contains(new_owners, s) || !ctx_.membership->up(s)) continue;
      kv::Request del;
      del.verb = kv::Verb::kDelete;
      del.key = key;
      del.stripe_lookup = true;
      const kv::Response resp =
          co_await ctx_.client->invoke(node_of(s), std::move(del));
      if (resp.code == StatusCode::kOk) ++stats_.cleanup_deletes;
    }
  }
  co_await pace();
}

sim::Task<void> PlacementManager::pace() {
  if (++paced_ < kMigrateBatch) co_return;
  paced_ = 0;
  co_await ctx_.sim->delay(kBatchPauseNs);
}

}  // namespace hpres::cluster
