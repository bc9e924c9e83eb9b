#include "resilience/erasure_engine.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "common/rng.h"

namespace hpres::resilience {

namespace {

/// A stripe also seals this long after its first append, so a trickle of
/// writes never waits for a full stripe (group commit timer).
constexpr SimDur kGroupCommitIntervalNs = 50'000;  // 50 us

}  // namespace

ErasureEngine::ErasureEngine(EngineContext ctx, const ec::Codec& codec,
                             ec::CostModel cost, Design design,
                             ArpeParams arpe, HedgeParams hedge,
                             PackParams pack)
    : Engine(ctx, arpe),
      codec_(&codec),
      cost_(cost),
      design_(design),
      hedge_(hedge),
      pack_(pack),
      load_(ctx.ring->num_servers(),
            splitmix64(static_cast<std::uint64_t>(ctx.client->id()))) {
  assert(is_erasure(design) && "ErasureEngine runs an erasure design");
  assert(codec.n() <= ring().num_active() &&
         "need k+m distinct servers for fragment placement");
}

sim::Task<Status> ErasureEngine::do_set(kv::Key key, SharedBytes value,
                                        OpContext* op) {
  if (packing_active()) {
    return set_routed_packed(std::move(key), std::move(value), op);
  }
  if (client_encodes(design_)) {
    return set_client_encode(std::move(key), std::move(value), op);
  }
  return set_server_encode(std::move(key), std::move(value), op);
}

sim::Task<Result<Bytes>> ErasureEngine::do_get(kv::Key key,
                                               OpContext* op) {
  if (client_decodes(design_)) {
    // Packed Gets fall back to the per-key path for keys without a locator.
    if (packing_active()) return get_packed(std::move(key), op);
    return get_client_decode(std::move(key), op);
  }
  const kv::Placement place = op->ring->place(key);
  return get_server_decode(std::move(key), place, op);
}

sim::Task<Status> ErasureEngine::do_del(kv::Key key,
                                        const kv::HashRing& ring) {
  std::vector<sim::Future<kv::Response>> pending;
  pending.reserve(codec_->n() + 1);
  if (packing_active()) {
    // Forget any staged (pre-durability) copy — the commit-time filter
    // then drops the record's locator install — and unlink committed
    // locator entries at the directory owners.
    staging_.erase(key);
    unlink_locator(key, ring, &pending);
  }
  bool staged_sent = false;
  kv::Placement place = ring.place(key);
  for (std::size_t slot = 0; slot < codec_->n(); ++slot) {
    const std::size_t owner = place.owner(slot);
    if (!membership().up(owner)) continue;
    pending.push_back(client().call_async(
        node_of(owner), kv::fragment_request(kv::Verb::kDelete, key, slot)));
    if (!staged_sent) {
      // Clear any staged full copy left by a server-side encode. The
      // stager is the first owner that was live at Set time, so routing
      // this through the first live slot (not unconditionally slot 0)
      // reaches it even when slot 0's owner is down now.
      staged_sent = true;
      kv::Request staged;
      staged.verb = kv::Verb::kDelete;
      staged.key = key;
      pending.push_back(
          client().call_async(node_of(owner), std::move(staged)));
    }
  }
  WriteTally tally;
  for (const auto& f : pending) tally.add((co_await f.wait()).code);
  // Fragments on currently-down owners are out of reach; they become
  // orphans that the RepairCoordinator counts and purges.
  co_return tally.acked > 0 ? Status::Ok() : Status{StatusCode::kNotFound};
}

sim::Task<Status> ErasureEngine::set_client_encode(kv::Key key,
                                                   SharedBytes value,
                                                   OpContext* op) {
  const std::size_t value_size = value ? value->size() : 0;
  const std::size_t n = codec_->n();
  kv::Placement place = op->ring->place(key);

  // T_encode plus the posting of all n chunk requests occupy the client
  // CPU as one contiguous slice — a single application thread encodes and
  // then posts its non-blocking sends back-to-back. (Splitting the slice
  // per send would let other in-flight operations' encodes starve this
  // op's sends behind the FIFO CPU queue.) Under the ARPE window this
  // slice overlaps the communication phases of neighbouring operations.
  const SimDur encode_ns = cost_.encode_ns(value_size);
  const SimDur post_ns = static_cast<SimDur>(n) * issue_cost();
  co_await client().cpu().execute(encode_ns + post_ns);
  // Span durations equal the charged phase costs exactly: these spans are
  // the op's Encode and Request phases (Figure 9).
  span(*op, "set/encode", sim().now() - encode_ns - post_ns, encode_ns);
  span(*op, "set/request", sim().now() - post_ns, post_ns);

  const ec::Fragments fragments = ec::encode_value(
      *codec_, value.span(), value_size, ctx().materialize);
  // The fragments hold every byte now and nothing below reads the value:
  // drop this op's handle so a materialized value is freed at encode, not
  // at the last fragment ack (unless the caller still holds it, e.g.
  // Engine::set's retry copy under a placement view).
  value = nullptr;

  // Distribute all K+M fragments with non-blocking requests: the
  // response waits overlap, approaching Equation 7's max over fragments.
  FragmentPuts puts;
  post_fragments(&puts, key, place, fragments, value_size, op->trace);
  const SimTime fanout_t0 = sim().now();
  const WriteTally tally = co_await await_fragments(&puts, fanout_t0);
  span(*op, "set/fanout", fanout_t0, sim().now() - fanout_t0);
  // Durability requires at least k fragments (any k reconstruct the value).
  co_return tally.verdict(codec_->k(), "fewer than k fragments stored");
}

void ErasureEngine::post_fragments(FragmentPuts* puts, const kv::Key& base,
                                   kv::Placement& place,
                                   const ec::Fragments& fragments,
                                   std::size_t original_size,
                                   const obs::TraceContext& trace) {
  for (std::size_t slot = 0; slot < codec_->n(); ++slot) {
    puts->owners[slot] = place.owner(slot);
    if (!membership().up(puts->owners[slot])) continue;
    kv::Request req =
        kv::fragment_put(base, slot, fragments[slot], original_size);
    req.trace = trace;
    puts->pending[slot] =
        client().call(node_of(puts->owners[slot]), std::move(req));
  }
}

sim::Task<Engine::WriteTally> ErasureEngine::await_fragments(
    FragmentPuts* puts, SimTime t0) {
  WriteTally tally;
  for (std::size_t slot = 0; slot < codec_->n(); ++slot) {
    if (!puts->pending[slot].valid()) continue;
    const kv::Response resp = co_await puts->pending[slot].wait();
    tally.add(resp.code);
    if (resp.code == StatusCode::kOk) {
      // Passive load learning from the piggybacked queue depth; purely
      // observational (no events, no RNG), so timing is unchanged.
      load_.observe_rtt(puts->owners[slot], sim().now() - t0,
                        resp.queue_depth);
    }
  }
  co_return tally;
}

sim::Task<Status> ErasureEngine::set_server_encode(kv::Key key,
                                                   SharedBytes value,
                                                   OpContext* op) {
  kv::Placement place = op->ring->place(key);
  const LiveSlot live = co_await first_live_slot(place, codec_->n());
  if (live.degraded) {
    ++stats().degraded_sets;
    op->degraded = true;
  }
  if (!live.slot) {
    co_return Status{StatusCode::kUnavailable, "no live server"};
  }
  const std::size_t target = place.owner(*live.slot);

  kv::Request req;
  req.verb = kv::Verb::kSetEncode;
  req.key = std::move(key);
  req.value = std::move(value);
  const SimTime t0 = sim().now();
  const kv::Response resp = co_await call_one(
      target, std::move(req), op, "set/request", "set/fanout");
  if (resp.code == StatusCode::kOk) {
    load_.observe_rtt(target, sim().now() - t0, resp.queue_depth);
  }
  co_return Status{resp.code};
}

sim::Task<Result<Bytes>> ErasureEngine::get_client_decode(kv::Key key,
                                                          OpContext* op) {
  const kv::Placement place = op->ring->place(key);
  FragmentFetch f(std::move(key), place, codec_->n(), codec_->data_mask());
  const Status s = co_await fetch_fragments(&f, op);
  if (s.ok() && f.meta) {
    co_return co_await decode_fragments(&f, op);
  }
  if (f.posted && !client_encodes(design_)) {
    // Server-side encode may still be distributing this key's fragments;
    // the stager holds the full value until every fragment is acked, so
    // one server-side aggregate resolves the race (read-after-write).
    ++stats().fallback_gets;
    if (flight() != nullptr) {
      flight()->record(sim().now(), client().id(),
                       obs::FlightEventType::kFallback);
    }
    co_return co_await get_server_decode(std::move(f.base), f.place, op);
  }
  co_return s.ok() ? Status{f.worst, "missing fragments"} : s;
}

sim::Task<Status> ErasureEngine::fetch_fragments(FragmentFetch* f,
                                                 OpContext* op) {
  const std::size_t k = codec_->k();
  const std::size_t n = codec_->n();
  const bool hedging = hedge_.delta > 0;

  for (std::size_t slot = 0; slot < n; ++slot) {
    if (!membership().up(f->place.owner(slot))) {
      f->available &= ~ec::slot_bit(slot);
    }
  }
  const auto arrived = [f] {
    return static_cast<std::size_t>(std::popcount(f->have));
  };
  // A packed record whose covering owners are all live reads only those
  // fragments: no T_check, no hedge, nothing to decode.
  const bool direct = f->slice && (f->want & ~f->available) == 0;
  if (!direct && f->available != codec_->all_slots()) {
    // Needing to work around a dead owner costs one T_check (Equation 4).
    mark_degraded(f, op);
    co_await sim().delay(kv::Membership::kCheckCostNs);
  }

  // Codec-aware read set: an MDS code takes the first k live owners, data
  // slots first; LRC skips dependent rows. Either way slot order takes
  // every live data slot, so a direct read's record lies inside the set.
  // Hedging ranks owners by load (power-of-two-choices among near-equal
  // scores).
  std::array<std::size_t, kMaxSlots> ranked;
  std::span<const std::size_t> preference;
  if (hedging && !direct) {
    preference = load_preference(f->place, /*randomize=*/true, ranked);
  }
  Result<ec::ReadSet> selected =
      codec_->select(codec_->data_mask(), f->available, preference);
  if (!selected.ok()) co_return selected.status();
  // The slots whose arrival binds the read set.
  ec::SlotMask need = direct ? f->want : selected->mask();

  // The non-blocking fetches are posted back-to-back from one CPU slice;
  // the responses overlap (Equation 8).
  const SimDur post_ns =
      static_cast<SimDur>(std::popcount(need)) * issue_cost();
  co_await client().cpu().execute(post_ns);
  span(*op, "get/request", sim().now() - post_ns, post_ns);
  f->posted = true;
  const SimTime fetch_t0 = sim().now();
  for (const std::size_t slot : *selected) {
    if (ec::has_slot(need, slot)) {
      issue_fetch(f, slot, /*hedge=*/false, op->trace);
    }
  }

  // Arm up to Δ hedges over the next-best candidates. They fire once the
  // hedge delay has passed, and only while the op is short of k arrivals.
  std::array<std::size_t, kMaxSlots> hedge_slots;
  std::size_t hedge_count = 0;
  const std::size_t hedge_budget = direct ? 0 : hedge_.delta;
  for (std::size_t i = 0; i < n && hedge_count < hedge_budget; ++i) {
    const std::size_t slot = preference.empty() ? i : preference[i];
    if (!f->slots[slot].attempted && ec::has_slot(f->available, slot)) {
      hedge_slots[hedge_count++] = slot;
    }
  }
  std::span<const std::size_t> hedges(hedge_slots.data(), hedge_count);
  const SimTime hedge_due = fetch_t0 + hedge_.delay_ns;

  for (;;) {
    fold_arrivals(f);
    if (f->have == need) {
      // Exactly the selection arrived, or a direct read's part of it: it
      // is the decode set (the codec's answer over these arrivals, without
      // asking it again).
      f->decode_set = *selected;
      break;
    }
    if (arrived() >= k) {
      const Result<ec::ReadSet> fin =
          codec_->select(codec_->data_mask(), f->have);
      if (fin.ok()) {
        f->decode_set = *fin;
        break;
      }
    }
    if (f->failed) {
      // Working around a failed fetch is a degraded read even when the
      // membership oracle claimed every owner was up. Re-selection pays one
      // more T_check and consults the load scores, so replacement fetches
      // spread over the survivors instead of piling onto the first one.
      // Fetches that resolved during the T_check count toward the new
      // selection; a failure among them triggers another round.
      f->failed = false;
      mark_degraded(f, op);
      co_await sim().delay(kv::Membership::kCheckCostNs);
      fold_arrivals(f);
      preference = load_preference(f->place, /*randomize=*/hedging, ranked);
      selected = codec_->select(codec_->data_mask(), f->available,
                                preference);
      if (!selected.ok()) break;  // fewer than k survivors
      need = selected->mask();
      for (const std::size_t slot : *selected) {
        if (f->slots[slot].attempted) continue;
        ++stats().failover_fetches;
        if (flight() != nullptr) {
          flight()->record(sim().now(), node_of(f->place.owner(slot)),
                           obs::FlightEventType::kFailover, 0,
                           static_cast<std::uint32_t>(client().id()));
        }
        issue_fetch(f, slot, /*hedge=*/false, op->trace);
      }
      continue;
    }
    if (!hedges.empty() && sim().now() >= hedge_due) {
      bool fired = false;
      for (const std::size_t slot : hedges) {
        if (arrived() >= k) break;
        if (f->slots[slot].attempted || !ec::has_slot(f->available, slot)) {
          continue;
        }
        if (!arpe().try_acquire_hedge_buffer()) {
          // Pool tight: hedging is best-effort and must never add
          // backpressure to admitted work.
          ++stats().hedges_suppressed;
          break;
        }
        // The duplicate request costs real client CPU: that is the p50
        // price of hedging and must show up in the schedule.
        co_await client().cpu().execute(issue_cost());
        fold_arrivals(f);
        if (arrived() >= k) {  // the primaries landed while queued on CPU
          arpe().release_hedge_buffer();
          break;
        }
        ++stats().hedges_fired;
        fired = true;
        if (obs::Tracer* const tr = ctx().live_tracer(); tr != nullptr) {
          tr->instant(trace_pid(), op->trace_tid, "hedge/fire", "engine",
                      sim().now(), op->trace.trace_id);
        }
        if (flight() != nullptr) {
          flight()->record(sim().now(), node_of(f->place.owner(slot)),
                           obs::FlightEventType::kHedgeFired, 0,
                           static_cast<std::uint32_t>(client().id()));
        }
        issue_fetch(f, slot, /*hedge=*/true, op->trace);
      }
      if (fired) ++stats().hedged_gets;
      hedges = {};
      continue;
    }
    const std::span<const sim::Future<kv::Response>> inflight(
        f->inflight.data(), n);
    if (std::none_of(inflight.begin(), inflight.end(),
                     [](const auto& fut) { return fut.valid(); })) {
      break;
    }
    co_await sim::wait_any<kv::Response>(
        inflight, hedges.empty() ? sim::Simulator::kNever : hedge_due);
  }

  // Bind the result: everything still in flight is a straggler. Unguarded
  // calls are cancelled through the stale-response machinery so no
  // response is left pending; guarded ones expire on their own deadline.
  std::size_t stragglers = 0;
  for (std::size_t slot = 0; slot < n; ++slot) {
    if (!f->inflight[slot].valid()) continue;
    ++stragglers;
    FragmentFetch::Slot& s = f->slots[slot];
    if (s.hedge) arpe().release_hedge_buffer();
    if (s.rpc_id != 0) client().cancel(s.rpc_id);
    f->inflight[slot] = {};
  }
  const bool bound = !f->decode_set.empty();
  for (const std::size_t slot : f->decode_set) {
    if (!f->slots[slot].hedge) continue;
    ++stats().hedge_wins;
    if (flight() != nullptr) {
      flight()->record(sim().now(), node_of(f->place.owner(slot)),
                       obs::FlightEventType::kHedgeWon, 0,
                       static_cast<std::uint32_t>(client().id()));
    }
  }
  // Fragments fetched beyond the k that bound are the wire price of
  // hedging: each straggler's response (in flight or about to be produced)
  // and each arrival left out of the decode set. An unhedged engine's
  // failover leftovers are not hedge waste.
  if (hedging && f->meta && stragglers > 0) {
    stats().hedge_wasted_bytes +=
        stragglers *
        ec::make_layout(f->meta->original_size, k, codec_->alignment())
            .fragment_size;
  }
  if (hedging && bound) {
    for (std::size_t slot = 0; slot < n; ++slot) {
      if (ec::has_slot(f->have & ~f->decode_set.mask(), slot)) {
        const SharedBytes& frag = f->frags[slot];
        stats().hedge_wasted_bytes += frag ? frag->size() : 0;
      }
    }
  }
  span(*op, "get/fetch", fetch_t0, sim().now() - fetch_t0);
  co_return bound ? Status::Ok() : Status{f->worst, "missing fragments"};
}

void ErasureEngine::mark_degraded(FragmentFetch* f, OpContext* op) {
  if (!f->degraded) {
    f->degraded = true;
    if (!f->counted) ++stats().degraded_gets;
    if (f->slice) ++stats().packed_degraded_gets;
  }
  op->degraded = true;
}

void ErasureEngine::issue_fetch(FragmentFetch* f, std::size_t slot,
                                bool hedge, const obs::TraceContext& trace) {
  kv::Request req = kv::fragment_request(kv::Verb::kGet, f->base, slot);
  req.trace = trace;
  f->inflight[slot] =
      client().call(node_of(f->place.owner(slot)), std::move(req));
  FragmentFetch::Slot& s = f->slots[slot];
  s.rpc_id = client().last_call_id();  // 0: guarded or failed fast
  s.issued_at = sim().now();
  s.attempted = true;
  s.hedge = hedge;
}

void ErasureEngine::fold_arrivals(FragmentFetch* f) {
  for (std::size_t slot = 0; slot < codec_->n(); ++slot) {
    const kv::Response* resp = f->inflight[slot].try_get();
    if (resp == nullptr) continue;
    FragmentFetch::Slot& s = f->slots[slot];
    if (s.hedge) arpe().release_hedge_buffer();
    if (resp->code == StatusCode::kOk) {
      // Passive load learning (observation only: no events, no RNG).
      load_.observe_rtt(f->place.owner(slot), sim().now() - s.issued_at,
                        resp->queue_depth);
      f->frags[slot] = resp->value;
      f->have |= ec::slot_bit(slot);
      if (resp->chunk) f->meta = resp->chunk;
    } else {
      f->worst = resp->code;
      f->available &= ~ec::slot_bit(slot);
      f->failed = true;
    }
    f->inflight[slot] = {};
    s.rpc_id = 0;
  }
}

sim::Task<Result<Bytes>> ErasureEngine::decode_fragments(
    const FragmentFetch* f, OpContext* op) {
  const std::size_t coded_bytes = f->meta->original_size;
  const ec::SlotMask missing = codec_->data_mask() & ~f->decode_set.mask();
  if ((missing & f->want) != 0) {
    // T_decode on the client CPU, only on the degraded path.
    const SimDur decode_ns = cost_.decode_ns(
        coded_bytes, static_cast<unsigned>(std::popcount(missing)));
    co_await client().cpu().execute(decode_ns);
    span(*op, "get/decode", sim().now() - decode_ns, decode_ns);
  }
  co_return ec::assemble(
      *codec_, std::span(f->frags.data(), codec_->n()), f->decode_set,
      ec::make_layout(coded_bytes, codec_->k(), codec_->alignment()),
      f->slice, ctx().materialize);
}

std::span<const std::size_t> ErasureEngine::load_preference(
    kv::Placement& place, bool randomize,
    std::array<std::size_t, kMaxSlots>& storage) {
  if (load_.total_samples() == 0) return {};
  const std::size_t n = codec_->n();
  std::array<std::size_t, kMaxSlots> owners;
  for (std::size_t slot = 0; slot < n; ++slot) {
    storage[slot] = slot;
    owners[slot] = place.owner(slot);
  }
  const std::span<std::size_t> ranked(storage.data(), n);
  load_.order_slots(ranked, std::span(owners.data(), n), randomize);
  return ranked;
}

sim::Task<Result<Bytes>> ErasureEngine::get_server_decode(
    kv::Key key, kv::Placement place, OpContext* op) {
  const LiveSlot live = co_await first_live_slot(place, codec_->n());
  if (live.degraded) {
    ++stats().degraded_gets;
    op->degraded = true;
  }
  if (!live.slot) {
    co_return Status{StatusCode::kUnavailable, "no live server"};
  }
  const std::size_t target = place.owner(*live.slot);

  kv::Request req;
  req.verb = kv::Verb::kGetDecode;
  req.key = std::move(key);
  const SimTime t0 = sim().now();
  const kv::Response resp = co_await call_one(
      target, std::move(req), op, "get/request", "get/fetch");
  if (resp.code != StatusCode::kOk) co_return Status{resp.code};
  load_.observe_rtt(target, sim().now() - t0, resp.queue_depth);
  co_return resp.value ? Bytes(*resp.value) : Bytes{};
}

// ---- Packed-stripe (batched small-object) write path ------------------
//
// Small values append into a per-primary-server stripe buffer; the stripe
// seals when full or when the group-commit timer fires, is encoded ONCE,
// and its n fragments fan out under the stripe's own base key. The key ->
// {stripe, offset, len} locator is installed, replicated m+1 ways, at the
// key's natural owner set — which, because the ring places slot j at
// (primary + j) % S, is shared by every record in the stripe: one batched
// install RPC per directory owner.

void ErasureEngine::unlink_locator(
    const kv::Key& key, const kv::HashRing& ring,
    std::vector<sim::Future<kv::Response>>* out) {
  kv::Placement place = ring.place(key);
  for (std::size_t j = 0; j < ec::locator_copies(codec_->m()); ++j) {
    const std::size_t owner = place.owner(j);
    if (!membership().up(owner)) continue;
    out->push_back(
        client().call_async(node_of(owner), kv::locator_unlink(key)));
  }
}

sim::Task<Status> ErasureEngine::set_routed_packed(kv::Key key,
                                                   SharedBytes value,
                                                   OpContext* op) {
  const std::size_t value_size = value ? value->size() : 0;
  const std::size_t rec = ec::stripe_record_bytes(key.size(), value_size);
  if (value_size < pack_.pack_threshold && rec <= kStripeCapacity) {
    co_return co_await set_packed(std::move(key), std::move(value), op);
  }
  // Large value while packing is on: the per-key path stores it. Any
  // earlier packed life of this key must not resurrect — drop its staged
  // copy (the commit-time filter then skips its locator install) and
  // unlink committed locator entries.
  staging_.erase(key);
  std::vector<sim::Future<kv::Response>> unlink;
  unlink_locator(key, *op->ring, &unlink);
  const Status s = co_await set_client_encode(key, std::move(value), op);
  for (auto& f : unlink) co_await f.wait();
  co_return s;
}

sim::Task<Status> ErasureEngine::set_packed(kv::Key key, SharedBytes value,
                                            OpContext* op) {
  const std::size_t value_size = value ? value->size() : 0;
  const std::size_t rec = ec::stripe_record_bytes(key.size(), value_size);
  const std::size_t primary = op->ring->place(key).owner(0);

  if (const auto it = active_.find(primary);
      it != active_.end() && it->second->used + rec > kStripeCapacity) {
    seal_stripe(primary, /*by_timer=*/false);
  }
  std::shared_ptr<StripeState>& slot = active_[primary];
  if (!slot) {
    slot = std::make_shared<StripeState>(sim());
    slot->skey = kv::stripe_key(client().id(), stripe_seq_++);
    sim().spawn(stripe_timer(this, slot, primary));
  }
  const std::shared_ptr<StripeState> st = slot;  // survives map rehash

  kv::StripeIndexEntry entry;
  entry.key = key;
  entry.len = static_cast<std::uint32_t>(value_size);
  if (ctx().materialize) {
    entry.offset = static_cast<std::uint32_t>(
        ec::stripe_append(st->buffer, key, value.span()));
    st->used = st->buffer.size();
  } else {
    entry.offset = static_cast<std::uint32_t>(
        st->used + ec::kStripeRecordHeader + key.size());
    st->used += rec;
  }
  st->records.push_back(std::move(entry));
  st->values.push_back(value);
  staging_[key] = std::move(value);
  ++stats().packed_sets;
  stats().stripe_record_bytes += rec;

  // The append itself (copy into the stripe buffer) is this op's only
  // request-phase CPU; encode and fan-out are paid once per stripe by the
  // commit coroutine.
  const SimDur append_ns = issue_cost();
  co_await client().cpu().execute(append_ns);
  span(*op, "set/append", sim().now() - append_ns, append_ns);

  // The Set future resolves at stripe durability (group commit).
  co_await st->done.wait();
  co_return st->result;
}

void ErasureEngine::seal_stripe(std::size_t primary, bool by_timer) {
  const auto it = active_.find(primary);
  if (it == active_.end()) return;
  std::shared_ptr<StripeState> st = std::move(it->second);
  active_.erase(it);
  st->sealed = true;
  ++stats().stripes_sealed;
  if (by_timer) ++stats().stripes_timer_sealed;
  fill_permille_sum_ += st->used * 1000 / kStripeCapacity;
  stats().stripe_fill_x1000 = fill_permille_sum_ / stats().stripes_sealed;
  sim().spawn(commit_stripe(this, std::move(st)));
}

sim::Task<void> ErasureEngine::stripe_timer(ErasureEngine* self,
                                            std::shared_ptr<StripeState> st,
                                            std::size_t primary) {
  co_await self->sim().delay(kGroupCommitIntervalNs);
  if (st->sealed) co_return;  // a capacity seal beat the timer
  assert(self->active_.count(primary) != 0 &&
         self->active_[primary] == st && "unsealed stripe must be active");
  self->seal_stripe(primary, /*by_timer=*/true);
}

sim::Task<void> ErasureEngine::commit_stripe(ErasureEngine* self,
                                             std::shared_ptr<StripeState> st) {
  // Durability work may never be dropped: block for a bounce buffer
  // (BufferPool's no-steal rule keeps hedges from jumping this queue).
  // Writers keep appending into the NEW active stripe meanwhile — the
  // double-buffered group commit.
  co_await self->arpe().acquire_commit_buffer();

  const std::size_t copies = ec::locator_copies(self->codec_->m());
  const std::size_t stripe_bytes = st->used;

  // Records overwritten (or deleted) while the stripe was filling have a
  // stale staged pointer; skip their locator installs so the newer value
  // wins. The stripe bytes themselves become garbage.
  std::vector<kv::StripeIndexEntry> live;
  live.reserve(st->records.size());
  for (std::size_t i = 0; i < st->records.size(); ++i) {
    const auto sit = self->staging_.find(st->records[i].key);
    if (sit != self->staging_.end() && sit->second == st->values[i]) {
      live.push_back(st->records[i]);
    }
  }

  // One contiguous CPU slice: encode the stripe, then post all fragment
  // and locator-install sends back-to-back (same rationale as
  // set_client_encode).
  const SimDur encode_ns = self->cost_.encode_ns(stripe_bytes);
  const SimDur post_ns =
      static_cast<SimDur>(self->codec_->n() + copies) * issue_cost();
  const SimTime cpu_t0 = self->sim().now();
  co_await self->client().cpu().execute(encode_ns + post_ns);
  if (obs::Tracer* const tr = self->ctx().live_tracer(); tr != nullptr) {
    const std::uint64_t aid = std::hash<std::string>{}(st->skey);
    tr->async_span(self->trace_pid(), aid, "stripe/encode", "engine", cpu_t0,
                   encode_ns);
    tr->async_span(self->trace_pid(), aid + 1, "stripe/post", "engine",
                   cpu_t0 + encode_ns, post_ns);
  }

  const ec::Fragments fragments = ec::encode_value(
      *self->codec_, st->buffer, stripe_bytes, self->ctx().materialize);
  // The packed records live on in the fragments; the staged values (not
  // this buffer) serve read-your-writes until the commit, so free it now
  // rather than when the last waiter lets go of the stripe.
  st->buffer = Bytes();

  // Fragment fan-out under the stripe's own base key (the repair
  // coordinator discovers and rebuilds stripes through the same
  // chunk-key scan as per-key fragments).
  FragmentPuts puts;
  kv::Placement stripe_place = self->ring().place(st->skey);
  self->post_fragments(&puts, st->skey, stripe_place, fragments,
                       stripe_bytes, {});

  // Batched locator installs: all records share their primary (that is
  // how they were grouped), so they share the full m+1 directory owner
  // set — one RPC per owner for the whole stripe.
  std::vector<sim::Future<kv::Response>> dir_pending;
  if (!live.empty()) {
    kv::Placement dir_place = self->ring().place(st->records.front().key);
    for (std::size_t j = 0; j < copies; ++j) {
      const std::size_t owner = dir_place.owner(j);
      if (!self->membership().up(owner)) continue;
      dir_pending.push_back(self->client().call(
          self->node_of(owner),
          kv::locator_install(st->skey, stripe_bytes, live)));
    }
  }

  const SimTime fanout_t0 = self->sim().now();
  const WriteTally frags = co_await self->await_fragments(&puts, fanout_t0);
  WriteTally dirs;
  for (auto& f : dir_pending) dirs.add((co_await f.wait()).code);
  if (obs::Tracer* const tr = self->ctx().live_tracer(); tr != nullptr) {
    tr->async_span(self->trace_pid(),
                   std::hash<std::string>{}(st->skey) + 2, "stripe/fanout",
                   "engine", fanout_t0, self->sim().now() - fanout_t0);
  }

  // Durability: any k fragments reconstruct the stripe, and at least one
  // directory owner can name it (the directory itself is recoverable from
  // stripe contents — records embed their keys). A stale-epoch bounce
  // outranks both: every waiter's set retries whole (Engine::set),
  // re-staging its record under the refreshed ring. Unlike a per-key Set,
  // a durable stripe is kOk even when some owner failed.
  const bool durable =
      frags.acked >= self->codec_->k() && (live.empty() || dirs.acked >= 1);
  st->result = frags.bounced || dirs.bounced
                   ? Status{StatusCode::kWrongEpoch, "stale placement epoch"}
               : durable ? Status::Ok()
                         : Status{StatusCode::kUnavailable,
                                  "stripe commit not durable"};

  // Staged copies served read-your-writes until now; drop the ones this
  // stripe owns (pointer match — overwrites keep their newer entry).
  for (std::size_t i = 0; i < st->records.size(); ++i) {
    const auto sit = self->staging_.find(st->records[i].key);
    if (sit != self->staging_.end() && sit->second == st->values[i]) {
      self->staging_.erase(sit);
    }
  }

  self->arpe().release_commit_buffer();
  st->done.set();
}

sim::Task<Result<Bytes>> ErasureEngine::get_packed(kv::Key key,
                                                   OpContext* op) {
  // Read-your-writes: a value whose stripe has not committed yet is served
  // from the staged copy, exactly like the server-encode stager.
  if (const auto it = staging_.find(key); it != staging_.end()) {
    ++stats().staged_reads;
    co_return it->second ? Bytes(*it->second) : Bytes{};
  }

  bool degraded = false;

  // Locator query at every live directory owner in parallel: any kOk with
  // a locator wins; unanimous kNotFound means the key never packed (or was
  // unlinked) and the legacy per-key path applies. Querying all owners
  // (not just the first live one) tolerates an owner that missed its
  // install while it was down.
  std::vector<sim::Future<kv::Response>> lookups;
  std::vector<std::size_t> lookup_owners;
  kv::Placement dir_place = op->ring->place(key);
  for (std::size_t j = 0; j < ec::locator_copies(codec_->m()); ++j) {
    const std::size_t owner = dir_place.owner(j);
    if (!membership().up(owner)) {
      degraded = true;
      continue;
    }
    kv::Request req = kv::locator_lookup(key);
    req.trace = op->trace;
    lookups.push_back(client().call(node_of(owner), std::move(req)));
    lookup_owners.push_back(owner);
  }
  if (degraded) {
    ++stats().degraded_gets;
    op->degraded = true;
    co_await sim().delay(kv::Membership::kCheckCostNs);
  }
  if (lookups.empty()) {
    co_return Status{StatusCode::kUnavailable, "no live directory owner"};
  }
  const SimDur lookup_post_ns =
      static_cast<SimDur>(lookups.size()) * issue_cost();
  co_await client().cpu().execute(lookup_post_ns);
  span(*op, "get/locator", sim().now() - lookup_post_ns, lookup_post_ns);

  std::optional<kv::StripeLoc> loc;
  std::size_t notfound = 0;
  const SimTime lookup_t0 = sim().now();
  for (std::size_t i = 0; i < lookups.size(); ++i) {
    const kv::Response resp = co_await lookups[i].wait();
    if (resp.code == StatusCode::kOk && resp.stripe) {
      if (!loc) loc = resp.stripe;
      load_.observe_rtt(lookup_owners[i], sim().now() - lookup_t0,
                        resp.queue_depth);
    } else if (resp.code == StatusCode::kNotFound) {
      ++notfound;
    }
  }
  if (!loc) {
    if (notfound == lookups.size()) {
      // Definitively unpacked: the per-key path.
      co_return co_await get_client_decode(std::move(key), op);
    }
    if (!degraded) {
      ++stats().degraded_gets;
      degraded = true;
    }
    op->degraded = true;
    co_return Status{StatusCode::kUnavailable, "locator unreachable"};
  }
  ++stats().packed_get_hits;
  if (loc->len == 0) co_return Bytes{};
  co_return co_await read_packed(std::move(*loc), degraded, op);
}

sim::Task<Result<Bytes>> ErasureEngine::read_packed(kv::StripeLoc loc,
                                                    bool counted,
                                                    OpContext* op) {
  const ec::ValueSlice record{loc.offset, loc.len};
  const ec::FragmentRange range = ec::owning_fragments(
      ec::make_layout(loc.stripe_bytes, codec_->k(), codec_->alignment()),
      record.offset, record.len);
  const kv::Placement place = op->ring->place(loc.stripe);
  FragmentFetch f(std::move(loc.stripe), place, codec_->n(), range.mask(),
                  record);
  f.counted = counted;
  const Status s = co_await fetch_fragments(&f, op);
  if (!s.ok()) co_return s;
  co_return co_await decode_fragments(&f, op);
}

}  // namespace hpres::resilience
