#include "resilience/replication.h"

#include <algorithm>
#include <cassert>

namespace hpres::resilience {

namespace {

kv::Request set_request(kv::Key key, SharedBytes value) {
  kv::Request r;
  r.verb = kv::Verb::kSet;
  r.key = std::move(key);
  r.value = std::move(value);
  return r;
}

kv::Request get_request(kv::Key key) {
  kv::Request r;
  r.verb = kv::Verb::kGet;
  r.key = std::move(key);
  return r;
}

}  // namespace

ReplicationEngine::ReplicationEngine(EngineContext ctx, Design design,
                                     std::uint32_t factor, ArpeParams arpe)
    : Engine(ctx, arpe), design_(design), factor_(factor) {
  assert((design_ == Design::kSyncRep || design_ == Design::kAsyncRep) &&
         "ReplicationEngine runs Sync-Rep or Async-Rep");
  assert(factor_ >= 1);
  assert(factor_ <= ring().num_servers() &&
         "replication factor exceeds cluster size");
}

sim::Task<Result<Bytes>> ReplicationEngine::do_get(kv::Key key,
                                                   OpContext* op) {
  kv::Placement place = op->ring->place(key);
  const LiveSlot live = co_await first_live_slot(place, factor_);
  if (live.degraded) {
    ++stats().degraded_gets;
    op->degraded = true;
  }
  if (!live.slot) {
    co_return Status{StatusCode::kUnavailable, "all replicas down"};
  }
  const std::size_t owner = place.owner(*live.slot);
  const kv::Response resp =
      co_await call_one(owner, get_request(std::move(key)), op,
                        "get/request", "get/fetch");
  if (resp.code != StatusCode::kOk) co_return Status{resp.code};
  co_return resp.value ? Bytes(*resp.value) : Bytes{};
}

sim::Task<Status> ReplicationEngine::do_del(kv::Key key,
                                            const kv::HashRing& ring) {
  std::vector<sim::Future<kv::Response>> pending;
  pending.reserve(factor_);
  kv::Placement place = ring.place(key);
  for (std::size_t slot = 0; slot < factor_; ++slot) {
    const std::size_t owner = place.owner(slot);
    if (!membership().up(owner)) continue;
    kv::Request req;
    req.verb = kv::Verb::kDelete;
    req.key = key;
    pending.push_back(client().call_async(node_of(owner), std::move(req)));
  }
  WriteTally tally;
  for (const auto& f : pending) tally.add((co_await f.wait()).code);
  co_return tally.acked > 0 ? Status::Ok() : Status{StatusCode::kNotFound};
}

sim::Task<Status> ReplicationEngine::do_set(kv::Key key, SharedBytes value,
                                            OpContext* op) {
  WriteTally tally;
  kv::Placement place = op->ring->place(key);
  if (design_ == Design::kSyncRep) {
    // Blocking APIs: each replica write completes before the next is
    // issued, the F * (L + D/B) cost of Equation 2.
    for (std::size_t slot = 0; slot < factor_; ++slot) {
      const std::size_t owner = place.owner(slot);
      if (!membership().up(owner)) continue;
      const kv::Response resp =
          co_await call_one(owner, set_request(key, value), op,
                            "set/request", "set/fanout");
      tally.add(resp.code);
    }
    co_return tally.verdict(1, "no replica stored");
  }

  // Non-blocking APIs: all F replica writes go out back-to-back and their
  // response waits overlap — Equation 6's max over replicas.
  std::vector<sim::Future<kv::Response>> pending;
  pending.reserve(factor_);
  const SimTime t0 = sim().now();
  SimDur request_ns = 0;
  for (std::size_t slot = 0; slot < factor_; ++slot) {
    const std::size_t owner = place.owner(slot);
    if (!membership().up(owner)) continue;
    request_ns += issue_cost();
    kv::Request req = set_request(key, value);
    req.trace = op->trace;
    pending.push_back(client().call_async(node_of(owner), std::move(req)));
  }
  if (pending.empty()) {
    co_return Status{StatusCode::kUnavailable, "no replica stored"};
  }
  for (const auto& f : pending) tally.add((co_await f.wait()).code);
  // The issue slices serialize on the client CPU inside call_async; one
  // combined request span keeps the tracer totals equal to the phase sum.
  span(*op, "set/request", t0, request_ns);
  span(*op, "set/fanout", t0 + request_ns,
       std::max<SimDur>(0, sim().now() - t0 - request_ns));
  co_return tally.verdict(1, "no replica stored");
}

}  // namespace hpres::resilience
