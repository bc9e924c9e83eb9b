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

ReplicationBase::ReplicationBase(EngineContext ctx, std::uint32_t factor,
                                 ArpeParams arpe)
    : Engine(ctx, arpe), factor_(factor) {
  assert(factor_ >= 1);
  assert(factor_ <= ring().num_servers() &&
         "replication factor exceeds cluster size");
}

std::optional<std::size_t> ReplicationBase::first_live_slot(
    const kv::Key& key, bool* checked) const {
  *checked = false;
  for (std::size_t slot = 0; slot < factor_; ++slot) {
    const std::size_t owner = ring().slot_index(key, slot);
    if (membership().up(owner)) return slot;
    *checked = true;  // primary (or an earlier replica) was down
  }
  return std::nullopt;
}

sim::Task<Result<Bytes>> ReplicationBase::do_get(kv::Key key,
                                                 OpPhases* phases) {
  bool checked = false;
  const std::optional<std::size_t> slot = first_live_slot(key, &checked);
  if (checked) {
    // T_check: identify a live replica before reading (Equation 4).
    ++stats().degraded_gets;
    phases->degraded = true;
    co_await sim().delay(kv::Membership::kCheckCostNs);
  }
  if (!slot) {
    co_return Status{StatusCode::kUnavailable, "all replicas down"};
  }
  const net::NodeId server = node_of(ring().slot_index(key, *slot));
  const SimDur issue_ns = issue_cost();
  phases->request_ns += issue_ns;
  const SimTime t0 = sim().now();
  kv::Request req = get_request(std::move(key));
  req.trace = phases->trace;
  const kv::Response resp = co_await client().invoke(server, std::move(req));
  if (obs::Tracer* const tr = tracer(); tr != nullptr) {
    tr->complete(trace_pid(), phases->trace_tid, "get/request", "engine", t0,
                 issue_ns, phases->trace.trace_id);
    tr->complete(trace_pid(), phases->trace_tid, "get/fetch", "engine",
                 t0 + issue_ns,
                 std::max<SimDur>(0, sim().now() - t0 - issue_ns),
                 phases->trace.trace_id);
  }
  if (resp.code != StatusCode::kOk) co_return Status{resp.code};
  co_return resp.value ? Bytes(*resp.value) : Bytes{};
}

sim::Task<Status> ReplicationBase::do_del(kv::Key key) {
  std::vector<sim::Future<kv::Response>> pending;
  pending.reserve(factor_);
  for (std::size_t slot = 0; slot < factor_; ++slot) {
    const std::size_t owner = ring().slot_index(key, slot);
    if (!membership().up(owner)) continue;
    kv::Request req;
    req.verb = kv::Verb::kDelete;
    req.key = key;
    pending.push_back(client().call_async(node_of(owner), std::move(req)));
  }
  std::size_t deleted = 0;
  for (const auto& f : pending) {
    const kv::Response resp = co_await f.wait();
    if (resp.code == StatusCode::kOk) ++deleted;
  }
  co_return deleted > 0 ? Status::Ok() : Status{StatusCode::kNotFound};
}

sim::Task<Status> SyncReplicationEngine::do_set(kv::Key key,
                                                SharedBytes value,
                                                OpPhases* phases) {
  // Blocking APIs: each replica write completes before the next is issued,
  // the F * (L + D/B) cost of Equation 2.
  StatusCode worst = StatusCode::kOk;
  std::size_t stored = 0;
  bool bounced = false;
  obs::Tracer* const tr = tracer();
  for (std::size_t slot = 0; slot < factor_; ++slot) {
    const std::size_t owner = ring().slot_index(key, slot);
    if (!membership().up(owner)) continue;
    const SimDur issue_ns = issue_cost();
    phases->request_ns += issue_ns;
    const SimTime t0 = sim().now();
    kv::Request req = set_request(key, value);
    req.trace = phases->trace;
    const kv::Response resp =
        co_await client().invoke(node_of(owner), std::move(req));
    if (tr != nullptr) {
      tr->complete(trace_pid(), phases->trace_tid, "set/request", "engine",
                   t0, issue_ns, phases->trace.trace_id);
      tr->complete(trace_pid(), phases->trace_tid, "set/fanout", "engine",
                   t0 + issue_ns,
                   std::max<SimDur>(0, sim().now() - t0 - issue_ns),
                   phases->trace.trace_id);
    }
    if (resp.code == StatusCode::kOk) {
      ++stored;
    } else {
      worst = resp.code;
      if (resp.code == StatusCode::kWrongEpoch) bounced = true;
    }
  }
  // A stale-epoch bounce must surface even when other replicas stored (or
  // none did): the whole op re-runs under the refreshed ring.
  if (bounced) {
    co_return Status{StatusCode::kWrongEpoch, "stale placement epoch"};
  }
  if (stored == 0) co_return Status{StatusCode::kUnavailable, "no replica stored"};
  co_return Status{worst};
}

sim::Task<Status> AsyncReplicationEngine::do_set(kv::Key key,
                                                 SharedBytes value,
                                                 OpPhases* phases) {
  // Non-blocking APIs: all F replica writes go out back-to-back and their
  // response waits overlap — Equation 6's max over replicas.
  std::vector<sim::Future<kv::Response>> pending;
  pending.reserve(factor_);
  const SimTime t0 = sim().now();
  SimDur request_ns = 0;
  for (std::size_t slot = 0; slot < factor_; ++slot) {
    const std::size_t owner = ring().slot_index(key, slot);
    if (!membership().up(owner)) continue;
    request_ns += issue_cost();
    kv::Request req = set_request(key, value);
    req.trace = phases->trace;
    pending.push_back(client().call_async(node_of(owner), std::move(req)));
  }
  phases->request_ns += request_ns;
  if (pending.empty()) {
    co_return Status{StatusCode::kUnavailable, "no replica stored"};
  }
  StatusCode worst = StatusCode::kOk;
  std::size_t stored = 0;
  bool bounced = false;
  for (const auto& f : pending) {
    const kv::Response resp = co_await f.wait();
    if (resp.code == StatusCode::kOk) {
      ++stored;
    } else {
      worst = resp.code;
      if (resp.code == StatusCode::kWrongEpoch) bounced = true;
    }
  }
  if (obs::Tracer* const tr = tracer(); tr != nullptr) {
    // The issue slices serialize on the client CPU inside call_async; one
    // combined request span keeps the tracer totals equal to the phase sum.
    tr->complete(trace_pid(), phases->trace_tid, "set/request", "engine", t0,
                 request_ns, phases->trace.trace_id);
    tr->complete(trace_pid(), phases->trace_tid, "set/fanout", "engine",
                 t0 + request_ns,
                 std::max<SimDur>(0, sim().now() - t0 - request_ns),
                 phases->trace.trace_id);
  }
  if (bounced) {
    co_return Status{StatusCode::kWrongEpoch, "stale placement epoch"};
  }
  if (stored == 0) co_return Status{StatusCode::kUnavailable, "no replica stored"};
  co_return Status{worst};
}

}  // namespace hpres::resilience
