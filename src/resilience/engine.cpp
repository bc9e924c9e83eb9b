#include "resilience/engine.h"

#include <algorithm>

namespace hpres::resilience {

Engine::OpFrame Engine::begin_op(OpKind kind) {
  OpFrame frame{.kind = kind, .t0 = sim().now(), .tracer = ctx_.live_tracer()};
  frame.op.ring = ctx_.ring;
  if (frame.tracer != nullptr) {
    frame.lane = lanes_.acquire();
    frame.op.trace_tid = lane_tid(frame.lane);
    // trace_id stays 0 when tracing is disabled, so nothing downstream tags
    // or propagates.
    frame.op.trace = obs::TraceContext{frame.tracer->new_trace_id(),
                                       frame.op.trace_tid, 0};
  }
  if (ctx_.flight != nullptr) {
    ctx_.flight->record(frame.t0, client().id(),
                        obs::FlightEventType::kOpStart, 0, 0,
                        static_cast<std::uint8_t>(kind));
  }
  return frame;
}

void Engine::finish_op(const OpFrame& frame, bool ok) {
  const bool get = frame.kind == OpKind::kGet;
  const OpContext& op = frame.op;
  const SimDur total = sim().now() - frame.t0;
  if (frame.tracer != nullptr) {
    frame.tracer->complete(trace_pid(), op.trace_tid, get ? "get" : "set",
                           "engine", frame.t0, total, op.trace.trace_id);
    lanes_.release(frame.lane);
  }
  ++(get ? stats_.gets : stats_.sets);
  if (!ok) ++(get ? stats_.get_failures : stats_.set_failures);
  if (ctx_.recorder != nullptr) {
    ctx_.recorder->record(get ? "get" : "set", name(), op.degraded, total,
                          op.trace.trace_id);
  }
  if (ctx_.flight != nullptr) {
    const auto code = static_cast<std::uint8_t>(frame.kind);
    if (op.degraded) {
      ctx_.flight->record(sim().now(), client().id(),
                          obs::FlightEventType::kDegraded, 0, 0, code);
    }
    ctx_.flight->record(sim().now(), client().id(),
                        obs::FlightEventType::kOpEnd,
                        static_cast<std::uint64_t>(total),
                        op.degraded ? 1 : 0, code);
  }
}

sim::Task<Status> Engine::set(kv::Key key, SharedBytes value) {
  OpFrame frame = begin_op(OpKind::kSet);
  // Under a placement view, the op keeps copies for the wrong-epoch retry
  // loop (the copies are host-side only; simulated costs are unchanged).
  kv::Key retry_key;
  SharedBytes retry_value;
  const bool placement_aware = client().placement_view() != nullptr;
  if (placement_aware) {
    retry_key = key;
    retry_value = value;
  }
  Status status =
      co_await do_set(std::move(key), std::move(value), &frame.op);
  if (placement_aware) {
    // A kWrongEpoch bounce means some owner installed a newer epoch than
    // this op was stamped with. The shared ring is already the new one
    // (the authority swaps it before streaming installs), so re-running
    // the scheme re-resolves owners and stamps the fresh epoch. Bounded:
    // epochs only move forward and cutovers are rare per op lifetime.
    for (int retry = 0;
         status.code() == StatusCode::kWrongEpoch && retry < 3; ++retry) {
      ++stats_.wrong_epoch_retries;
      frame.op.degraded = true;
      status = co_await do_set(retry_key, retry_value, &frame.op);
    }
  }
  finish_op(frame, status.ok());
  co_return status;
}

sim::Task<Result<Bytes>> Engine::get(kv::Key key) {
  OpFrame frame = begin_op(OpKind::kGet);
  const kv::PlacementView* const view = client().placement_view();
  kv::Key fallback_key;
  if (view != nullptr) fallback_key = key;
  Result<Bytes> result = co_await do_get(std::move(key), &frame.op);
  if (view != nullptr && !result.ok() && view->prev != nullptr) {
    // Mid-migration miss: the fragments may not have reached their new
    // owners yet. Re-run the same op under the pre-cutover ring — data at
    // old positions survives until the post-ack cleanup, so between the
    // two placements every durably written value stays readable.
    frame.op.ring = view->prev;
    Result<Bytes> prev = co_await do_get(std::move(fallback_key), &frame.op);
    if (prev.ok()) {
      ++stats_.placement_fallback_gets;
      frame.op.degraded = true;
      result = std::move(prev);
    }
  }
  finish_op(frame, result.ok());
  co_return result;
}

sim::Task<kv::Response> Engine::call_one(std::size_t server, kv::Request req,
                                         OpContext* op,
                                         std::string_view request_span,
                                         std::string_view wait_span) {
  const SimDur issue_ns = issue_cost();
  const SimTime t0 = sim().now();
  req.trace = op->trace;
  kv::Response resp = co_await client().invoke(node_of(server), std::move(req));
  span(*op, request_span, t0, issue_ns);
  span(*op, wait_span, t0 + issue_ns,
       std::max<SimDur>(0, sim().now() - t0 - issue_ns));
  co_return resp;
}

sim::Task<Engine::LiveSlot> Engine::first_live_slot(kv::Placement& place,
                                                    std::size_t slots) {
  LiveSlot result;
  for (std::size_t slot = 0; slot < slots; ++slot) {
    if (membership().up(place.owner(slot))) {
      result.slot = slot;
      break;
    }
    result.degraded = true;  // the designated owner (or an earlier one) is down
  }
  if (result.degraded) co_await sim().delay(kv::Membership::kCheckCostNs);
  co_return result;
}

sim::Task<std::vector<Status>> Engine::mset(
    std::vector<kv::Key> keys, std::vector<SharedBytes> values) {
  std::vector<sim::Future<Status>> pending;
  pending.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    pending.push_back(iset(std::move(keys[i]),
                           i < values.size() ? std::move(values[i])
                                             : SharedBytes{}));
  }
  std::vector<Status> out;
  out.reserve(pending.size());
  for (const auto& f : pending) out.push_back(co_await f.wait());
  co_return out;
}

sim::Task<std::vector<Result<Bytes>>> Engine::mget(
    std::vector<kv::Key> keys) {
  std::vector<sim::Future<Result<Bytes>>> pending;
  pending.reserve(keys.size());
  for (auto& key : keys) pending.push_back(iget(std::move(key)));
  std::vector<Result<Bytes>> out;
  out.reserve(pending.size());
  for (const auto& f : pending) out.push_back(co_await f.wait());
  co_return out;
}

sim::Task<Status> Engine::del(kv::Key key) {
  ++stats_.dels;
  const kv::PlacementView* const view = client().placement_view();
  if (view == nullptr || view->prev == nullptr) {
    co_return co_await do_del(std::move(key), ring());
  }
  // Mid-migration delete: fragments may sit at old positions, new ones,
  // or both, so unlink under both rings. OK if either placement held it.
  const kv::HashRing& prev = *view->prev;
  kv::Key prev_key = key;
  const Status cur = co_await do_del(std::move(key), ring());
  const Status old = co_await do_del(std::move(prev_key), prev);
  co_return cur.ok() || old.ok() ? Status::Ok() : cur;
}

sim::Future<Status> Engine::iset(kv::Key key, SharedBytes value) {
  sim::Promise<Status> promise(sim());
  sim::Future<Status> future = promise.get_future();
  arpe_.submit();  // visible to wait_all immediately (REQ_QUEUE semantics)
  sim().spawn(iset_coro(this, std::move(key), std::move(value),
                        std::move(promise)));
  return future;
}

sim::Future<Result<Bytes>> Engine::iget(kv::Key key) {
  sim::Promise<Result<Bytes>> promise(sim());
  sim::Future<Result<Bytes>> future = promise.get_future();
  arpe_.submit();
  sim().spawn(iget_coro(this, std::move(key), std::move(promise)));
  return future;
}

sim::Task<void> Engine::iset_coro(Engine* self, kv::Key key,
                                  SharedBytes value,
                                  sim::Promise<Status> out) {
  co_await self->arpe_.admit();
  const Status status = co_await self->set(std::move(key), std::move(value));
  self->arpe_.complete();
  out.set_value(status);
}

sim::Task<void> Engine::iget_coro(Engine* self, kv::Key key,
                                  sim::Promise<Result<Bytes>> out) {
  co_await self->arpe_.admit();
  Result<Bytes> result = co_await self->get(std::move(key));
  self->arpe_.complete();
  out.set_value(std::move(result));
}

}  // namespace hpres::resilience
