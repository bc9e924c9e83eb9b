#include "resilience/engine.h"

namespace hpres::resilience {

Engine::OpFrame Engine::begin_op(OpKind kind, obs::TraceContext parent,
                                 bool nested) {
  OpFrame op{.kind = kind,
             .nested = nested,
             .t0 = sim().now(),
             .tracer = ctx_.live_tracer()};
  if (op.tracer != nullptr) {
    op.lane = lane_pool_->acquire();
    op.phases.trace_tid = lane_tid(op.lane);
    // Nested (composite-engine) ops continue the parent's trace; top-level
    // ops start a fresh one. trace_id stays 0 when tracing is disabled, so
    // nothing downstream tags or propagates.
    op.phases.trace = parent.valid()
                          ? parent.child(op.phases.trace_tid)
                          : obs::TraceContext{op.tracer->new_trace_id(),
                                              op.phases.trace_tid, 0};
  }
  if (!nested && ctx_.flight != nullptr) {
    ctx_.flight->record(op.t0, client().id(), obs::FlightEventType::kOpStart,
                        0, 0, static_cast<std::uint8_t>(kind));
  }
  return op;
}

void Engine::finish_op(const OpFrame& op, bool ok, bool* degraded_out) {
  const bool get = op.kind == OpKind::kGet;
  const SimDur total = sim().now() - op.t0;
  if (op.tracer != nullptr) {
    op.tracer->complete(trace_pid(), op.phases.trace_tid, get ? "get" : "set",
                        "engine", op.t0, total, op.phases.trace.trace_id);
    lane_pool_->release(op.lane);
  }
  ++(get ? stats_.gets : stats_.sets);
  if (!ok) ++(get ? stats_.get_failures : stats_.set_failures);
  if (degraded_out != nullptr) *degraded_out = op.phases.degraded;
  if (op.nested) return;
  if (ctx_.recorder != nullptr) {
    ctx_.recorder->record(get ? "get" : "set", name(), op.phases.degraded,
                          total, op.phases.trace.trace_id);
  }
  if (ctx_.flight != nullptr) {
    const auto code = static_cast<std::uint8_t>(op.kind);
    if (op.phases.degraded) {
      ctx_.flight->record(sim().now(), client().id(),
                          obs::FlightEventType::kDegraded, 0, 0, code);
    }
    ctx_.flight->record(sim().now(), client().id(),
                        obs::FlightEventType::kOpEnd,
                        static_cast<std::uint64_t>(total),
                        op.phases.degraded ? 1 : 0, code);
  }
}

sim::Task<Status> Engine::set_impl(kv::Key key, SharedBytes value,
                                   obs::TraceContext parent, bool nested,
                                   bool* degraded_out) {
  OpFrame op = begin_op(OpKind::kSet, parent, nested);
  // Under a live placement plane, keep copies for the wrong-epoch retry
  // loop (the copies are host-side only; simulated costs are unchanged).
  kv::Key retry_key;
  SharedBytes retry_value;
  const bool placement_aware = ctx_.placement != nullptr;
  if (placement_aware) {
    retry_key = key;
    retry_value = value;
  }
  Status status =
      co_await do_set(std::move(key), std::move(value), &op.phases);
  if (placement_aware) {
    // A kWrongEpoch bounce means some owner installed a newer epoch than
    // this op was stamped with. The shared ring is already the new one
    // (the authority swaps it before streaming installs), so re-running
    // the scheme re-resolves owners and stamps the fresh epoch. Bounded:
    // epochs only move forward and cutovers are rare per op lifetime.
    for (int retry = 0;
         status.code() == StatusCode::kWrongEpoch && retry < 3; ++retry) {
      ++stats_.wrong_epoch_retries;
      op.phases.degraded = true;
      status = co_await do_set(retry_key, retry_value, &op.phases);
    }
  }
  finish_op(op, status.ok(), degraded_out);
  co_return status;
}

sim::Task<Result<Bytes>> Engine::get_impl(kv::Key key,
                                          obs::TraceContext parent,
                                          bool nested, bool* degraded_out) {
  OpFrame op = begin_op(OpKind::kGet, parent, nested);
  kv::Key fallback_key;
  const bool placement_aware = ctx_.placement != nullptr;
  if (placement_aware) fallback_key = key;
  Result<Bytes> result = co_await do_get(std::move(key), &op.phases);
  if (placement_aware && !result.ok() && ctx_.placement->in_transition &&
      prev_engine_ != nullptr) {
    // Mid-migration miss: the fragments may not have reached their new
    // owners yet. Retry under the pre-cutover ring — data at old positions
    // survives until the post-ack cleanup, so between the two placements
    // every durably written value stays readable.
    bool prev_degraded = false;
    Result<Bytes> prev = co_await prev_engine_->get_nested(
        fallback_key, op.phases.trace, &prev_degraded);
    if (prev.ok()) {
      ++stats_.placement_fallback_gets;
      op.phases.degraded = true;
      result = std::move(prev);
    }
  }
  finish_op(op, result.ok(), degraded_out);
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
  if (ctx_.placement != nullptr && ctx_.placement->in_transition &&
      prev_engine_ != nullptr) {
    // Mid-migration delete: fragments may sit at old positions, new ones,
    // or both, so unlink under both rings. OK if either placement held it.
    kv::Key prev_key = key;
    const Status cur = co_await do_del(std::move(key));
    const Status prev = co_await prev_engine_->do_del(std::move(prev_key));
    if (cur.ok() || prev.ok()) co_return Status::Ok();
    co_return cur;
  }
  co_return co_await do_del(std::move(key));
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
