#include "kv/rpc.h"

#include <optional>
#include <span>
#include <utility>

namespace hpres::kv {

sim::Future<Response> RpcNode::call(NodeId dst, Request req) {
  stamp_epoch(req);
  if (policy_.timeout_ns <= 0) return send(dst, std::move(req));
  last_call_id_ = 0;  // each attempt's id stays inside the retry loop
  sim::Promise<Response> promise(*sim_);
  sim::Future<Response> future = promise.get_future();
  sim_->spawn(guarded_coro(this, dst, std::move(req), std::move(promise)));
  return future;
}

sim::Future<Response> RpcNode::send(NodeId dst, Request req) {
  sim::Promise<Response> promise(*sim_);
  sim::Future<Response> future = promise.get_future();
  if (!fabric_->node_up(dst)) {
    last_call_id_ = 0;
    Response failed;
    failed.rpc_id = req.rpc_id;
    failed.code = StatusCode::kUnavailable;
    promise.set_value(std::move(failed));
    return future;
  }
  req.rpc_id = next_rpc_++;
  req.reply_to = id_;
  last_call_id_ = req.rpc_id;
  pending_.emplace(req.rpc_id,
                   PendingCall{std::move(promise), dst, sim_->now()});
  const std::size_t bytes = payload_bytes(req);
  const obs::TraceContext trace = req.trace;
  fabric_->send(id_, dst, WireBody{std::move(req)}, bytes, trace);
  return future;
}

void RpcNode::cancel(std::uint64_t rpc_id) {
  const auto it = pending_.find(rpc_id);
  if (it == pending_.end()) return;
  sim::Promise<Response> promise = std::move(it->second.promise);
  pending_.erase(it);
  Response cancelled;
  cancelled.rpc_id = rpc_id;
  cancelled.code = StatusCode::kCancelled;
  promise.set_value(std::move(cancelled));
}

sim::Task<Response> RpcNode::call_guarded(NodeId dst, Request req) {
  if (policy_.timeout_ns <= 0) {
    const sim::Future<Response> f = send(dst, std::move(req));
    co_return co_await f.wait();
  }
  for (std::uint32_t attempt = 0;; ++attempt) {
    const sim::Future<Response> f = send(dst, req);  // keep req for retries
    const std::uint64_t rpc_id = last_call_id_;
    if (co_await sim::wait_any(std::span<const sim::Future<Response>>(&f, 1),
                               sim_->now() + policy_.timeout_ns)) {
      co_return *f.try_get();
    }

    ++rpc_stats_.timeouts;
    cancel(rpc_id);  // a late response is dropped as stale by dispatch
    const obs::Sinks& sinks = *sinks_;
    if (sinks.health != nullptr) {
      sinks.health->on_timeout(static_cast<std::size_t>(dst));
    }
    if (sinks.flight != nullptr) {
      sinks.flight->record(sim_->now(), static_cast<std::size_t>(dst),
                           obs::FlightEventType::kRpcTimeout,
                           static_cast<std::uint64_t>(policy_.timeout_ns),
                           static_cast<std::uint32_t>(id_));
    }
    if (obs::Tracer* tr = sinks.live_tracer(); tr != nullptr) {
      tr->complete(sinks.trace_pid, obs::Tracer::kNicTidBase + id_,
                   "rpc/timeout", "rpc", sim_->now() - policy_.timeout_ns,
                   policy_.timeout_ns, req.trace.trace_id);
    }
    if (attempt >= policy_.max_retries) {
      ++rpc_stats_.expired_calls;
      Response expired;
      expired.rpc_id = rpc_id;
      expired.code = StatusCode::kTimeout;
      co_return expired;
    }
    ++rpc_stats_.retries;
    if (sinks.health != nullptr) {
      sinks.health->on_retry(static_cast<std::size_t>(dst));
    }
    if (sinks.flight != nullptr) {
      sinks.flight->record(sim_->now(), static_cast<std::size_t>(dst),
                           obs::FlightEventType::kRpcRetry, attempt,
                           static_cast<std::uint32_t>(id_));
    }
    if (policy_.backoff_ns > 0) {
      co_await sim_->delay(policy_.backoff_ns << attempt);
    }
  }
}

sim::Task<void> RpcNode::guarded_coro(RpcNode* self, NodeId dst, Request req,
                                      sim::Promise<Response> out) {
  out.set_value(co_await self->call_guarded(dst, std::move(req)));
}

sim::Task<void> RpcNode::dispatch_loop(RpcNode* self) {
  auto& inbox = self->fabric_->inbox(self->id_);
  for (;;) {
    std::optional<KvEnvelope> env = inbox.try_recv();
    if (!env) {
      co_await inbox.park();
      continue;
    }
    if (std::holds_alternative<Request>(env->body)) {
      self->on_request(std::move(*env));
    } else {
      auto& resp = std::get<Response>(env->body);
      const auto it = self->pending_.find(resp.rpc_id);
      if (it == self->pending_.end()) continue;  // stale/duplicate response
      sim::Promise<Response> promise = std::move(it->second.promise);
      if (obs::HealthSignals* health = self->sinks_->health;
          health != nullptr) {
        health->on_response(static_cast<std::size_t>(it->second.dst),
                            self->sim_->now() - it->second.sent_at);
      }
      self->pending_.erase(it);
      promise.set_value(std::move(resp));
    }
  }
}

}  // namespace hpres::kv
