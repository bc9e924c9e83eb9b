#include "kv/rpc.h"

#include <optional>
#include <utility>

namespace hpres::kv {

namespace {

/// A response the caller's node makes up itself: a fail-fast send, a
/// cancel, an expired call.
Response local_response(std::uint64_t rpc_id, StatusCode code) {
  Response resp;
  resp.rpc_id = rpc_id;
  resp.code = code;
  return resp;
}

}  // namespace

RpcNode::RelayedCall::RelayedCall(RpcNode* owner, NodeId to,
                                  Request request,
                                  sim::Promise<Response> caller)
    : Call(std::move(caller), to, /*relay=*/true),
      sim::Callback{&RpcNode::run_step},
      node(owner),
      req(std::move(request)),
      trace_id(req.trace.trace_id) {
  timer.wake(static_cast<sim::Callback*>(this));
}

RpcNode::~RpcNode() {
  fabric_->inbox(id_).bind(nullptr);
  for (Call* c : slots_) {
    if (c != nullptr && c->relayed) {
      delete static_cast<RelayedCall*>(c);
    } else {
      delete c;
    }
  }
}


sim::Future<Response> RpcNode::call(NodeId dst, Request req) {
  stamp_epoch(req);
  sim::Promise<Response> promise(*sim_);
  sim::Future<Response> future = promise.get_future();
  if (policy_.timeout_ns > 0) {
    // The attempts start from the event loop, one step after this call,
    // and their ids stay inside the record.
    last_call_id_ = 0;
    sim_->schedule(new RelayedCall(this, dst, std::move(req),
                                   std::move(promise)),
                   0);
  } else if (!fabric_->node_up(dst)) {
    last_call_id_ = 0;
    promise.set_value(local_response(req.rpc_id, StatusCode::kUnavailable));
  } else {
    send(new Call(std::move(promise), dst, /*relay=*/false), std::move(req));
  }
  return future;
}

void RpcNode::send(Call* c, Request req) {
  req.rpc_id = next_rpc_++;
  last_call_id_ = req.rpc_id;
  c->rpc_id = req.rpc_id;
  c->sent_at = sim_->now();
  insert_slot(c);
  const std::size_t bytes = payload_bytes(req);
  const obs::TraceContext trace = req.trace;
  fabric_->send(id_, c->dst, WireBody{std::move(req)}, bytes, trace);
}

void RpcNode::attempt(RelayedCall* c) {
  if (!fabric_->node_up(c->dst)) {
    last_call_id_ = 0;
    finish(c, local_response(c->req.rpc_id, StatusCode::kUnavailable));
    return;
  }
  const bool guarded = policy_.timeout_ns > 0;
  // The last attempt a deadline allows gives the request away; an earlier
  // one sends a copy (values are shared buffers, so the copy is cheap).
  send(c, guarded && c->attempt < policy_.max_retries ? c->req
                                                      : std::move(c->req));
  if (guarded) {
    c->step = RelayedCall::Step::kExpire;
    sim_->arm(&c->timer, policy_.timeout_ns);
  }
}

void RpcNode::cancel(std::uint64_t rpc_id) {
  Call* c = take_slot(rpc_id);
  if (c != nullptr) settle(c, local_response(rpc_id, StatusCode::kCancelled));
}

void RpcNode::run_step(sim::Callback* cb) {
  auto* c = static_cast<RelayedCall*>(cb);
  RpcNode& self = *c->node;
  switch (c->step) {
    case RelayedCall::Step::kSend:
      self.attempt(c);
      break;
    case RelayedCall::Step::kExpire:
      self.expire(c);
      break;
    case RelayedCall::Step::kRelay:
      self.finish(c, std::move(c->reply));
      break;
  }
}

void RpcNode::settle(Call* c, Response resp) {
  if (!c->relayed) {
    c->promise.set_value(std::move(resp));
    delete c;
    return;
  }
  auto* rc = static_cast<RelayedCall*>(c);
  if (rc->timer.expired()) return;
  sim_->disarm(&rc->timer);
  rc->reply = std::move(resp);
  rc->step = RelayedCall::Step::kRelay;
  sim_->schedule(rc, 0);
}

void RpcNode::finish(RelayedCall* c, Response resp) {
  c->promise.set_value(std::move(resp));
  delete c;
}

void RpcNode::expire(RelayedCall* c) {
  const NodeId dst = c->dst;
  ++rpc_stats_.timeouts;
  take_slot(c->rpc_id);  // dispatch drops a late response as stale
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
                 policy_.timeout_ns, c->trace_id);
  }
  if (c->attempt >= policy_.max_retries) {
    ++rpc_stats_.expired_calls;
    finish(c, local_response(c->rpc_id, StatusCode::kTimeout));
    return;
  }
  ++rpc_stats_.retries;
  if (sinks.health != nullptr) {
    sinks.health->on_retry(static_cast<std::size_t>(dst));
  }
  if (sinks.flight != nullptr) {
    sinks.flight->record(sim_->now(), static_cast<std::size_t>(dst),
                         obs::FlightEventType::kRpcRetry, c->attempt,
                         static_cast<std::uint32_t>(id_));
  }
  const SimDur backoff = policy_.backoff_ns << c->attempt;
  ++c->attempt;
  if (policy_.backoff_ns > 0) {
    c->step = RelayedCall::Step::kSend;
    sim_->schedule(c, backoff);
  } else {
    attempt(c);
  }
}

void RpcNode::insert_slot(Call* c) {
  if (2 * (pending_ + 1) > slots_.size()) {
    std::vector<Call*> old(slots_.empty() ? 16 : 2 * slots_.size(), nullptr);
    old.swap(slots_);
    pending_ = 0;
    for (Call* moved : old) {
      if (moved != nullptr) insert_slot(moved);
    }
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = c->rpc_id & mask;
  while (slots_[i] != nullptr) i = (i + 1) & mask;
  slots_[i] = c;
  ++pending_;
}

RpcNode::Call* RpcNode::take_slot(std::uint64_t rpc_id) noexcept {
  if (slots_.empty()) return nullptr;
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = rpc_id & mask;
  while (slots_[hole] != nullptr && slots_[hole]->rpc_id != rpc_id) {
    hole = (hole + 1) & mask;
  }
  Call* const found = slots_[hole];
  if (found == nullptr) return nullptr;
  // Backward shift: pull later entries of the probe run into the hole
  // when the hole lies between their home and their slot.
  for (std::size_t j = (hole + 1) & mask; slots_[j] != nullptr;
       j = (j + 1) & mask) {
    const std::size_t home = slots_[j]->rpc_id & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = nullptr;
  --pending_;
  return found;
}

void RpcNode::dispatch(sim::Callback* cb) {
  RpcNode& self = *static_cast<Dispatch*>(cb)->node;
  KvFabric::Inbox& inbox = self.fabric_->inbox(self.id_);
  while (std::optional<KvEnvelope> env = inbox.try_recv()) {
    if (std::holds_alternative<Request>(env->body)) {
      self.on_request(std::move(*env));
      continue;
    }
    auto& resp = std::get<Response>(env->body);
    Call* c = self.take_slot(resp.rpc_id);
    if (c == nullptr) continue;  // stale/duplicate response
    if (obs::HealthSignals* health = self.sinks_->health; health != nullptr) {
      health->on_response(static_cast<std::size_t>(c->dst),
                          self.sim_->now() - c->sent_at);
    }
    self.settle(c, std::move(resp));
  }
  inbox.drained();
}

}  // namespace hpres::kv
