#include "kv/client.h"

namespace hpres::kv {

sim::Future<Response> Client::call_async(NodeId dst, Request req) {
  stamp_epoch(req);
  sim::Promise<Response> promise(sim());
  sim::Future<Response> future = promise.get_future();
  sim().spawn(issue_coro(this, dst, std::move(req), std::move(promise)));
  return future;
}

sim::Task<Response> Client::invoke(NodeId dst, Request req) {
  const sim::Future<Response> f = call_async(dst, std::move(req));
  co_return co_await f.wait();
}

sim::Task<void> Client::issue_coro(Client* self, NodeId dst, Request req,
                                   sim::Promise<Response> out) {
  co_await self->cpu_.execute(kIssueNs);
  self->attempt(new RelayedCall(self, dst, std::move(req), std::move(out)));
}

}  // namespace hpres::kv
