// KV client node: the RDMA-Libmemcached analogue. Owns a single-core CPU
// resource on which request-issue work serializes (the "Request" phase of
// the paper's Figure 9 breakdown) and which the client-side erasure engines
// borrow for encode/decode work.
#pragma once

#include "kv/rpc.h"
#include "sim/sync.h"

namespace hpres::kv {

class Client final : public RpcNode {
 public:
  /// CPU time to post one non-blocking request. It does not grow with
  /// the payload: the fabric already charges the eager per-byte copy.
  static constexpr SimDur kIssueNs = 400;

  Client(sim::Simulator& sim, KvFabric& fabric, NodeId id)
      : RpcNode(sim, fabric, id), cpu_(sim, 1) {}

  /// Issues a request asynchronously: the request is stamped at once, its
  /// issue cost serializes on this client's CPU, then it takes call()'s
  /// path (deadline, retries) into the fabric. The future resolves with
  /// the server's response (memcached_iset/iget semantics).
  sim::Future<Response> call_async(NodeId dst, Request req);

  /// Blocking convenience: issue and await (memcached_set/get semantics).
  sim::Task<Response> invoke(NodeId dst, Request req);

  /// The client CPU; erasure engines charge encode/decode time here.
  [[nodiscard]] sim::WorkerPool& cpu() noexcept { return cpu_; }

 protected:
  void on_request(KvEnvelope env) override {
    // Clients never serve requests; stray traffic is dropped.
    (void)env;
  }

 private:
  /// Charges the issue slice, then opens the call's record and sends its
  /// first attempt (the record exists only once the request leaves).
  static sim::Task<void> issue_coro(Client* self, NodeId dst, Request req,
                                    sim::Promise<Response> out);

  sim::WorkerPool cpu_;
};

}  // namespace hpres::kv
