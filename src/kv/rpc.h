// Request/response plumbing shared by clients and servers.
//
// Every node owns one fabric inbox. A dispatch loop routes incoming
// Requests to the subclass handler (spawned, so slow handlers never block
// the queue — the multi-threaded Memcached model) and matches incoming
// Responses to pending calls by rpc id. Servers use the same machinery to
// talk to their peers (the paper's server-embedded ARPE with Libmemcached
// client, Section IV-A).
//
// One request path: `call()` is the only uncharged way to issue a request
// (Client::call_async adds the client's CPU issue slice in front of the
// same path). It stamps the placement epoch of the node's view, and under
// a deadline policy (RpcPolicy) races each attempt against its deadline
// with sim::wait_any, retrying with exponential backoff — a destination
// that crashes while the request or response is on the wire (the fabric
// drops silently) never hangs the caller. `cancel()` resolves a pending
// call with kCancelled. With the default policy (timeout 0) a call is one
// send: no timers, no extra events, bit-identical schedules.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "kv/placement.h"
#include "kv/protocol.h"
#include "obs/metrics.h"
#include "obs/sinks.h"
#include "sim/future.h"

namespace hpres::kv {

/// Deadline/retry policy for guarded calls. The default (timeout_ns == 0)
/// means "wait forever" — the controlled-failure model of the paper, and
/// the only safe default for determinism-sensitive experiments (a nonzero
/// timeout arms one cancellable timer per attempt, which becomes an event
/// only if it fires).
struct RpcPolicy {
  SimDur timeout_ns = 0;          ///< per-attempt deadline; 0 = no deadline
  std::uint32_t max_retries = 0;  ///< re-sends after the first attempt
  SimDur backoff_ns = 0;          ///< backoff before retry i: backoff << i
};

/// Per-node timeout/retry accounting.
struct RpcStats {
  std::uint64_t timeouts = 0;     ///< attempts that hit their deadline
  std::uint64_t retries = 0;      ///< re-sends issued after a timeout
  std::uint64_t expired_calls = 0;  ///< calls that exhausted every retry

  /// Registers every field into `reg` under component "rpc".
  void register_with(obs::MetricsRegistry& reg, std::string node,
                     std::string op = {}) const {
    const obs::MetricLabels labels{"rpc", std::move(node), std::move(op)};
    reg.bind_counter("rpc.timeouts", labels, &timeouts);
    reg.bind_counter("rpc.retries", labels, &retries);
    reg.bind_counter("rpc.expired_calls", labels, &expired_calls);
  }
};

class RpcNode {
 public:
  /// The node records into its shard's observability sinks, as bound on
  /// `fabric` (obs::kNoSinks for a standalone fabric).
  RpcNode(sim::Simulator& sim, KvFabric& fabric, NodeId id)
      : sim_(&sim), fabric_(&fabric), id_(id), sinks_(&fabric.sinks_of(id)) {}
  virtual ~RpcNode() = default;
  RpcNode(const RpcNode&) = delete;
  RpcNode& operator=(const RpcNode&) = delete;

  /// Begins dispatching this node's inbox. Must be called exactly once,
  /// before the simulation runs; the RpcNode must outlive the simulation.
  void start() { sim_->spawn(dispatch_loop(this)); }

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] sim::Simulator& sim() const noexcept { return *sim_; }
  [[nodiscard]] KvFabric& fabric() const noexcept { return *fabric_; }

  void set_policy(RpcPolicy policy) noexcept { policy_ = policy; }
  [[nodiscard]] const RpcPolicy& policy() const noexcept { return policy_; }
  [[nodiscard]] const RpcStats& rpc_stats() const noexcept {
    return rpc_stats_;
  }

  /// This node's shard observability record. Its tracer gets "rpc/timeout"
  /// spans (on this node's NIC track) and server handler spans; its health
  /// signals get every matched response's RTT and every deadline expiry and
  /// retry; its flight recorder gets timeout/retry events in the ring of
  /// the *destination* node (the node being suspected), with the caller in
  /// the `b` field. Observation-only — never alters call behaviour or
  /// timing.
  [[nodiscard]] const obs::Sinks& sinks() const noexcept { return *sinks_; }

  /// Attaches the cluster's placement view: every request issued from now
  /// on is stamped with the epoch its owners were resolved under (unless
  /// the caller stamped one itself). Only clients carry a view; null
  /// detaches (placement-unaware, epoch 0).
  void set_placement_view(const PlacementView* view) noexcept {
    placement_ = view;
  }

  /// Sends a request; the future resolves with the peer's response. A
  /// request to a node known-dead by the fabric resolves at once with
  /// kUnavailable (the HCA-level send fails fast). Under this node's
  /// RpcPolicy each attempt races the response against the deadline; a
  /// timed-out attempt is cancelled (a late response is dropped as stale)
  /// and retried after exponential backoff until max_retries is exhausted,
  /// then the call resolves kTimeout. With the default policy (no
  /// deadline) a crash after the send leaves the future unresolved until
  /// cancel().
  sim::Future<Response> call(NodeId dst, Request req);

  /// Abandons a pending call and resolves its future with kCancelled, so a
  /// coroutine awaiting it unwinds instead of parking forever; a late wire
  /// response is dropped as stale. No-op for unknown or resolved ids.
  void cancel(std::uint64_t rpc_id);

  /// Rpc id of this node's most recent call(), for cancel(). 0 when that
  /// call failed fast or carries a deadline: a guarded call resolves
  /// through its own deadline.
  [[nodiscard]] std::uint64_t last_call_id() const noexcept {
    return last_call_id_;
  }

 protected:
  /// Handles one incoming request envelope. Implementations should spawn a
  /// coroutine for any work that suspends.
  virtual void on_request(KvEnvelope env) = 0;

  /// Sends a response back to a requester. The response's trace context
  /// (echoed from the request by the handler) tags the return transfer.
  void respond(NodeId dst, Response resp) {
    const std::size_t bytes = payload_bytes(resp);
    const obs::TraceContext trace = resp.trace;
    fabric_->send(id_, dst, WireBody{std::move(resp)}, bytes, trace);
  }

  /// Stamps the attached view's epoch onto an unstamped request. Runs at
  /// issue time, synchronously with the caller's owner resolution, so
  /// {dst, epoch} always describe the same ring.
  void stamp_epoch(Request& req) const noexcept {
    if (placement_ != nullptr && req.epoch == 0) req.epoch = placement_->epoch;
  }

  /// The retry loop behind call(): sends attempts under this node's
  /// RpcPolicy and yields the final response (kTimeout once every attempt
  /// expired). Retries re-send the same request (values are shared
  /// buffers, so the copy is cheap).
  sim::Task<Response> call_guarded(NodeId dst, Request req);

 private:
  /// One attempt on the wire: registers the pending call and sends. A
  /// crash after the send leaves the future unresolved until cancel().
  sim::Future<Response> send(NodeId dst, Request req);

  static sim::Task<void> dispatch_loop(RpcNode* self);
  static sim::Task<void> guarded_coro(RpcNode* self, NodeId dst, Request req,
                                      sim::Promise<Response> out);

  /// One in-flight call: the promise to resolve plus where/when it went,
  /// so the dispatch loop can attribute the RTT to the destination.
  struct PendingCall {
    sim::Promise<Response> promise;
    NodeId dst = 0;
    SimTime sent_at = 0;
  };

  sim::Simulator* sim_;
  KvFabric* fabric_;
  NodeId id_;
  std::uint64_t next_rpc_ = 1;
  std::uint64_t last_call_id_ = 0;  ///< see last_call_id()
  std::unordered_map<std::uint64_t, PendingCall> pending_;
  RpcPolicy policy_;
  RpcStats rpc_stats_;
  const obs::Sinks* sinks_;
  const PlacementView* placement_ = nullptr;
};

}  // namespace hpres::kv
