// Request/response plumbing shared by clients and servers.
//
// Every node owns one fabric inbox, and binds its dispatch callback to it:
// a message landing on the idle inbox schedules one dispatch pass, which
// drains the inbox, routes incoming Requests to the subclass handler (which
// spawns its work, so slow handlers never block the queue — the
// multi-threaded Memcached model) and matches incoming Responses to pending
// calls by rpc id. Servers use the same machinery to talk to their peers
// (the paper's server-embedded ARPE with Libmemcached client, Section
// IV-A).
//
// One request path: `call()` is the only uncharged way to issue a request
// (Client::call_async adds the client's CPU issue slice in front of the
// same path). It stamps the placement epoch of the node's view, and under
// a deadline policy (RpcPolicy) races each attempt against a cancellable
// sim::Timer, retrying with exponential backoff — a destination that
// crashes while the request or response is on the wire (the fabric drops
// silently) never hangs the caller. `cancel()` resolves a pending call
// with kCancelled. With the default policy (timeout 0) a call is one send:
// no timers, no extra events, bit-identical schedules.
//
// Every pending call is one pooled record (a FramePool block), found by
// rpc id in a slot table. A plain call's record holds only the caller's
// promise, its destination and send time. A guarded or issued call's
// record also holds the attempt's deadline Timer, the attempt count and
// the request kept for re-sends, and is itself the sim::Callback that runs
// the call's steps: no coroutine frame and no per-attempt promise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "kv/placement.h"
#include "kv/protocol.h"
#include "obs/metrics.h"
#include "obs/sinks.h"
#include "sim/frame_pool.h"
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
      : sim_(&sim),
        fabric_(&fabric),
        id_(id),
        sinks_(&fabric.sinks_of(id)),
        dispatch_{{&RpcNode::dispatch}, this} {}
  /// Unbinds the inbox, drops the calls still pending and disarms their
  /// deadlines; the simulator and the fabric must still exist, and no
  /// dispatch pass may be due (drain the simulator first).
  virtual ~RpcNode();
  RpcNode(const RpcNode&) = delete;
  RpcNode& operator=(const RpcNode&) = delete;

  /// Binds this node's dispatch callback to its inbox, which schedules a
  /// first pass. Must be called exactly once, before the simulation runs.
  void start() { fabric_->inbox(id_).bind(&dispatch_); }

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
  /// The attached placement view, or null. Engines read it through their
  /// client: stale-epoch Set bounces retry under the refreshed ring and
  /// mid-migration Get misses re-run under the view's previous ring.
  [[nodiscard]] const PlacementView* placement_view() const noexcept {
    return placement_;
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
  /// One pending call: what dispatch needs to match and attribute
  /// its response. A plain call() is only this. Records come from the
  /// thread's FramePool.
  struct Call {
    Call(sim::Promise<Response> caller, NodeId to, bool relay)
        : promise(std::move(caller)), dst(to), relayed(relay) {}
    Call(const Call&) = delete;  // the slot table holds its address
    Call& operator=(const Call&) = delete;

    static void* operator new(std::size_t bytes) {
      return sim::detail::FramePool::allocate(bytes);
    }
    static void operator delete(void* p, std::size_t bytes) noexcept {
      sim::detail::FramePool::deallocate(p, bytes);
    }

    sim::Promise<Response> promise;  ///< the caller's
    SimTime sent_at = 0;             ///< of the current attempt (RTT)
    std::uint64_t rpc_id = 0;        ///< of the current attempt
    NodeId dst;
    /// A RelayedCall: its caller resumes through a delay-0 relay step
    /// rather than from the response's own event.
    bool relayed;
  };

  /// A guarded or issued call. Its steps (start, deadline expiry, backoff
  /// retry, reply relay) run as this Callback, which the attempt's
  /// deadline Timer wakes too. The relay step resumes the caller one event
  /// after the response, where a coroutine waiting on the attempt would
  /// have woken.
  struct RelayedCall : Call, sim::Callback {
    /// What run_step does next: send an attempt (the start, a retry after
    /// backoff), handle the deadline's expiry, or resume the caller.
    enum class Step : std::uint8_t { kSend, kExpire, kRelay };

    RelayedCall(RpcNode* owner, NodeId to, Request request,
                sim::Promise<Response> caller);
    ~RelayedCall() { node->sim_->disarm(&timer); }

    RpcNode* node;
    Request req;       ///< until sent; kept for re-sends under a deadline
    Response reply;    ///< held for the relay step
    sim::Timer timer;  ///< the current attempt's deadline
    std::uint64_t trace_id;  ///< the request's, for the timeout span
    std::uint32_t attempt = 0;
    Step step = Step::kSend;
  };

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

  /// Sends the call's next attempt under this node's RpcPolicy: fails
  /// fast to a known-dead destination, else sends it and, under a
  /// deadline, arms the attempt's timer right after the send.
  void attempt(RelayedCall* c);

 private:
  /// The node's dispatch callback, bound to its inbox.
  struct Dispatch : sim::Callback {
    RpcNode* node;
  };

  /// One dispatch pass: drains the inbox, handing requests to on_request()
  /// and settling the pending call each response answers.
  static void dispatch(sim::Callback* cb);
  static void run_step(sim::Callback* cb);

  /// Registers `c` under a fresh rpc id and puts `req` on the wire.
  void send(Call* c, Request req);
  /// The deadline of `c`'s attempt expired: the attempt is cancelled (a
  /// late response is dropped as stale) and retried after backoff, or the
  /// call resolves kTimeout once every retry is spent.
  void expire(RelayedCall* c);
  /// An attempt of `c` was answered or cancelled (its slot is gone). A
  /// plain call resolves at once. A relayed call disarms its deadline and
  /// resumes its caller from a delay-0 relay step, or drops `resp` if its
  /// deadline already expired (the expiry step owns the record).
  void settle(Call* c, Response resp);
  /// Resolves the caller at once and frees the record.
  void finish(RelayedCall* c, Response resp);

  /// Pending-call slot table: open addressing on `rpc_id & mask`, linear
  /// probing, kept at most half full, backward-shift deletion. Ids are
  /// sequential, so a slot's home is almost always free; the table grows
  /// with the number of calls in flight, never with the ids issued.
  void insert_slot(Call* c);
  /// Removes and returns the pending call with `rpc_id`, or null.
  Call* take_slot(std::uint64_t rpc_id) noexcept;

  sim::Simulator* sim_;
  KvFabric* fabric_;
  NodeId id_;
  std::uint64_t next_rpc_ = 1;
  std::uint64_t last_call_id_ = 0;  ///< see last_call_id()
  std::vector<Call*> slots_;        ///< see insert_slot()
  std::size_t pending_ = 0;         ///< calls in slots_
  RpcPolicy policy_;
  RpcStats rpc_stats_;
  const obs::Sinks* sinks_;
  const PlacementView* placement_ = nullptr;
  Dispatch dispatch_;
};

}  // namespace hpres::kv
