// KV server process: storage engine + worker pool + request handlers,
// including the server-side erasure offloads (kSetEncode / kGetDecode)
// that implement the paper's Era-SE-* and Era-*-SD designs.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "ec/codec.h"
#include "ec/cost_model.h"
#include "kv/hash_ring.h"
#include "kv/membership.h"
#include "kv/rpc.h"
#include "kv/store.h"
#include "sim/sync.h"

namespace hpres::kv {

struct ServerParams {
  std::uint32_t workers = 8;            ///< worker threads (paper: 8)
  std::uint64_t memory_bytes = 20ULL * 1024 * 1024 * 1024;  ///< 20 GB default
  /// SSD overflow tier (0 = disabled): the SSD-assisted hybrid design of
  /// the RDMA-Memcached the paper builds on.
  std::uint64_t ssd_bytes = 0;
};

/// Erasure-coding context a server needs only when it participates in
/// server-side encode/decode. All referenced objects must outlive the
/// server.
struct ServerEcContext {
  const ec::Codec* codec = nullptr;
  ec::CostModel cost;
  const HashRing* ring = nullptr;
  const Membership* membership = nullptr;
  const std::vector<NodeId>* server_nodes = nullptr;  ///< index -> NodeId
  std::size_t my_index = 0;                           ///< index in the list
  /// When false, chunk payloads are size-only placeholders (benchmarks);
  /// when true, real bytes flow and decode really reconstructs (tests).
  bool materialize = true;
};

class Server final : public RpcNode {
 public:
  Server(sim::Simulator& sim, KvFabric& fabric, NodeId id,
         ServerParams params);

  /// Enables server-side erasure offload handling.
  void enable_ec(ServerEcContext ctx) { ec_ = std::move(ctx); }

  [[nodiscard]] StorageEngine& store() noexcept { return store_; }
  [[nodiscard]] const StorageEngine& store() const noexcept { return store_; }

  /// Bytes held by the packed-stripe locator directory (key + stripe key +
  /// offset/len per entry) — counted into the memory-efficiency accounting
  /// alongside store().bytes_used().
  [[nodiscard]] std::uint64_t stripe_index_bytes() const noexcept {
    return stripe_dir_bytes_;
  }
  [[nodiscard]] std::size_t stripe_index_entries() const noexcept {
    return stripe_dir_.size();
  }

  /// Marks this server failed: it stops serving (requests are dropped) and
  /// the fabric refuses traffic to it. With no RpcPolicy armed, callers
  /// must ensure no operation is mid-flight to this node
  /// (controlled-failure experiments); under a FaultSchedule, in-flight
  /// callers resolve via RPC deadlines instead.
  void fail();
  void recover();
  [[nodiscard]] bool failed() const noexcept { return failed_; }

  /// Gray failure: multiplies this server's compute costs by `factor`
  /// (>= 1.0) without touching fabric or membership — the node still
  /// answers, just slowly. Models a queue-saturated / thermally-throttled
  /// server for hedged-read experiments. 1.0 restores normal speed.
  void set_slowdown(double factor) noexcept {
    slowdown_ = factor < 1.0 ? 1.0 : factor;
  }
  [[nodiscard]] double slowdown() const noexcept { return slowdown_; }

  /// Handler tasks queued behind busy workers right now (the load signal
  /// piggybacked on every Response).
  [[nodiscard]] std::uint32_t queue_depth() const noexcept {
    return static_cast<std::uint32_t>(workers_.queue_depth());
  }

  /// Highest placement epoch installed via kPlacementEpoch (0 until the
  /// placement plane first streams one).
  [[nodiscard]] std::uint64_t placement_epoch() const noexcept {
    return placement_epoch_;
  }
  /// Writes bounced with kWrongEpoch because they carried a stale epoch.
  [[nodiscard]] std::uint64_t wrong_epoch_bounces() const noexcept {
    return wrong_epoch_bounces_;
  }

 protected:
  void on_request(KvEnvelope env) override;

 private:
  /// Per-handler trace state. When the request carries a valid TraceContext
  /// and a tracer is live, acquires a handler lane (tid = node *
  /// kLanesPerNode + lane) and exposes the server-side child context that
  /// responses and peer fan-out requests propagate. mark_done() ends the
  /// "server/handle" span at the respond instant; the destructor (runs at
  /// coroutine frame destruction, which may be after background fragment
  /// distribution) emits it late if mark_done was never reached and always
  /// releases the lane. Inert (all no-ops) for untraced requests.
  class HandlerTrace {
   public:
    HandlerTrace(Server& server, const Request& req);
    ~HandlerTrace();
    HandlerTrace(const HandlerTrace&) = delete;
    HandlerTrace& operator=(const HandlerTrace&) = delete;

    [[nodiscard]] const obs::TraceContext& ctx() const noexcept {
      return ctx_;
    }
    /// Ends the "server/handle" span at the current instant.
    void mark_done();
    /// Worker-pool queue wait: the first execute() of a handler started at
    /// `enqueued_ns` and charged `cost_ns`; any excess is queueing.
    void queue_span(SimTime enqueued_ns, SimDur cost_ns);
    /// Tagged compute span on the handler lane (server-side encode/decode).
    void compute_span(std::string_view name, SimTime begin_ns);

   private:
    Server* server_ = nullptr;
    obs::Tracer* tr_ = nullptr;
    std::uint32_t lane_ = 0;
    SimTime begin_ = 0;
    bool done_ = false;
    obs::TraceContext ctx_;
  };

  /// What a plain verb did: the reply, plus the worker time still owed
  /// before it is sent, charged in this order.
  struct PlainOutcome {
    Response resp;
    std::optional<SimDur> device_ns;  ///< SSD access (promotion/demotion)
    std::optional<SimDur> work_ns;    ///< the read or scan itself
  };

  /// The synchronous half of handle_plain (kSet, kGet, kDelete, kScan,
  /// kSetStripeIndex): applies the verb to the store or the locator
  /// directory. Kept out of the coroutine so the handler frame stays small.
  PlainOutcome apply_plain(const Request& req, const obs::TraceContext& trace);

  static sim::Task<void> handle_plain(Server* self, KvEnvelope env);
  static sim::Task<void> handle_set_encode(Server* self, KvEnvelope env);
  static sim::Task<void> handle_get_decode(Server* self, KvEnvelope env);

  /// Scales a compute cost by the gray-failure slowdown. The common case
  /// (slowdown 1.0) returns the cost unchanged — no float rounding, so
  /// healthy-server schedules stay bit-identical.
  [[nodiscard]] SimDur slow(SimDur cost) const noexcept {
    if (slowdown_ == 1.0) return cost;
    return static_cast<SimDur>(static_cast<double>(cost) * slowdown_);
  }

  static constexpr SimDur kRequestCpuNs = 1'500;  ///< dispatch + hashing
  /// Value copy + slab alloc (~2 GB/s).
  static constexpr double kStoreNsPerByte = 0.5;
  /// Read path is far cheaper: responses DMA straight out of the
  /// registered slab (RDMA-Memcached's near-zero-copy get).
  static constexpr double kReadNsPerByte = 0.12;

  [[nodiscard]] SimDur touch_cost(std::size_t bytes) const noexcept {
    return slow(kRequestCpuNs +
                static_cast<SimDur>(kStoreNsPerByte *
                                    static_cast<double>(bytes)));
  }
  [[nodiscard]] SimDur read_cost(std::size_t bytes) const noexcept {
    return slow(kRequestCpuNs +
                static_cast<SimDur>(kReadNsPerByte *
                                    static_cast<double>(bytes)));
  }

  /// True when the process that accepted a request with crash count
  /// `crashes` is gone: the server is down now, or it crashed and
  /// restarted meanwhile. Handlers re-check after every worker wait that
  /// precedes a store write, so queued work dies with the process.
  [[nodiscard]] bool crashed_since(std::uint64_t crashes) const noexcept {
    return failed_ || crashes_ != crashes;
  }

  /// respond() with the current handler queue depth stamped on the
  /// response, dropped when this server has failed. All handler replies go
  /// through here so the load signal is never forgotten.
  void reply(NodeId dst, Response resp) {
    if (failed_) return;
    resp.queue_depth = queue_depth();
    respond(dst, std::move(resp));
  }

  StorageEngine store_;
  sim::WorkerPool workers_;
  /// Packed-stripe locator directory: user key -> sub-slot location.
  /// Deliberately outside the LRU store (locators must not be evicted
  /// under value pressure); bytes are accounted separately.
  std::map<Key, StripeLoc> stripe_dir_;
  std::uint64_t stripe_dir_bytes_ = 0;
  std::optional<ServerEcContext> ec_;
  obs::LanePool handler_lanes_;
  bool failed_ = false;
  std::uint64_t crashes_ = 0;  ///< fail() calls so far
  double slowdown_ = 1.0;
  std::uint64_t placement_epoch_ = 0;
  std::uint64_t wrong_epoch_bounces_ = 0;
};

}  // namespace hpres::kv
