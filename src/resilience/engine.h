// Resilience engine interface: the client-side layer that turns one
// application Set/Get into the fan-out required by a resilience scheme
// (replication or online erasure coding), with blocking (memcached_set/get)
// and non-blocking (memcached_iset/iget + wait) entry points.
#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "kv/client.h"
#include "obs/flight_recorder.h"
#include "kv/hash_ring.h"
#include "kv/membership.h"
#include "obs/latency.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "resilience/arpe.h"
#include "resilience/load_tracker.h"

namespace hpres::resilience {

/// The resilience designs of the paper's evaluation: three replication
/// baselines and the four erasure offload designs (see erasure_engine.h).
enum class Design : std::uint8_t {
  kNoRep,     ///< single copy, non-blocking API (Memc-RDMA-NoRep baseline)
  kSyncRep,   ///< blocking F-way replication (Sync-Rep)
  kAsyncRep,  ///< non-blocking F-way replication (Async-Rep)
  kEraCeCd,
  kEraSeSd,
  kEraSeCd,
  kEraCeSd,
};

[[nodiscard]] constexpr std::string_view to_string(Design d) noexcept {
  switch (d) {
    case Design::kNoRep: return "no-rep";
    case Design::kSyncRep: return "sync-rep";
    case Design::kAsyncRep: return "async-rep";
    case Design::kEraCeCd: return "era-ce-cd";
    case Design::kEraSeSd: return "era-se-sd";
    case Design::kEraSeCd: return "era-se-cd";
    case Design::kEraCeSd: return "era-ce-sd";
  }
  return "?";
}

[[nodiscard]] constexpr bool is_erasure(Design d) noexcept {
  return d == Design::kEraCeCd || d == Design::kEraSeSd ||
         d == Design::kEraSeCd || d == Design::kEraCeSd;
}

/// Hedged-read configuration for the client-decode erasure Get. The
/// default (delta 0) fetches exactly the k-fragment read set in slot order
/// and arms no hedge — benchmarks and determinism tests compare against it.
// GCC reports a deprecated member's default initializer at every implicit
// construction; only explicit uses of load_aware should warn.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
struct HedgeParams {
  /// Extra fragment fetches armed beyond k; the op completes on the first
  /// k decodable arrivals and cancels the rest. Any delta > 0 also orders
  /// candidate fragments by per-server load score (queue-depth and RTT
  /// EWMAs from piggybacked responses) instead of fixed slot order.
  std::uint32_t delta = 0;
  /// Delay before the hedges fire: they go out only if the op is still
  /// short of k arrivals this long after its fan-out. 0 = with the fan-out.
  SimDur delay_ns = 0;
  /// Ignored: load-aware selection follows delta > 0. Kept only so callers
  /// that still set it alongside delta compile, with a warning.
  [[deprecated("ignored: any delta > 0 ranks fragments by load")]]
  bool load_aware = false;
};
#pragma GCC diagnostic pop

/// Packed-stripe (batched small-object) write-path configuration. The
/// default (pack_threshold 0) disables packing entirely and keeps the
/// byte-exact legacy path — the determinism suite gates on it. The stripe
/// payload budget is ErasureEngine::kStripeCapacity.
struct PackParams {
  /// Values strictly smaller than this are appended into shared stripes
  /// instead of being striped per key. 0 = packing off. The value-size
  /// sweep uses ~4 KiB, where per-key striping is dominated by padding
  /// and per-fragment metadata.
  std::size_t pack_threshold = 0;

  [[nodiscard]] bool enabled() const noexcept { return pack_threshold > 0; }
};

/// Per-engine event counters. Op latency lives in the LatencyRecorder and
/// the phase split in the span tracer; neither is repeated here.
struct EngineStats {
  std::uint64_t sets = 0;
  std::uint64_t gets = 0;
  std::uint64_t dels = 0;
  std::uint64_t set_failures = 0;
  std::uint64_t get_failures = 0;
  std::uint64_t degraded_gets = 0;   ///< gets that needed failure handling
  std::uint64_t degraded_sets = 0;   ///< sets that worked around a dead owner
  std::uint64_t fallback_gets = 0;   ///< CD gets retried via the server path
  std::uint64_t failover_fetches = 0;  ///< alternate-fragment fetches after a
                                       ///< chosen fragment failed or timed out
  std::uint64_t hedged_gets = 0;     ///< gets that fired >= 1 hedge fetch
  std::uint64_t hedges_fired = 0;    ///< extra fragment fetches issued
  std::uint64_t hedge_wins = 0;      ///< hedge fetches that made the decode set
  std::uint64_t hedges_suppressed = 0;  ///< hedges skipped: no spare buffer
  std::uint64_t hedge_wasted_bytes = 0;  ///< fragment bytes fetched but unused
                                         ///< (hedging engines only)
  // Packed-stripe write path (zero when packing is off).
  std::uint64_t packed_sets = 0;        ///< sets routed through stripe packing
  std::uint64_t stripes_sealed = 0;     ///< stripes handed to group commit
  std::uint64_t stripes_timer_sealed = 0;  ///< sealed by the commit timer
  std::uint64_t stripe_record_bytes = 0;   ///< payload bytes packed (pre-code)
  std::uint64_t stripe_fill_x1000 = 0;  ///< mean sealed fill ratio, per-mille
  std::uint64_t packed_get_hits = 0;    ///< gets resolved via stripe locator
  std::uint64_t packed_degraded_gets = 0;  ///< packed gets that decoded
  std::uint64_t staged_reads = 0;       ///< gets served from the staging map
  // Elastic placement (zero with no placement plane attached).
  std::uint64_t wrong_epoch_retries = 0;  ///< sets re-run after a kWrongEpoch
                                          ///< bounce re-resolved the owners
  std::uint64_t placement_fallback_gets = 0;  ///< mid-migration misses served
                                              ///< via the pre-cutover ring

  /// Registers every field into `reg` under component "engine".
  void register_with(obs::MetricsRegistry& reg, std::string node,
                     std::string op = {}) const {
    const obs::MetricLabels labels{"engine", std::move(node), std::move(op)};
    reg.bind_counter("engine.sets", labels, &sets);
    reg.bind_counter("engine.gets", labels, &gets);
    reg.bind_counter("engine.dels", labels, &dels);
    reg.bind_counter("engine.set_failures", labels, &set_failures);
    reg.bind_counter("engine.get_failures", labels, &get_failures);
    reg.bind_counter("engine.degraded_gets", labels, &degraded_gets);
    reg.bind_counter("engine.degraded_sets", labels, &degraded_sets);
    reg.bind_counter("engine.fallback_gets", labels, &fallback_gets);
    reg.bind_counter("engine.failover_fetches", labels, &failover_fetches);
    reg.bind_counter("engine.hedged_gets", labels, &hedged_gets);
    reg.bind_counter("engine.hedges_fired", labels, &hedges_fired);
    reg.bind_counter("engine.hedge_wins", labels, &hedge_wins);
    reg.bind_counter("engine.hedges_suppressed", labels, &hedges_suppressed);
    reg.bind_counter("engine.hedge_wasted_bytes", labels, &hedge_wasted_bytes);
    reg.bind_counter("engine.packed_sets", labels, &packed_sets);
    reg.bind_counter("engine.stripes_sealed", labels, &stripes_sealed);
    reg.bind_counter("engine.stripes_timer_sealed", labels,
                     &stripes_timer_sealed);
    reg.bind_counter("engine.stripe_record_bytes", labels,
                     &stripe_record_bytes);
    // Fill ratio is a level (running mean), not an event count.
    reg.bind_gauge("engine.stripe_fill_x1000", labels, &stripe_fill_x1000);
    reg.bind_counter("engine.packed_get_hits", labels, &packed_get_hits);
    reg.bind_counter("engine.packed_degraded_gets", labels,
                     &packed_degraded_gets);
    reg.bind_counter("engine.staged_reads", labels, &staged_reads);
    reg.bind_counter("engine.wrong_epoch_retries", labels,
                     &wrong_epoch_retries);
    reg.bind_counter("engine.placement_fallback_gets", labels,
                     &placement_fallback_gets);
  }
};

/// Everything a client-side engine needs from its host. All referenced
/// objects must outlive the engine.
struct EngineContext {
  sim::Simulator* sim = nullptr;
  kv::Client* client = nullptr;
  const kv::HashRing* ring = nullptr;
  const kv::Membership* membership = nullptr;
  const std::vector<net::NodeId>* server_nodes = nullptr;
  /// False = size-only payloads (benchmark mode, costs still charged).
  bool materialize = true;
  /// Optional span tracer (may be null / disabled). Purely observational:
  /// never consulted for timing decisions.
  obs::Tracer* tracer = nullptr;
  std::uint32_t trace_pid = 0;
  /// Optional always-on latency percentile recorder. Every set/get lands
  /// here once, keyed by {op, scheme, degraded}.
  obs::LatencyRecorder* recorder = nullptr;
  /// Optional flight recorder. Op start/end events land in this client's
  /// ring; failure-handling events (failover, fallback, hedge) land in the
  /// ring of the server they implicate. Purely observational.
  obs::FlightRecorder* flight = nullptr;

  /// The tracer when attached and enabled, nullptr otherwise — one branch
  /// on the hot path when observability is off.
  [[nodiscard]] obs::Tracer* live_tracer() const noexcept {
    return (tracer != nullptr && tracer->enabled()) ? tracer : nullptr;
  }
};

class Engine {
 protected:
  /// One operation's context, which implementations read and fill.
  /// `trace_tid` is the Perfetto lane this op's spans go on (0 when tracing
  /// is off); concurrent ops get distinct lanes so complete events nest.
  /// `trace` is the op's causal identity: implementations stamp it onto
  /// outgoing requests and tag child spans with its trace id. `degraded`
  /// is set by implementations whenever the op needed failure handling
  /// (dead owner worked around, failover fetch, fallback path). `ring` is
  /// the ring the op resolves owners under: the engine's ring, or the
  /// placement view's previous ring while a mid-migration Get re-runs.
  struct OpContext {
    std::uint64_t trace_tid = 0;
    obs::TraceContext trace;
    bool degraded = false;
    const kv::HashRing* ring = nullptr;
  };

 public:
  Engine(EngineContext ctx, ArpeParams arpe_params)
      : ctx_(ctx), arpe_(*ctx.sim, arpe_params) {
    arpe_.set_tracer(ctx_.tracer, ctx_.trace_pid);
  }
  virtual ~Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Number of simultaneous server failures this engine tolerates.
  [[nodiscard]] virtual std::size_t fault_tolerance() const noexcept = 0;

  /// Blocking Set: resolves when the value is durable per the scheme.
  sim::Task<Status> set(kv::Key key, SharedBytes value);

  /// Blocking Get: resolves with the reassembled value.
  sim::Task<Result<Bytes>> get(kv::Key key);

  /// Blocking Delete: removes the value from every replica / every
  /// fragment owner. OK if any copy existed; kNotFound if none did.
  sim::Task<Status> del(kv::Key key);

  /// Non-blocking variants: admission through the ARPE window, completion
  /// through the returned future (memcached_iset/iget + wait/test).
  sim::Future<Status> iset(kv::Key key, SharedBytes value);
  sim::Future<Result<Bytes>> iget(kv::Key key);

  /// Bulk operations (the paper's Section III-B bulk access patterns):
  /// every element is submitted through the ARPE window before any is
  /// awaited, so the D/B transfer factors of the batch overlap.
  sim::Task<std::vector<Status>> mset(std::vector<kv::Key> keys,
                                      std::vector<SharedBytes> values);
  sim::Task<std::vector<Result<Bytes>>> mget(std::vector<kv::Key> keys);

  /// Waits for every in-flight non-blocking op (memcached_wait on all).
  sim::Task<void> wait_all() { return arpe_.drain(); }

  [[nodiscard]] EngineStats& stats() noexcept { return stats_; }
  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }
  [[nodiscard]] Arpe& arpe() noexcept { return arpe_; }

  /// The per-server load tracker behind load-aware read-set selection, or
  /// nullptr for engines without one (benchmarks export its estimates as
  /// gauges when present).
  [[nodiscard]] virtual const NodeLoadTracker* load_tracker() const noexcept {
    return nullptr;
  }

 protected:
  virtual sim::Task<Status> do_set(kv::Key key, SharedBytes value,
                                   OpContext* op) = 0;
  virtual sim::Task<Result<Bytes>> do_get(kv::Key key, OpContext* op) = 0;
  /// Removes the key's copies placed under `ring`.
  virtual sim::Task<Status> do_del(kv::Key key, const kv::HashRing& ring) = 0;

  [[nodiscard]] const EngineContext& ctx() const noexcept { return ctx_; }
  [[nodiscard]] sim::Simulator& sim() const noexcept { return *ctx_.sim; }
  [[nodiscard]] kv::Client& client() const noexcept { return *ctx_.client; }
  /// The live ring, for owner lookups not tied to a Set/Get (stripe
  /// commits, deletes, constructor checks). A Set/Get resolves through its
  /// OpContext::ring.
  [[nodiscard]] const kv::HashRing& ring() const noexcept {
    return *ctx_.ring;
  }
  [[nodiscard]] const kv::Membership& membership() const noexcept {
    return *ctx_.membership;
  }
  [[nodiscard]] net::NodeId node_of(std::size_t server_index) const {
    return (*ctx_.server_nodes)[server_index];
  }

  /// CPU cost of issuing one request (the Request phase of Figure 9).
  [[nodiscard]] static constexpr SimDur issue_cost() noexcept {
    return kv::Client::kIssueNs;
  }

  /// The attached flight recorder, nullptr when absent.
  [[nodiscard]] obs::FlightRecorder* flight() const noexcept {
    return ctx_.flight;
  }
  [[nodiscard]] std::uint32_t trace_pid() const noexcept {
    return ctx_.trace_pid;
  }

  /// Stamps an engine span on `op`'s lane when tracing is live.
  void span(const OpContext& op, std::string_view name, SimTime start,
            SimDur dur) const {
    if (obs::Tracer* const tr = ctx_.live_tracer(); tr != nullptr) {
      tr->complete(trace_pid(), op.trace_tid, name, "engine", start, dur,
                   op.trace.trace_id);
    }
  }

  /// One traced blocking round trip to server index `server`: stamps the
  /// op's trace context onto `req`, invokes it (issue CPU, then the
  /// response wait) and spans the issue slice as `request_span` and the
  /// rest as `wait_span`.
  sim::Task<kv::Response> call_one(std::size_t server, kv::Request req,
                                   OpContext* op,
                                   std::string_view request_span,
                                   std::string_view wait_span);

  /// The first live owner among the first `slots` slots of `place` (nullopt
  /// when all are down). `degraded` reports that a dead owner was skipped;
  /// T_check (Equation 4) has then been paid, and the caller bumps its
  /// per-verb counter. Await it at once: it reads `place` by reference.
  struct LiveSlot {
    std::optional<std::size_t> slot;
    bool degraded = false;
  };
  sim::Task<LiveSlot> first_live_slot(kv::Placement& place,
                                      std::size_t slots);

  /// The acks of one write fan-out (replicas, fragments or deletes).
  struct WriteTally {
    std::size_t acked = 0;
    StatusCode last_failure = StatusCode::kOk;
    bool bounced = false;  ///< an owner answered kWrongEpoch

    void add(StatusCode code) noexcept {
      if (code == StatusCode::kOk) {
        ++acked;
        return;
      }
      last_failure = code;
      if (code == StatusCode::kWrongEpoch) bounced = true;
    }
    /// A stale-epoch bounce outranks the durability verdict: the whole op
    /// re-runs under the refreshed ring (Engine::set), so partial old-ring
    /// placements never count as stored. Otherwise fewer than `needed`
    /// acks is kUnavailable(`shortfall`), and enough acks report the last
    /// failure seen (kOk when every owner acked).
    [[nodiscard]] Status verdict(std::size_t needed,
                                 std::string_view shortfall) const {
      if (bounced) {
        return Status{StatusCode::kWrongEpoch, "stale placement epoch"};
      }
      if (acked < needed) {
        return Status{StatusCode::kUnavailable, std::string(shortfall)};
      }
      return Status{last_failure};
    }
  };

 private:
  /// The hybrid engine runs its sub-engines' do_set/do_get/do_del inside
  /// its own op, so their spans, ring and degraded flag are that op's.
  friend class HybridEngine;

  static sim::Task<void> iset_coro(Engine* self, kv::Key key,
                                   SharedBytes value,
                                   sim::Promise<Status> out);
  static sim::Task<void> iget_coro(Engine* self, kv::Key key,
                                   sim::Promise<Result<Bytes>> out);

  /// The op kind; its value is the flight-record `code`.
  enum class OpKind : std::uint8_t { kSet = 0, kGet = 1 };

  /// One Set/Get in flight: what begin_op opened and finish_op closes.
  struct OpFrame {
    OpKind kind = OpKind::kSet;
    SimTime t0 = 0;
    obs::Tracer* tracer = nullptr;  ///< live at begin; then `lane` is held
    std::uint32_t lane = 0;
    OpContext op;
  };

  /// Opens an op under the engine's ring: a lane and a fresh trace context
  /// when tracing is live, then kOpStart.
  [[nodiscard]] OpFrame begin_op(OpKind kind);
  /// Closes it, in this order: root span and lane release, counters, the
  /// LatencyRecorder row, then kDegraded/kOpEnd. So every op leaves one
  /// root span, one recorder row and one kOpStart/kOpEnd pair.
  void finish_op(const OpFrame& frame, bool ok);

  /// Lane pool for per-op trace tids (tid = node * kLanesPerNode + lane).
  /// Free lanes are reused lowest-first so same-seed runs allocate
  /// identically and concurrent ops land on distinct Perfetto tracks.
  [[nodiscard]] std::uint64_t lane_tid(std::uint32_t lane) const noexcept {
    return static_cast<std::uint64_t>(client().id()) *
               obs::Tracer::kLanesPerNode +
           lane;
  }

  EngineContext ctx_;
  Arpe arpe_;
  EngineStats stats_;
  obs::LanePool lanes_;
};

}  // namespace hpres::resilience
