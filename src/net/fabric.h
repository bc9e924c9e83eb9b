// Simulated message fabric: per-node NICs with bandwidth serialization, a
// shared wire latency, and the eager/rendezvous protocol switch of
// RDMA-Memcached. The fabric is templated on the message body so upper
// layers define their own wire protocol; delivery order per (src, dst) pair
// is FIFO, matching a reliable connected transport (IB RC queue pairs).
//
// Timing model for a payload of s bytes from A to B at time t (see
// DESIGN.md): the message first waits for A's send NIC, occupies it for
// ser = per_message + s/B (plus the rendezvous handshake for large
// messages), crosses the wire in latency L, then occupies B's receive NIC
// for its serialization time (this is what creates incast queueing when K
// chunk responses converge on one client). An unloaded transfer completes
// in per_message + L + s/B — the paper's Equation 1.
//
// Sharding: the fabric is also the shard boundary of the parallel runtime
// (DESIGN.md "Shard runtime"). Every node lives on exactly one shard. A
// send resolves the sender's NIC on the sender's shard; the receive step
// (receive NIC claim, rx trace, delivery) runs inline when both nodes share
// a shard (byte-identical to the single-threaded fabric), and is posted to
// the receiving shard at wire arrival otherwise, at least one wire latency
// later — the lookahead bound the conservative scheduler runs on.
// Mutable state is strictly shard-owned during parallel runs: the sender's
// shard owns tx NIC state and send-side counters, the receiver's shard owns
// rx NIC state, inboxes, delivery counters and the pool of delivery
// records. Topology state (up/loss flags) is read-only while shards run;
// fault injection mutates it either in oracle mode or from a ShardRuntime
// quiesce hook (every shard thread parked, the barrier publishes the
// writes).
//
// Delivery is event-driven: a node binds its dispatch callback to its
// inbox, and a message landing on an idle inbox schedules that callback;
// nothing waits on an inbox.
//
// Observability under sharding follows the same single-writer rule: each
// shard's state points at that shard's obs::Sinks record (bound once, by
// the shard-aware constructor), and every recording a send or delivery
// makes goes to the acting shard's sinks (the sender's for tx spans and
// drops, the receiver's for rx spans). Per-shard domains are merged
// deterministically at quiescence (cluster::Cluster::merge_obs_domains);
// with one shard the record holds the classic single instances and the
// output is byte-identical to the pre-shard fabric. Standalone fabrics
// point every shard at obs::kNoSinks and record nothing.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "net/params.h"
#include "obs/metrics.h"
#include "obs/sinks.h"
#include "obs/trace.h"
#include "sim/shard_runtime.h"
#include "sim/simulator.h"

namespace hpres::net {

/// Delivery wrapper handed to the receiving node's inbox.
template <typename Body>
struct Envelope {
  NodeId src = 0;
  NodeId dst = 0;
  SimTime sent_at = 0;
  SimTime delivered_at = 0;
  std::size_t wire_bytes = 0;
  Body body;
};

/// Aggregate transfer statistics (per fabric), both directions. Send and
/// receive sides are tracked independently so send/recv asymmetry under
/// injected failures is visible. Two conservation identities hold:
///   messages_sent == messages_delivered + messages_dropped + in flight
///   bytes_sent    == bytes_delivered + bytes_dropped + in-flight payload
/// (in_flight_bytes() counts wire bytes, i.e. payload + header; with
/// header_bytes == 0 the byte identity holds mid-flight too, and at
/// quiescence it holds for any header size).
struct FabricStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_dropped = 0;  ///< total drops (sum of causes below)
  std::uint64_t drops_dst_down = 0;    ///< destination HCA was down
  std::uint64_t drops_src_down = 0;    ///< sender itself was marked down
  std::uint64_t drops_injected = 0;    ///< seeded random loss (set_loss)
  std::uint64_t bytes_sent = 0;        ///< payload bytes accepted for send
  std::uint64_t bytes_dropped = 0;     ///< payload bytes of dropped messages
  std::uint64_t rendezvous_handshakes = 0;
  std::uint64_t messages_delivered = 0;  ///< landed in a destination inbox
  std::uint64_t bytes_delivered = 0;     ///< payload bytes delivered

  /// Registers every field into `reg` under component "fabric".
  void register_with(obs::MetricsRegistry& reg, std::string node,
                     std::string op = {}) const {
    const obs::MetricLabels labels{"fabric", std::move(node), std::move(op)};
    reg.bind_counter("fabric.messages_sent", labels, &messages_sent);
    reg.bind_counter("fabric.messages_dropped", labels, &messages_dropped);
    reg.bind_counter("fabric.drops_dst_down", labels, &drops_dst_down);
    reg.bind_counter("fabric.drops_src_down", labels, &drops_src_down);
    reg.bind_counter("fabric.drops_injected", labels, &drops_injected);
    reg.bind_counter("fabric.bytes_sent", labels, &bytes_sent);
    reg.bind_counter("fabric.bytes_dropped", labels, &bytes_dropped);
    reg.bind_counter("fabric.rendezvous_handshakes", labels,
                     &rendezvous_handshakes);
    reg.bind_counter("fabric.messages_delivered", labels,
                     &messages_delivered);
    reg.bind_counter("fabric.bytes_delivered", labels, &bytes_delivered);
  }

  void accumulate(const FabricStats& other) noexcept {
    messages_sent += other.messages_sent;
    messages_dropped += other.messages_dropped;
    drops_dst_down += other.drops_dst_down;
    drops_src_down += other.drops_src_down;
    drops_injected += other.drops_injected;
    bytes_sent += other.bytes_sent;
    bytes_dropped += other.bytes_dropped;
    rendezvous_handshakes += other.rendezvous_handshakes;
    messages_delivered += other.messages_delivered;
    bytes_delivered += other.bytes_delivered;
  }
};

template <typename Body>
class Fabric {
  struct ShardState;
  struct Delivery;

 public:
  /// A node's receive queue: an intrusive FIFO of landed delivery records
  /// and the node's dispatch callback. Owned by the node's shard. A message
  /// landing on an idle inbox schedules the bound callback at delay 0;
  /// messages landing before it runs only join the queue, and its pass
  /// drains them all with try_recv() and ends with drained().
  class Inbox {
   public:
    explicit Inbox(sim::Simulator& sim) noexcept : sim_(&sim) {}
    Inbox(const Inbox&) = delete;
    Inbox& operator=(const Inbox&) = delete;

    /// Messages landed and not yet received (queue-depth gauge).
    [[nodiscard]] std::size_t size() const noexcept { return size_; }

    /// Takes the oldest message, or nullopt when empty. The record goes
    /// back to its shard's pool.
    std::optional<Envelope<Body>> try_recv() {
      Delivery* d = head_;
      if (d == nullptr) return std::nullopt;
      head_ = d->next;
      if (head_ == nullptr) tail_ = nullptr;
      --size_;
      std::optional<Envelope<Body>> env(std::move(d->env));
      d->shard->release(d);
      return env;
    }

    /// Binds the callback that receives this inbox's messages and
    /// schedules its first pass, for messages that landed before; null
    /// unbinds, and later messages only queue. A bound callback must
    /// outlive every pass it has scheduled.
    void bind(sim::Callback* dispatch) {
      dispatch_ = dispatch;
      schedule_dispatch();
    }

    /// Ends a dispatch pass: called once try_recv() came back empty, so
    /// the next landing schedules the callback again.
    void drained() noexcept { scheduled_ = false; }

   private:
    friend class Fabric;

    /// Schedules the bound callback at delay 0, unless it is already
    /// scheduled or none is bound.
    void schedule_dispatch() {
      if (dispatch_ == nullptr || scheduled_) return;
      scheduled_ = true;
      sim_->schedule(dispatch_, 0);
    }

    /// Links a landed record at the tail and schedules the dispatch pass.
    void land(Delivery* d) {
      d->next = nullptr;
      if (tail_ == nullptr) {
        head_ = d;
      } else {
        tail_->next = d;
      }
      tail_ = d;
      ++size_;
      schedule_dispatch();
    }

    sim::Simulator* sim_;
    Delivery* head_ = nullptr;
    Delivery* tail_ = nullptr;
    std::size_t size_ = 0;
    sim::Callback* dispatch_ = nullptr;
    bool scheduled_ = false;  ///< a pass of dispatch_ is due
  };

  /// Node `i` lives on `runtime.shard(node_shard[i])`. A one-shard runtime
  /// is the deterministic oracle configuration: every node on one loop.
  /// `shard_sinks` (one record per shard, or empty for none) are the
  /// observability records each shard records into; they must outlive the
  /// fabric.
  Fabric(sim::ShardRuntime& runtime, FabricParams params,
         std::vector<std::uint32_t> node_shard,
         std::span<const obs::Sinks> shard_sinks = {})
      : params_(params),
        nics_(node_shard.size()),
        runtime_(&runtime),
        node_shard_(std::move(node_shard)) {
    assert(shard_sinks.empty() || shard_sinks.size() == runtime.num_shards());
    node_sim_.reserve(node_shard_.size());
    for (const std::uint32_t s : node_shard_) {
      assert(s < runtime.num_shards());
      node_sim_.push_back(&runtime.shard(s));
    }
    for (std::size_t s = 0; s < runtime.num_shards(); ++s) {
      shard_state_.push_back(std::make_unique<ShardState>());
      if (!shard_sinks.empty()) shard_state_[s]->sinks = &shard_sinks[s];
    }
    seed_loss_streams(kLossSeed);
    init_inboxes();
  }

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return inboxes_.size();
  }
  [[nodiscard]] const FabricParams& params() const noexcept { return params_; }

  /// Transfer counters. Single-shard fabrics return the live struct (the
  /// metrics registry binds its fields by pointer); multi-shard fabrics
  /// return the merged snapshot, refreshed by merge_stats() — the cluster
  /// refreshes it after every run, so bound pointers read current sums at
  /// capture time.
  [[nodiscard]] const FabricStats& stats() const noexcept {
    return shard_state_.size() == 1 ? shard_state_[0]->stats : merged_stats_;
  }

  /// Recomputes the merged multi-shard counter snapshot. Call at
  /// quiescence (between runs); a no-op for single-shard fabrics.
  void merge_stats() noexcept {
    if (shard_state_.size() == 1) return;
    merged_stats_ = FabricStats{};
    merged_in_flight_bytes_ = 0;
    merged_in_flight_messages_ = 0;
    for (const auto& st : shard_state_) {
      merged_stats_.accumulate(st->stats);
      merged_in_flight_bytes_ += st->in_flight_bytes;
      merged_in_flight_messages_ += st->in_flight_messages;
    }
  }

  /// Wire bytes sent but not yet delivered (time-series gauge for the
  /// periodic sampler; multi-shard values are snapshots from merge_stats).
  [[nodiscard]] std::uint64_t in_flight_bytes() const noexcept {
    return shard_state_.size() == 1 ? shard_state_[0]->in_flight_bytes
                                    : merged_in_flight_bytes_;
  }
  [[nodiscard]] std::uint64_t in_flight_messages() const noexcept {
    return shard_state_.size() == 1 ? shard_state_[0]->in_flight_messages
                                    : merged_in_flight_messages_;
  }
  /// Live in-flight wire bytes charged to shard `s` (single-writer; read
  /// it from that shard's thread or from a quiesce hook).
  [[nodiscard]] std::uint64_t in_flight_bytes_of_shard(
      std::size_t s) const noexcept {
    assert(s < shard_state_.size());
    return shard_state_[s]->in_flight_bytes;
  }

  /// The observability record `id`'s shard records into: its tracer gets
  /// NIC occupancy spans ("fabric/send" on the sender's NIC track,
  /// "fabric/recv" on the receiver's), its health signals and flight
  /// recorder get drops. Nodes read their own sinks from here.
  [[nodiscard]] const obs::Sinks& sinks_of(NodeId id) const {
    assert(id < node_shard_.size());
    return *shard_state_[node_shard_[id]]->sinks;
  }

  /// The receive queue for a node, which schedules the node's bound
  /// dispatch callback as messages land. Owned by the node's shard.
  [[nodiscard]] Inbox& inbox(NodeId id) {
    assert(id < inboxes_.size());
    return *inboxes_[id];
  }

  /// The simulator that drives `id`'s events (its shard's event loop).
  [[nodiscard]] sim::Simulator& sim_of(NodeId id) {
    assert(id < node_sim_.size());
    return *node_sim_[id];
  }
  [[nodiscard]] std::uint32_t shard_of(NodeId id) const {
    assert(id < node_shard_.size());
    return node_shard_[id];
  }

  /// Marks a node up/down. Messages to or from a down node are dropped
  /// silently (its HCA is gone) — exactly what a crashed peer looks like on
  /// an RC transport. Senders survive this two ways (DESIGN.md failure
  /// model): requests in flight at crash time resolve through RPC deadlines
  /// (RpcPolicy timeouts), and later placement decisions consult the
  /// membership oracle once it observes the failure after the configured
  /// detection lag (FaultSchedule). Topology flags are read by every shard:
  /// mutate only in oracle mode, between runs, or from a quiesce hook.
  void set_node_up(NodeId id, bool up) {
    assert(id < nics_.size());
    nics_[id].up = up;
  }
  [[nodiscard]] bool node_up(NodeId id) const {
    assert(id < nics_.size());
    return nics_[id].up;
  }

  /// Enables seeded random message loss: each send is independently dropped
  /// with probability `probability` (counted under drops_injected). Models
  /// a flaky link for timeout/retry experiments; deterministic per seed.
  /// Pass 0 to disable (the default — no RNG draw on the send path).
  /// Reseeds every shard's stream (seed_loss_streams).
  void set_loss(double probability, std::uint64_t seed = 0x10553) {
    loss_probability_ = probability;
    seed_loss_streams(seed);
  }

  /// Per-node silent loss: messages to or from `id` are additionally
  /// dropped with probability `probability` — a gray-lossy NIC whose peers
  /// see timeouts while membership still says the node is alive. Shares
  /// the set_loss RNG streams (seeded with kLossSeed until set_loss
  /// reseeds them); with every probability at 0 the send path draws no RNG
  /// at all, keeping loss-free runs bit-identical.
  void set_node_loss(NodeId id, double probability) {
    assert(id < nics_.size());
    if (nics_[id].loss > 0.0 && probability <= 0.0) --lossy_nodes_;
    if (nics_[id].loss <= 0.0 && probability > 0.0) ++lossy_nodes_;
    nics_[id].loss = probability;
  }

  /// Asynchronously transfers `body` with `payload_bytes` of payload.
  /// Returns immediately; delivery lands in the destination inbox at the
  /// modeled time. Loopback (src == dst) skips the NIC entirely and
  /// delivers after a fixed small local latency. Must be called from the
  /// source node's shard (all senders are coroutines on their own shard).
  ///
  /// `trace` (optional, purely observational) tags the NIC spans with the
  /// causal trace id and emits one flow-event triple — "s" on the sender's
  /// enclosing slice (trace.span_id lane), "t" on the src NIC at tx start,
  /// "f" on the dst NIC at rx start — plus queue-wait and in-flight async
  /// spans, so Perfetto draws sender → fabric → receiver arrows and the
  /// critical-path analyzer sees queueing and wire time per message.
  void send(NodeId src, NodeId dst, Body body, std::size_t payload_bytes,
            const obs::TraceContext& trace = {}) {
    assert(src < nics_.size() && dst < nics_.size());
    ShardState& ss = *shard_state_[node_shard_[src]];
    sim::Simulator* ssim = node_sim_[src];
    obs::Tracer* tr = ss.sinks->live_tracer();
    const std::uint32_t pid = ss.sinks->trace_pid;
    ++ss.stats.messages_sent;
    ss.stats.bytes_sent += payload_bytes;
    if (!nics_[dst].up || !nics_[src].up) {
      ++ss.stats.messages_dropped;
      ss.stats.bytes_dropped += payload_bytes;
      if (!nics_[dst].up) {
        ++ss.stats.drops_dst_down;
      } else {
        ++ss.stats.drops_src_down;
      }
      record_drop(ss, src, dst, payload_bytes, /*injected=*/false);
      if (tr != nullptr && trace.valid()) {
        tr->instant(pid, trace.span_id, "fabric/drop", "fabric",
                    ssim->now(), trace.trace_id);
      }
      return;
    }
    // Injected loss: one combined-probability draw covers the global link
    // rate and both endpoints' gray-lossy rates, so the RNG stream advances
    // exactly once per at-risk message regardless of how many layers apply.
    if (loss_probability_ > 0.0 || lossy_nodes_ > 0) {
      const double keep = (1.0 - loss_probability_) *
                          (1.0 - nics_[src].loss) * (1.0 - nics_[dst].loss);
      if (keep < 1.0 && ss.loss_rng.next_double() >= keep) {
        ++ss.stats.messages_dropped;
        ++ss.stats.drops_injected;
        ss.stats.bytes_dropped += payload_bytes;
        record_drop(ss, src, dst, payload_bytes, /*injected=*/true);
        if (tr != nullptr && trace.valid()) {
          tr->instant(pid, trace.span_id, "fabric/drop", "fabric",
                      ssim->now(), trace.trace_id);
        }
        return;
      }
    }
    const SimTime now = ssim->now();
    Envelope<Body> env{src, dst, now, 0, payload_bytes + params_.header_bytes,
                       std::move(body)};

    if (src == dst) {
      env.delivered_at = now + kLoopbackNs;
      deliver(ss, ssim, kLoopbackNs, std::move(env));
      return;
    }

    SimDur pre_tx = 0;  // protocol work before the payload can move
    const bool rendezvous = payload_bytes >= params_.rendezvous_threshold;
    if (rendezvous) {
      // RTS/CTS control round trip before the zero-copy transfer.
      pre_tx += 2 * params_.latency_ns;
      ++ss.stats.rendezvous_handshakes;
    } else {
      // Eager: copy into pre-registered bounce buffers.
      pre_tx += static_cast<SimDur>(params_.eager_copy_ns_per_byte *
                                    static_cast<double>(payload_bytes));
    }

    const SimDur ser = params_.per_message_ns +
                       units::transfer_time_ns(env.wire_bytes,
                                               params_.bandwidth_gbps);
    // Sender NIC: queue behind earlier transmissions, then serialize.
    NicState& src_nic = nics_[src];
    const SimTime tx_ready = now + pre_tx;
    const SimTime tx_start = std::max(tx_ready, src_nic.tx_busy_until);
    const SimTime tx_end = tx_start + ser;
    src_nic.tx_busy_until = tx_end;

    // The sender's tracer records the tx side: the NIC span, the 's'/'t'
    // flow legs and the queue wait behind earlier sends. The flow id rides
    // to the receive step, which records the rx side under it.
    std::uint64_t msg = 0;
    if (tr != nullptr) {
      tr->complete(pid, obs::Tracer::kNicTidBase + src, "fabric/send",
                   "fabric", tx_start, ser, trace.trace_id);
      if (trace.valid()) {
        // Flow arrows: sender's slice → src NIC tx slice → dst NIC rx slice.
        msg = tr->new_flow_id();
        tr->flow('s', pid, trace.span_id, now, msg, trace.trace_id);
        tr->flow('t', pid, obs::Tracer::kNicTidBase + src, tx_start,
                 msg, trace.trace_id);
        if (tx_start > tx_ready) {
          tr->async_span(pid, msg * 4, "fabric/txq", "fabric",
                         tx_ready, tx_start - tx_ready, trace.trace_id);
        }
      }
    }

    // The stream could start landing `ser` before its last bit
    // (cut-through): its first bit reaches the receiver one wire latency
    // after tx start.
    const SimTime arrival = tx_end + params_.latency_ns - ser;
    if (node_shard_[dst] == node_shard_[src]) {
      receive(std::move(env), arrival, ser, msg, trace.trace_id);
      return;
    }
    // Cross-shard: arrival >= now + latency, at least one lookahead in the
    // future, which is exactly the window bound the runtime synchronizes
    // on. The receive NIC is claimed on its own shard at arrival time
    // (arrival order, where one shard claims in send order — statistically
    // equivalent contention, not bit-identical across shard counts), and
    // the in-flight charge starts there too: each shard's counters are
    // touched only by its own thread, which is what keeps this path free
    // of atomics and data races.
    runtime_->post(node_shard_[src], node_shard_[dst], arrival,
                   [this, arrival, ser, msg, tid = trace.trace_id,
                    e = std::move(env)]() mutable {
                     receive(std::move(e), arrival, ser, msg, tid);
                   });
  }

 private:
  static constexpr SimDur kLoopbackNs = 400;

  struct NicState {
    SimTime tx_busy_until = 0;
    SimTime rx_busy_until = 0;
    bool up = true;
    double loss = 0.0;  ///< per-node injected silent-loss probability
  };

  /// One message on its way into an inbox, as a simulator Callback with
  /// two steps, each one event: `start` (due at once) schedules `land` at
  /// the wire delay, and `land` settles the counters and links the record
  /// into the destination inbox. Records come from the receiving shard's
  /// pool and return to it when the message is received. The fabric owns
  /// them, so it must outlive every message in flight (it does: the
  /// cluster drains the simulator before teardown).
  struct Delivery : sim::Callback {
    Fabric* fabric = nullptr;
    ShardState* shard = nullptr;  ///< the receiving shard: pool and counters
    SimDur wire_delay = 0;
    Delivery* next = nullptr;     ///< pool or inbox link
    Envelope<Body> env;

    static void start(sim::Callback* cb) {
      auto* d = static_cast<Delivery*>(cb);
      d->run = &land;
      d->fabric->node_sim_[d->env.dst]->schedule(d, d->wire_delay);
    }

    static void land(sim::Callback* cb) {
      auto* d = static_cast<Delivery*>(cb);
      ShardState& st = *d->shard;
      st.in_flight_bytes -= d->env.wire_bytes;
      --st.in_flight_messages;
      ++st.stats.messages_delivered;
      st.stats.bytes_delivered +=
          d->env.wire_bytes - d->fabric->params_.header_bytes;
      d->fabric->inboxes_[d->env.dst]->land(d);
    }
  };

  /// Shard-owned mutable fabric state: send-side counters and the loss RNG
  /// belong to the sending shard; delivery and in-flight counters, and the
  /// delivery records, to the receiving one. Every field is single-writer
  /// (only its shard's thread touches it); a cross-shard message charges
  /// in-flight from wire arrival to inbox delivery, so the merged gauges
  /// read zero at quiescence. `sinks` is the shard's observability record
  /// (the cluster's, bound at construction): its instruments are the
  /// shard's own domains in parallel runs and the shared instances in
  /// oracle mode, keeping recording single-writer too.
  struct ShardState {
    FabricStats stats;
    Xoshiro256 loss_rng;
    std::uint64_t in_flight_bytes = 0;
    std::uint64_t in_flight_messages = 0;
    const obs::Sinks* sinks = &obs::kNoSinks;
    /// Every record this shard ever made (freed with the fabric), and the
    /// free list threaded through the idle ones.
    std::vector<std::unique_ptr<Delivery>> records;
    Delivery* free = nullptr;

    /// A record from the pool (a new one when it is empty), about to start.
    Delivery* acquire(Fabric* fabric) {
      Delivery* d = free;
      if (d != nullptr) {
        free = d->next;
      } else {
        d = records.emplace_back(std::make_unique<Delivery>()).get();
        d->fabric = fabric;
        d->shard = this;
      }
      d->run = &Delivery::start;
      return d;
    }

    void release(Delivery* d) noexcept {
      d->next = free;
      free = d;
    }
  };

  /// The loss streams' seed until set_loss reseeds them.
  static constexpr std::uint64_t kLossSeed = 0xC0FFEE;

  /// Gives each shard its own loss stream: shard s draws from seed +
  /// s·0x9E3779B97F4A7C15, so shard 0's stream is the seed's own and a
  /// one-shard run draws exactly what a single stream would.
  void seed_loss_streams(std::uint64_t seed) {
    for (std::size_t s = 0; s < shard_state_.size(); ++s) {
      shard_state_[s]->loss_rng =
          Xoshiro256(seed + s * 0x9E3779B97F4A7C15ULL);
    }
  }

  void init_inboxes() {
    inboxes_.reserve(node_sim_.size());
    for (std::size_t i = 0; i < node_sim_.size(); ++i) {
      inboxes_.push_back(std::make_unique<Inbox>(*node_sim_[i]));
    }
  }

  /// Feeds a drop into the health plane. Health counters are sized to
  /// servers and attribute to whichever endpoint is one (the destination
  /// when both are; out-of-range ids bounce off the bounds checks). The
  /// flight event lands in the destination's ring with the source in `b`,
  /// so per-ring drop tallies stay attributable either way. Drops resolve
  /// on the send path, so both records go to the sender's shard sinks
  /// (`ss`): a domain holds rings/counters for every node, only its writer
  /// is per-shard.
  void record_drop(const ShardState& ss, NodeId src, NodeId dst,
                   std::size_t payload_bytes, bool injected) {
    if (obs::HealthSignals* health = ss.sinks->health; health != nullptr) {
      health->on_drop(dst < health->num_nodes() ? dst : src);
    }
    if (obs::FlightRecorder* flight = ss.sinks->flight; flight != nullptr) {
      flight->record(node_sim_[src]->now(), dst,
                     obs::FlightEventType::kNetDrop, payload_bytes,
                     static_cast<std::uint32_t>(src), injected ? 1 : 0);
    }
  }

  /// The receive step of a message whose first bit reaches `env.dst` at
  /// `arrival`, on the receiver's shard: inline from send() when both
  /// nodes share a shard, posted for `arrival` otherwise. Claims the
  /// receive NIC behind earlier arrivals (incast queueing), records the rx
  /// side in the receiving shard's tracer under the sender's flow id `msg`
  /// (0 = untraced) and delivers at serialization end.
  void receive(Envelope<Body> env, SimTime arrival, SimDur ser,
               std::uint64_t msg, std::uint64_t trace_id) {
    sim::Simulator* dsim = node_sim_[env.dst];
    NicState& dst_nic = nics_[env.dst];
    const SimTime rx_start = std::max(arrival, dst_nic.rx_busy_until);
    const SimTime rx_end = rx_start + ser;
    dst_nic.rx_busy_until = rx_end;
    env.delivered_at = rx_end;
    ShardState& rs = *shard_state_[node_shard_[env.dst]];
    if (obs::Tracer* tr = rs.sinks->live_tracer(); tr != nullptr) {
      const std::uint32_t pid = rs.sinks->trace_pid;
      tr->complete(pid, obs::Tracer::kNicTidBase + env.dst,
                   "fabric/recv", "fabric", rx_start, ser, trace_id);
      if (msg != 0) {
        tr->flow('f', pid, obs::Tracer::kNicTidBase + env.dst,
                 rx_start, msg, trace_id);
        if (rx_start > arrival) {
          tr->async_span(pid, msg * 4 + 1, "fabric/rxq", "fabric",
                         arrival, rx_start - arrival, trace_id);
        }
        // The whole in-flight interval, from the send (before protocol
        // pre-work) to the last bit received: the analyzer's catch-all
        // "net" coverage.
        tr->async_span(pid, msg * 4 + 2, "fabric/wire", "fabric",
                       env.sent_at, rx_end - env.sent_at, trace_id);
      }
    }
    deliver(rs, dsim, rx_end - dsim->now(), std::move(env));
  }

  /// Charges the message in flight on the receiving shard `st` and starts
  /// its delivery, which lands `wire_delay` after the start step runs.
  void deliver(ShardState& st, sim::Simulator* dsim, SimDur wire_delay,
               Envelope<Body> env) {
    st.in_flight_bytes += env.wire_bytes;
    ++st.in_flight_messages;
    Delivery* d = st.acquire(this);
    d->wire_delay = wire_delay;
    d->env = std::move(env);
    dsim->schedule(d, 0);
  }

  FabricParams params_;
  std::vector<NicState> nics_;
  sim::ShardRuntime* runtime_;
  std::vector<std::uint32_t> node_shard_;
  std::vector<sim::Simulator*> node_sim_;
  std::vector<std::unique_ptr<ShardState>> shard_state_;
  FabricStats merged_stats_;
  std::uint64_t merged_in_flight_bytes_ = 0;
  std::uint64_t merged_in_flight_messages_ = 0;
  std::vector<std::unique_ptr<Inbox>> inboxes_;
  double loss_probability_ = 0.0;
  std::size_t lossy_nodes_ = 0;  ///< nodes with a nonzero per-node loss
};

}  // namespace hpres::net
