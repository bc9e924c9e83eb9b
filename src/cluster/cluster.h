// Cluster harness: assembles the simulator, fabric, servers, clients, hash
// ring and membership into one object, with controlled failure injection.
// Node ids: servers occupy 0..S-1, clients S..S+C-1.
//
// Nodes are event-driven: start() binds each node's dispatch callback to
// its fabric inbox, and a landing message schedules it. Once run() has
// drained, no coroutine is left parked, so destroying the cluster (nodes
// before the fabric they unbind from) frees every frame the run made.
#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "ec/codec.h"
#include "ec/cost_model.h"
#include "kv/client.h"
#include "kv/hash_ring.h"
#include "kv/membership.h"
#include "kv/server.h"
#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/sinks.h"
#include "obs/trace.h"
#include "resilience/engine.h"
#include "sim/shard_runtime.h"

namespace hpres::cluster {

struct ClusterConfig {
  std::size_t num_servers = 5;
  std::size_t num_clients = 1;
  net::FabricParams fabric = net::FabricParams::rdma_qdr();
  kv::ServerParams server;
  /// Servers initially projected onto the hash ring: the active prefix
  /// [0, initial_active_servers). 0 = all provisioned servers (the classic
  /// fixed-membership cluster). Servers outside the prefix still exist and
  /// serve traffic — they just own no placement until a PlacementManager
  /// join() projects them in.
  std::size_t initial_active_servers = 0;
  /// Event-loop shards for the parallel runtime. 0 or 1 = the
  /// deterministic single-threaded oracle mode; N > 1 partitions servers
  /// and clients round-robin over N event loops run by real threads
  /// (capped to num_servers + num_clients). Fault injection, placement
  /// changes and the whole observability stack (tracing, flight recorder,
  /// health monitor, sampler) work the same at every shard count: they
  /// act from runtime quiesce hooks, and parallel runs record into
  /// per-shard observability domains merged deterministically at
  /// quiescence.
  std::size_t shards = 1;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  /// Folds any remaining per-shard observability domains into the attached
  /// parent instruments (a no-op when already merged or in oracle mode).
  ~Cluster();

  /// The shard runtime driving every event loop (one loop in oracle mode).
  [[nodiscard]] sim::ShardRuntime& runtime() noexcept { return runtime_; }
  [[nodiscard]] std::size_t num_shards() const noexcept {
    return runtime_.num_shards();
  }
  /// Shard 0's event loop — the only loop in oracle mode. Spawn onto it,
  /// but run via Cluster::run(). Harness code driving a multi-shard
  /// cluster must spawn onto each node's own loop instead (sim_for_node).
  [[nodiscard]] sim::Simulator& sim() noexcept { return runtime_.shard(0); }
  /// The event loop that drives `node`'s coroutines (its shard's loop).
  [[nodiscard]] sim::Simulator& sim_for_node(net::NodeId node) noexcept {
    return fabric_.sim_of(node);
  }
  /// The event loop for client index `i` (node id num_servers + i).
  [[nodiscard]] sim::Simulator& sim_for_client(std::size_t i) noexcept {
    return sim_for_node(static_cast<net::NodeId>(config_.num_servers + i));
  }
  [[nodiscard]] kv::KvFabric& fabric() noexcept { return fabric_; }
  [[nodiscard]] const kv::HashRing& ring() const noexcept { return ring_; }
  /// Mutable ring access for the placement plane (PlacementManager
  /// cutover). Harness code must not mutate the ring while shards run —
  /// mutations go through a runtime quiesce hook.
  [[nodiscard]] kv::HashRing& mutable_ring() noexcept { return ring_; }
  [[nodiscard]] kv::Membership& membership() noexcept { return membership_; }
  [[nodiscard]] const ClusterConfig& config() const noexcept { return config_; }

  [[nodiscard]] std::size_t num_servers() const noexcept {
    return servers_.size();
  }
  [[nodiscard]] std::size_t num_clients() const noexcept {
    return clients_.size();
  }
  [[nodiscard]] kv::Server& server(std::size_t index) {
    return *servers_.at(index);
  }
  [[nodiscard]] kv::Client& client(std::size_t index) {
    return *clients_.at(index);
  }

  /// NodeId of each server, indexed by server-list position.
  [[nodiscard]] const std::vector<net::NodeId>& server_nodes() const noexcept {
    return server_nodes_;
  }

  /// Turns on server-side erasure offloads (kSetEncode/kGetDecode) on every
  /// server. The codec must outlive the cluster.
  void enable_server_ec(const ec::Codec& codec, ec::CostModel cost,
                        bool materialize);

  /// Controlled failure: server stops serving, fabric drops its traffic,
  /// membership broadcasts the death — all atomically. Safe between
  /// operations; for mid-workload crashes with detection lag, use
  /// FaultSchedule instead.
  void fail_server(std::size_t index);
  void recover_server(std::size_t index);

  /// Attaches a versioned placement view to every client: requests are
  /// stamped with the view's epoch at issue, which is what lets servers
  /// bounce writes that resolved owners under a stale ring. Engines read
  /// the same view through their client, so this is the whole placement
  /// wiring. Pass nullptr to detach (legacy placement-unaware behavior,
  /// byte-identical).
  void set_placement_view(const kv::PlacementView* view);

  /// Arms RPC deadlines/retries on every client and server. With a policy
  /// set, calls to dead or lossy nodes resolve kTimeout instead of
  /// parking forever — required for mid-workload fault injection.
  void set_rpc_policy(const kv::RpcPolicy& policy);

  /// The observability records, one per shard, fixed at construction. The
  /// fabric's shard state and every node on shard `s` record through
  /// sinks(s); the attach functions below rewrite one field of each record
  /// and touch nothing else. At one shard a record holds the attached
  /// instruments themselves; at N shards it holds shard `s`'s single-writer
  /// domains, which merge_obs_domains() folds back into the attached ones.
  [[nodiscard]] std::span<const obs::Sinks> sinks() const noexcept {
    return sinks_;
  }
  [[nodiscard]] const obs::Sinks& sinks(std::size_t shard) const noexcept {
    return sinks_[shard];
  }
  /// The record `node`'s shard records into.
  [[nodiscard]] const obs::Sinks& sinks_of(net::NodeId node) const {
    return sinks_[fabric_.shard_of(node)];
  }

  /// Attaches a span tracer: NIC occupancy spans from the fabric,
  /// rpc/timeout and server handler spans from the nodes, all under
  /// process `pid`. Engines attach themselves through EngineContext. In
  /// parallel runs with an enabled tracer this builds one tracer domain
  /// per shard, with shard-disjoint trace/flow/async id spaces (offset =
  /// shard, stride = num_shards). Pass nullptr to detach.
  void set_tracer(obs::Tracer* tracer, std::uint32_t pid = 0);

  /// The tracer client `i`'s shard records into (nullptr when none).
  [[nodiscard]] obs::Tracer* tracer_for_client(std::size_t i) const {
    return sinks_of(static_cast<net::NodeId>(config_.num_servers + i)).tracer;
  }

  /// Attaches per-node health signal counters: response RTTs, deadline
  /// expiries and retries from the nodes, drops from the fabric. Parallel
  /// runs record into one HealthSignals domain per shard (same node
  /// capacity); readers sum windows across sinks(). Pass nullptr to
  /// detach.
  void set_health_signals(obs::HealthSignals* signals);

  /// Attaches the flight recorder: sizes its rings for all S+C nodes,
  /// labels them server0../client0.., and routes timeout/retry/drop events
  /// into it. Parallel runs record into one domain per shard, each with
  /// rings for every node. Pass nullptr to detach.
  void set_flight_recorder(obs::FlightRecorder* flight);

  /// The attached flight recorder (nullptr when none) — FaultSchedule uses
  /// this for automatic crash dumps.
  [[nodiscard]] obs::FlightRecorder* flight_recorder() const noexcept {
    return flight_;
  }

  /// Engine wiring for client `i`: its shard's event loop, its RPC client,
  /// the cluster ring, membership and server list, and its shard's tracer
  /// (under its trace pid) and flight recorder (null when none is
  /// attached). Callers override only what they change, such as a latency
  /// recorder. Attach observability before calling.
  [[nodiscard]] resilience::EngineContext engine_context(
      std::size_t i, bool materialize = true) {
    const auto node = static_cast<net::NodeId>(config_.num_servers + i);
    const obs::Sinks& sinks = sinks_of(node);
    resilience::EngineContext ctx;
    ctx.sim = &sim_for_node(node);
    ctx.client = &client(i);
    ctx.ring = &ring_;
    ctx.membership = &membership_;
    ctx.server_nodes = &server_nodes_;
    ctx.materialize = materialize;
    ctx.tracer = sinks.tracer;
    ctx.trace_pid = sinks.trace_pid;
    ctx.flight = sinks.flight;
    return ctx;
  }

  /// Deterministic merge of the per-shard observability domains into the
  /// attached parent instruments, in ascending shard order (the canonical
  /// shard-then-timestamp order). Call at quiescence — after run() returns
  /// or from a runtime quiesce hook — before exporting traces or dumping
  /// flight rings. Idempotent: absorbed domains are left empty, so
  /// mid-run merges (crash dumps) and the final merge compose.
  void merge_obs_domains();

  /// Quiesced simulated time: max over shard clocks. Between runs (or from
  /// a quiesce hook) every shard is parked, so this is THE cluster time in
  /// parallel mode; in oracle mode it is sim().now().
  [[nodiscard]] SimTime now_quiesced() noexcept {
    SimTime t = 0;
    for (std::size_t s = 0; s < runtime_.num_shards(); ++s) {
      t = std::max(t, runtime_.shard(s).now());
    }
    return t;
  }

  /// Registers the fabric, every server store, and every client's stats
  /// into `reg`, labelled server0..N / client0..N / "fabric" with the given
  /// op label (the experiment point, e.g. "era-ce-cd/64K").
  void register_metrics(obs::MetricsRegistry& reg,
                        const std::string& op_label) const;

  /// Binds every node's dispatch callback to its inbox (RpcNode::start).
  /// Call once, before running.
  void start();

  /// Runs the simulation to quiescence; returns final simulated time. With
  /// one shard this is the single event loop in hook-capped windows; with
  /// shards > 1 it runs all shard loops conservatively in parallel. Either
  /// way the registered quiesce hooks (faults, health ticks, sampling,
  /// placement cutover) fire, and the merged fabric counters are refreshed
  /// afterwards. Harnesses drive every run through here, never through
  /// sim().run(), which bypasses the hooks.
  SimTime run() {
    const SimTime end = runtime_.run();
    fabric_.merge_stats();
    return end;
  }

  /// Sum of bytes_used across all server stores (memory-efficiency metric).
  [[nodiscard]] std::uint64_t total_bytes_used() const;
  /// Sum of evicted (lost) bytes across all server stores.
  [[nodiscard]] std::uint64_t total_evicted_bytes() const;
  /// Sum of configured capacities.
  [[nodiscard]] std::uint64_t total_capacity() const;

 private:
  /// Shard of node `i` under `config`: servers and clients are each dealt
  /// round-robin so every shard carries a balanced slice of both roles.
  [[nodiscard]] static std::vector<std::uint32_t> shard_map(
      const ClusterConfig& config);
  [[nodiscard]] static std::size_t effective_shards(
      const ClusterConfig& config);

  ClusterConfig config_;
  sim::ShardRuntime runtime_;
  // One per shard, never resized: the fabric and every node hold pointers
  // into it, so it is declared (and outlives) them.
  std::vector<obs::Sinks> sinks_;
  kv::KvFabric fabric_;
  kv::HashRing ring_;
  kv::Membership membership_;
  std::vector<net::NodeId> server_nodes_;
  std::vector<std::unique_ptr<kv::Server>> servers_;
  std::vector<std::unique_ptr<kv::Client>> clients_;
  // The attached parent instruments the per-shard domains merge into.
  obs::Tracer* tracer_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
  // Per-shard single-writer observability domains (parallel runs only;
  // empty in oracle mode). Indexed by shard.
  std::vector<std::unique_ptr<obs::Tracer>> shard_tracers_;
  std::vector<std::unique_ptr<obs::HealthSignals>> shard_signals_;
  std::vector<std::unique_ptr<obs::FlightRecorder>> shard_flights_;
  bool started_ = false;
};

}  // namespace hpres::cluster
