// Cluster harness: assembles the simulator, fabric, servers, clients, hash
// ring and membership into one object, with controlled failure injection.
// Node ids: servers occupy 0..S-1, clients S..S+C-1.
#pragma once

#include <algorithm>
#include <memory>
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
#include "obs/trace.h"
#include "sim/shard_runtime.h"

namespace hpres::cluster {

struct ClusterConfig {
  std::size_t num_servers = 5;
  std::size_t num_clients = 1;
  net::FabricParams fabric = net::FabricParams::rdma_qdr();
  kv::ServerParams server;
  kv::ClientParams client;
  SimDur membership_check_ns = 1'500;
  std::size_t ring_vnodes = 128;
  std::uint64_t ring_seed = 0x5eed;
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
  /// bounce writes that resolved owners under a stale ring. Engines attach
  /// the same view through Engine::attach_placement. Pass nullptr to
  /// detach (legacy placement-unaware behavior, byte-identical).
  void set_placement_view(const kv::PlacementView* view);

  /// Arms RPC deadlines/retries on every client and server. With a policy
  /// set, calls to dead or lossy nodes resolve kTimeout instead of
  /// parking forever — required for mid-workload fault injection.
  void set_rpc_policy(const kv::RpcPolicy& policy);

  /// Attaches a span tracer to the fabric (NIC occupancy spans) and to
  /// every node's RPC layer (rpc/timeout spans) under process `pid`.
  /// Engines attach themselves through EngineContext (use tracer_for_client
  /// so each engine records into its shard's domain). In parallel runs with
  /// an enabled tracer this builds one single-writer tracer domain per
  /// shard, with shard-disjoint trace/flow/async id spaces (offset = shard,
  /// stride = num_shards); merge_obs_domains() folds them back into
  /// `tracer` in ascending shard order at quiescence.
  void set_tracer(obs::Tracer* tracer, std::uint32_t pid = 0);

  /// The tracer domain that nodes of shard `s` record into (the attached
  /// tracer itself in oracle mode; nullptr when tracing is off).
  [[nodiscard]] obs::Tracer* tracer_domain(std::size_t s) noexcept {
    return shard_tracers_.empty() ? tracer_ : shard_tracers_[s].get();
  }
  [[nodiscard]] obs::Tracer* tracer_for_node(net::NodeId node) noexcept {
    return tracer_domain(fabric_.shard_of(node));
  }
  [[nodiscard]] obs::Tracer* tracer_for_client(std::size_t i) noexcept {
    return tracer_for_node(static_cast<net::NodeId>(config_.num_servers + i));
  }
  [[nodiscard]] std::uint32_t trace_pid() const noexcept { return trace_pid_; }

  /// Attaches per-node health signal counters to every node's RPC layer
  /// (response RTTs, deadline expiries, retries) and to the fabric (drops).
  /// Observation-only; pass nullptr to detach. Parallel runs record into
  /// one HealthSignals domain per shard (same node capacity); readers sum
  /// windows across health_domains().
  void set_health_signals(obs::HealthSignals* signals);

  /// Every live health-signal domain: the per-shard domains in parallel
  /// runs, the single attached instance in oracle mode, empty when
  /// detached. Sum take_window() across these for a node's full window.
  [[nodiscard]] std::vector<obs::HealthSignals*> health_domains();

  /// Attaches the flight recorder to every node and the fabric: sizes its
  /// rings for all S+C nodes, labels them server0../client0.., and routes
  /// timeout/retry/drop events into it. Observation-only.
  void set_flight_recorder(obs::FlightRecorder* flight);

  /// The attached flight recorder (nullptr when none) — FaultSchedule uses
  /// this for automatic crash dumps.
  [[nodiscard]] obs::FlightRecorder* flight_recorder() const noexcept {
    return flight_;
  }

  /// The flight-recorder domain that `node`'s shard records into (the
  /// attached recorder itself in oracle mode; nullptr when none). Each
  /// domain carries rings for every node — only the writer is per-shard.
  [[nodiscard]] obs::FlightRecorder* flight_domain_of(
      net::NodeId node) noexcept {
    return shard_flights_.empty()
               ? flight_
               : shard_flights_[fabric_.shard_of(node)].get();
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

  /// Starts every node's dispatch loop. Call once, before running.
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
  kv::KvFabric fabric_;
  kv::HashRing ring_;
  kv::Membership membership_;
  std::vector<net::NodeId> server_nodes_;
  std::vector<std::unique_ptr<kv::Server>> servers_;
  std::vector<std::unique_ptr<kv::Client>> clients_;
  obs::Tracer* tracer_ = nullptr;
  std::uint32_t trace_pid_ = 0;
  obs::HealthSignals* health_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
  // Per-shard single-writer observability domains (parallel runs only;
  // empty in oracle mode). Indexed by shard.
  std::vector<std::unique_ptr<obs::Tracer>> shard_tracers_;
  std::vector<std::unique_ptr<obs::HealthSignals>> shard_signals_;
  std::vector<std::unique_ptr<obs::FlightRecorder>> shard_flights_;
  bool started_ = false;
};

}  // namespace hpres::cluster
