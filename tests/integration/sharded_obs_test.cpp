// Sharded observability: per-shard single-writer domains must change no
// simulated result at any shard count, merge into bit-reproducible exports
// for a fixed (seed, shard count), survive ring wrap under the parallel
// runtime (this suite runs under TSan in CI), and feed the offline
// critical-path analysis exactly despite the shard-strided (interleaved)
// trace/lane id spaces of a merged multi-shard export.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/fault_schedule.h"
#include "ec/cost_model.h"
#include "ec/rs_vandermonde.h"
#include "obs/critical_path.h"
#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/sinks.h"
#include "obs/trace.h"
#include "resilience/factory.h"
#include "workload/ycsb.h"

namespace hpres {
namespace {

constexpr std::size_t kServers = 8;
constexpr std::size_t kClients = 8;

struct ObsOutcome {
  SimTime makespan = 0;
  std::uint64_t events = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t failures = 0;
  net::FabricStats fabric;
  // Filled only when the run was observed.
  std::string trace_json;
  std::string flight_dump;
  std::vector<obs::TraceSpan> tagged;
  std::uint64_t flight_written_total = 0;
  std::uint64_t flight_kept_total = 0;
  bool any_ring_wrapped = false;
  obs::HealthWindow health;  ///< every node's window, summed over domains
};

struct ObsKnobs {
  bool observe = false;           ///< attach tracer + flight + health
  std::size_t flight_ring = 256;  ///< per-node ring capacity
};

/// One small YCSB-A run at the given shard count, optionally under the full
/// observability stack (per-shard domains when shards > 1). The workload is
/// identical either way; only the instruments differ.
ObsOutcome run_observed_ycsb(std::size_t shards, std::uint64_t seed,
                             const ObsKnobs& knobs) {
  ec::RsVandermondeCodec codec(3, 2);
  const auto cost = ec::CostModel::defaults(ec::Scheme::kRsVandermonde, 3, 2);
  cluster::ClusterConfig config{.num_servers = kServers,
                                .num_clients = kClients};
  config.shards = shards;
  cluster::Cluster cl(config);
  cl.enable_server_ec(codec, cost, false);

  obs::Tracer tracer(knobs.observe);
  const std::uint32_t pid = tracer.declare_process("sharded-obs-pt");
  obs::FlightRecorder flight(knobs.flight_ring);
  obs::HealthSignals signals(kServers + kClients);
  if (knobs.observe) {
    cl.set_tracer(&tracer, pid);
    cl.set_flight_recorder(&flight);
    cl.set_health_signals(&signals);
  }

  std::vector<std::unique_ptr<resilience::Engine>> engines;
  for (std::size_t c = 0; c < kClients; ++c) {
    // Engines write into their own shard's domain — the single-writer
    // discipline every other instrument follows.
    engines.push_back(resilience::make_engine(
        resilience::Design::kEraCeCd, cl.engine_context(c, false), 3, &codec,
        cost));
  }
  cl.start();

  workload::YcsbConfig cfg;
  cfg.record_count = 300;
  cfg.ops_per_client = 120;
  cfg.value_size = 8192;
  cfg.seed = seed;

  {
    sim::Simulator& lsim = cl.sim_for_client(0);
    struct Loader {
      static sim::Task<void> run(sim::Simulator* sim, resilience::Engine* e,
                                 workload::YcsbConfig c) {
        co_await workload::ycsb_load(sim, e, c, 0, c.record_count);
      }
    };
    lsim.spawn(Loader::run(&lsim, engines[0].get(), cfg));
    cl.run();
  }

  std::vector<workload::YcsbResult> results(kClients);
  struct Proc {
    static sim::Task<void> run(sim::Simulator* sim, resilience::Engine* e,
                               workload::YcsbConfig c, std::uint64_t s,
                               workload::YcsbResult* r) {
      co_await workload::ycsb_client(sim, e, c, s, r);
    }
  };
  const SimTime start = cl.now_quiesced();
  for (std::size_t c = 0; c < kClients; ++c) {
    sim::Simulator& csim = cl.sim_for_client(c);
    csim.spawn(Proc::run(&csim, engines[c].get(), cfg, seed + 13 * c,
                         &results[c]));
  }
  ObsOutcome out;
  out.makespan = cl.run() - start;
  out.events = cl.runtime().events_executed();
  for (const auto& r : results) {
    out.reads += r.reads;
    out.writes += r.writes;
    out.failures += r.failures;
  }
  out.fabric = cl.fabric().stats();

  if (knobs.observe) {
    for (const obs::Sinks& sinks : cl.sinks()) {
      for (std::size_t n = 0; n < sinks.health->num_nodes(); ++n) {
        out.health += sinks.health->take_window(n);
      }
    }
    cl.merge_obs_domains();
    out.trace_json = tracer.to_json();
    out.flight_dump = flight.dump("test", cl.now_quiesced());
    out.tagged = tracer.tagged_spans(pid);
    for (std::size_t n = 0; n < flight.num_nodes(); ++n) {
      out.flight_written_total += flight.written(n);
      out.flight_kept_total += flight.events(n).size();
      if (flight.written(n) > knobs.flight_ring) out.any_ring_wrapped = true;
    }
  }
  return out;
}

// Attaching the full observability stack (per-shard tracer, flight and
// health domains) must not perturb the simulation: op counts and fabric
// byte totals — and, stronger, makespan and event count — are identical
// with instruments on and off, at every shard count.
TEST(ShardedObs, ObservabilityChangesNothing) {
  for (const std::size_t shards : {2u, 4u}) {
    const ObsOutcome plain =
        run_observed_ycsb(shards, 42, ObsKnobs{.observe = false});
    const ObsOutcome observed =
        run_observed_ycsb(shards, 42, ObsKnobs{.observe = true});
    EXPECT_EQ(observed.reads, plain.reads) << "shards=" << shards;
    EXPECT_EQ(observed.writes, plain.writes) << "shards=" << shards;
    EXPECT_EQ(observed.failures, plain.failures) << "shards=" << shards;
    EXPECT_EQ(observed.fabric.bytes_sent, plain.fabric.bytes_sent)
        << "shards=" << shards;
    EXPECT_EQ(observed.fabric.bytes_delivered, plain.fabric.bytes_delivered)
        << "shards=" << shards;
    EXPECT_EQ(observed.makespan, plain.makespan) << "shards=" << shards;
    EXPECT_EQ(observed.events, plain.events) << "shards=" << shards;
  }
}

// The deterministic merge (ascending shard, then per-ring timestamp order)
// makes the exported artifacts bit-reproducible for a fixed (seed, shards).
TEST(ShardedObs, MergedExportsAreBitReproducible) {
  const ObsOutcome a = run_observed_ycsb(4, 99, ObsKnobs{.observe = true});
  const ObsOutcome b = run_observed_ycsb(4, 99, ObsKnobs{.observe = true});
  ASSERT_FALSE(a.trace_json.empty());
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.flight_dump, b.flight_dump);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.events, b.events);
}

// Regression for the offline tooling contract: a merged 4-shard trace is
// shard-major concatenated and its trace ids are strided across shards
// (interleaved id spaces), yet the critical-path sweep must still pair and
// attribute every op exactly — the same invariant trace_report enforces on
// the exported JSON.
TEST(ShardedObs, MergedTraceFeedsCriticalPathExactly) {
  const ObsOutcome out = run_observed_ycsb(4, 7, ObsKnobs{.observe = true});
  const obs::CriticalPathAnalysis cp = obs::analyze_critical_path(out.tagged);
  ASSERT_GT(cp.ops.size(), 0u);
  std::set<std::uint64_t> residues;
  for (const obs::OpAttribution& op : cp.ops) {
    EXPECT_EQ(op.phase_sum(), op.total_ns) << "trace " << op.trace_id;
    EXPECT_GT(op.total_ns, 0);
    residues.insert(op.trace_id % 4);
  }
  // Clients are dealt round-robin over the shards, so ops must carry ids
  // from more than one shard's stride class — the merged export really is
  // interleaved, not accidentally single-domain.
  EXPECT_GE(residues.size(), 2u);
}

// Ring wrap under the parallel runtime: a tiny ring forces every client
// ring to wrap while four shard threads record concurrently into their own
// domains. Run under TSan in CI; also checks the merge keeps the lifetime
// written counters and at most ring_size records per node.
TEST(ShardedObs, FlightRingWrapMergesCleanly) {
  const ObsKnobs knobs{.observe = true, .flight_ring = 32};
  const ObsOutcome out = run_observed_ycsb(4, 11, knobs);
  EXPECT_TRUE(out.any_ring_wrapped);
  EXPECT_GT(out.flight_written_total, out.flight_kept_total);
  EXPECT_LE(out.flight_kept_total, (kServers + kClients) * knobs.flight_ring);
  // Dump parses as one JSON object per node with monotone ring order —
  // spot-check the envelope; the offline tools test the full schema.
  EXPECT_NE(out.flight_dump.find("\"flight\""), std::string::npos);
  EXPECT_NE(out.flight_dump.find("client7"), std::string::npos);
}

// The per-shard health domains, summed, see exactly the message population
// the oracle's single domain sees: responses and timeouts are count-exact
// (RTT sums are timing-dependent and deliberately not compared).
TEST(ShardedObs, HealthWindowSumsMatchOracle) {
  const ObsOutcome oracle =
      run_observed_ycsb(1, 21, ObsKnobs{.observe = true});
  const ObsOutcome sharded =
      run_observed_ycsb(4, 21, ObsKnobs{.observe = true});
  ASSERT_GT(oracle.health.responses, 0u);
  EXPECT_EQ(sharded.health.responses, oracle.health.responses);
  EXPECT_EQ(sharded.health.timeouts, oracle.health.timeouts);
}

// Detaching an instrument takes it out of every recording path at once:
// after a tracer, health signals and a flight recorder are attached and
// then detached with nullptr, a crash workload under a 2 ms deadline (plus
// a lossy server) — fabric drops, RPC timeouts and retries, traced ops
// reaching server handlers, a crash with the flight-dump trigger — leaves
// all three empty.
TEST(ShardedObs, DetachedInstrumentsRecordNothing) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    ec::RsVandermondeCodec codec(3, 2);
    const auto cost =
        ec::CostModel::defaults(ec::Scheme::kRsVandermonde, 3, 2);
    cluster::ClusterConfig config{.num_servers = kServers,
                                  .num_clients = kClients};
    config.shards = shards;
    cluster::Cluster cl(config);
    cl.enable_server_ec(codec, cost, false);
    cl.set_rpc_policy(kv::RpcPolicy{.timeout_ns = 2 * units::kMillisecond,
                                    .max_retries = 2,
                                    .backoff_ns = 50'000});

    obs::Tracer tracer(true);
    const std::uint32_t pid = tracer.declare_process("detached-pt");
    const std::size_t declared_events = tracer.event_count();
    obs::FlightRecorder flight(64);
    obs::HealthSignals signals(kServers + kClients);
    cl.set_tracer(&tracer, pid);
    cl.set_health_signals(&signals);
    cl.set_flight_recorder(&flight);
    cl.set_tracer(nullptr);
    cl.set_health_signals(nullptr);
    cl.set_flight_recorder(nullptr);
    for (const obs::Sinks& sinks : cl.sinks()) {
      EXPECT_EQ(sinks.tracer, nullptr) << "shards=" << shards;
      EXPECT_EQ(sinks.health, nullptr);
      EXPECT_EQ(sinks.flight, nullptr);
    }

    // The engines keep tracing into their own per-shard tracers, so ops
    // carry live trace contexts through the fabric into server handlers.
    std::vector<std::unique_ptr<obs::Tracer>> op_tracers;
    for (std::size_t s = 0; s < cl.num_shards(); ++s) {
      op_tracers.push_back(std::make_unique<obs::Tracer>(true));
      op_tracers.back()->set_id_space(s, cl.num_shards());
    }
    std::vector<std::unique_ptr<resilience::Engine>> engines;
    for (std::size_t c = 0; c < kClients; ++c) {
      resilience::EngineContext ctx = cl.engine_context(c, false);
      ctx.tracer = op_tracers[cl.fabric().shard_of(
                                  static_cast<net::NodeId>(kServers + c))]
                       .get();
      ctx.trace_pid = pid;
      engines.push_back(resilience::make_engine(
          resilience::Design::kEraCeCd, ctx, 3, &codec, cost));
    }
    cl.start();

    workload::YcsbConfig cfg;
    cfg.record_count = 200;
    cfg.ops_per_client = 80;
    cfg.value_size = 8192;
    cfg.seed = 5;
    {
      sim::Simulator& lsim = cl.sim_for_client(0);
      struct Loader {
        static sim::Task<void> run(sim::Simulator* sim, resilience::Engine* e,
                                   workload::YcsbConfig c) {
          co_await workload::ycsb_load(sim, e, c, 0, c.record_count);
        }
      };
      lsim.spawn(Loader::run(&lsim, engines[0].get(), cfg));
      cl.run();
    }

    const SimTime start = cl.now_quiesced();
    cluster::FaultSchedule faults(cl, /*detection_lag_ns=*/1'000'000);
    faults.add_crash(start + 200'000, 1);
    faults.add_loss(start + 200'000, 2, 0.2);
    faults.add_restart(start + 8 * units::kMillisecond, 1);
    faults.arm();
    std::vector<workload::YcsbResult> results(kClients);
    struct Proc {
      static sim::Task<void> run(sim::Simulator* sim, resilience::Engine* e,
                                 workload::YcsbConfig c, std::uint64_t s,
                                 workload::YcsbResult* r) {
        co_await workload::ycsb_client(sim, e, c, s, r);
      }
    };
    for (std::size_t c = 0; c < kClients; ++c) {
      sim::Simulator& csim = cl.sim_for_client(c);
      csim.spawn(Proc::run(&csim, engines[c].get(), cfg, 5 + 13 * c,
                           &results[c]));
    }
    cl.run();
    cl.merge_obs_domains();

    // Every recording path fired...
    std::uint64_t timeouts = 0;
    std::uint64_t retries = 0;
    for (std::size_t c = 0; c < kClients; ++c) {
      timeouts += cl.client(c).rpc_stats().timeouts;
      retries += cl.client(c).rpc_stats().retries;
    }
    EXPECT_EQ(faults.fired(), 3u) << "shards=" << shards;
    EXPECT_GT(cl.fabric().stats().messages_dropped, 0u) << "shards=" << shards;
    EXPECT_GT(timeouts, 0u) << "shards=" << shards;
    EXPECT_GT(retries, 0u) << "shards=" << shards;
    std::uint64_t op_spans = 0;
    for (const auto& t : op_tracers) op_spans += t->event_count();
    EXPECT_GT(op_spans, 0u) << "shards=" << shards;

    // ...and none of them reached a detached instrument.
    EXPECT_EQ(tracer.event_count(), declared_events) << "shards=" << shards;
    obs::HealthWindow health;
    for (std::size_t n = 0; n < signals.num_nodes(); ++n) {
      health += signals.cumulative(n);
    }
    EXPECT_EQ(health.responses + health.timeouts + health.retries +
                  health.drops + health.over_slo,
              0u)
        << "shards=" << shards;
    EXPECT_EQ(health.rtt_sum_ns, 0);
    for (std::size_t n = 0; n < flight.num_nodes(); ++n) {
      EXPECT_EQ(flight.written(n), 0u) << "shards=" << shards << " node=" << n;
    }
    EXPECT_EQ(flight.dumps_written(), 0u);
  }
}

// One observability record per shard: every server's and client's RPC
// layer, the fabric's shard state and engine_context(i) resolve to
// sinks(shard_of(node)). At one shard the record holds the attached
// instruments; at three it holds per-shard domains. Null observational
// fields when nothing is attached; a tracer attached after start() needs
// no re-wiring.
TEST(Cluster, EngineContextWiresClientShardDomains) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    cluster::ClusterConfig config{.num_servers = kServers,
                                  .num_clients = kClients};
    config.shards = shards;
    cluster::Cluster bare(config);
    for (std::size_t i = 0; i < kClients; ++i) {
      const resilience::EngineContext ctx = bare.engine_context(i, false);
      EXPECT_EQ(ctx.sim, &bare.sim_for_client(i));
      EXPECT_EQ(ctx.client, &bare.client(i));
      EXPECT_EQ(ctx.tracer, nullptr);
      EXPECT_EQ(ctx.flight, nullptr);
      EXPECT_EQ(ctx.recorder, nullptr);
      EXPECT_FALSE(ctx.materialize);
    }

    cluster::Cluster cl(config);
    ASSERT_EQ(cl.sinks().size(), cl.num_shards());
    obs::Tracer tracer(true);
    const std::uint32_t pid = tracer.declare_process("ctx-pt");
    obs::FlightRecorder flight;
    obs::HealthSignals signals(kServers);
    cl.set_tracer(&tracer, pid);
    cl.set_flight_recorder(&flight);
    cl.set_health_signals(&signals);
    for (std::size_t s = 0; s < cl.num_shards(); ++s) {
      const obs::Sinks& sinks = cl.sinks(s);
      EXPECT_EQ(sinks.trace_pid, pid);
      ASSERT_NE(sinks.tracer, nullptr);
      ASSERT_NE(sinks.health, nullptr);
      ASSERT_NE(sinks.flight, nullptr);
      if (shards == 1) {
        EXPECT_EQ(sinks.tracer, &tracer);
        EXPECT_EQ(sinks.health, &signals);
        EXPECT_EQ(sinks.flight, &flight);
      } else {
        EXPECT_NE(sinks.tracer, &tracer) << "shard " << s;
        EXPECT_NE(sinks.health, &signals) << "shard " << s;
        EXPECT_NE(sinks.flight, &flight) << "shard " << s;
        for (std::size_t o = 0; o < s; ++o) {
          EXPECT_NE(sinks.tracer, cl.sinks(o).tracer);
          EXPECT_NE(sinks.health, cl.sinks(o).health);
          EXPECT_NE(sinks.flight, cl.sinks(o).flight);
        }
      }
    }
    for (std::size_t i = 0; i < kServers; ++i) {
      const auto node = static_cast<net::NodeId>(i);
      const obs::Sinks* home = &cl.sinks(cl.fabric().shard_of(node));
      EXPECT_EQ(&cl.sinks_of(node), home) << "server " << i;
      EXPECT_EQ(&cl.server(i).sinks(), home) << "server " << i;
      EXPECT_EQ(&cl.fabric().sinks_of(node), home) << "server " << i;
    }
    for (std::size_t i = 0; i < kClients; ++i) {
      const resilience::EngineContext ctx = cl.engine_context(i);
      const auto node = static_cast<net::NodeId>(kServers + i);
      const obs::Sinks* home = &cl.sinks(cl.fabric().shard_of(node));
      EXPECT_EQ(&cl.sinks_of(node), home) << "client " << i;
      EXPECT_EQ(&cl.client(i).sinks(), home) << "client " << i;
      EXPECT_EQ(&cl.fabric().sinks_of(node), home) << "client " << i;
      EXPECT_EQ(ctx.sim, &cl.sim_for_client(i)) << "shards=" << shards;
      EXPECT_EQ(ctx.client, &cl.client(i));
      EXPECT_EQ(ctx.ring, &cl.ring());
      EXPECT_EQ(ctx.membership, &cl.membership());
      EXPECT_EQ(ctx.server_nodes, &cl.server_nodes());
      EXPECT_TRUE(ctx.materialize);
      EXPECT_EQ(ctx.tracer, home->tracer);
      EXPECT_EQ(ctx.tracer, cl.tracer_for_client(i));
      EXPECT_EQ(ctx.trace_pid, pid);
      EXPECT_EQ(ctx.flight, home->flight);
    }

    // The records are bound once, at construction: a tracer attached after
    // start() reaches client 0's RPC layer and the fabric with no
    // re-wiring. The client's call to a silently lossy server times out
    // (rpc/timeout) and its call to a healthy one crosses the NICs.
    cl.set_rpc_policy(kv::RpcPolicy{.timeout_ns = 2 * units::kMillisecond});
    cl.start();
    obs::Tracer late(true);
    const std::uint32_t late_pid = late.declare_process("late-pt");
    cl.set_tracer(&late, late_pid);
    cl.fabric().set_node_loss(1, 1.0);
    std::vector<StatusCode> codes;
    struct Calls {
      static sim::Task<void> run(kv::Client* client,
                                 std::vector<StatusCode>* codes) {
        for (const net::NodeId dst : {net::NodeId{0}, net::NodeId{1}}) {
          kv::Request req;
          req.key = "late-tracer";
          codes->push_back((co_await client->invoke(dst, req)).code);
        }
      }
    };
    cl.sim_for_client(0).spawn(Calls::run(&cl.client(0), &codes));
    cl.run();
    cl.merge_obs_domains();
    ASSERT_EQ(codes.size(), 2u) << "shards=" << shards;
    EXPECT_NE(codes[0], StatusCode::kTimeout) << "shards=" << shards;
    EXPECT_EQ(codes[1], StatusCode::kTimeout) << "shards=" << shards;
    EXPECT_EQ(late.span_count(late_pid, "rpc/timeout"), 1u)
        << "shards=" << shards;
    // The request to server 0 and its response cross both NICs; the
    // request to lossy server 1 is dropped before it reaches a NIC.
    EXPECT_EQ(late.span_count(late_pid, "fabric/send"), 2u)
        << "shards=" << shards;
    EXPECT_EQ(late.span_count(late_pid, "fabric/recv"), 2u)
        << "shards=" << shards;
    EXPECT_EQ(tracer.span_count(pid, "rpc/timeout"), 0u);
  }
}

}  // namespace
}  // namespace hpres
