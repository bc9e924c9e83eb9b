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
#include "ec/cost_model.h"
#include "ec/rs_vandermonde.h"
#include "obs/critical_path.h"
#include "obs/flight_recorder.h"
#include "obs/health.h"
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
  std::uint64_t health_responses = 0;
  std::uint64_t health_timeouts = 0;
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
  obs::HealthSignals signals(kServers + kClients, /*slo_ns=*/2'000'000);
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
    for (obs::HealthSignals* domain : cl.health_domains()) {
      for (std::size_t n = 0; n < domain->num_nodes(); ++n) {
        const obs::HealthWindow w = domain->take_window(n);
        out.health_responses += w.responses;
        out.health_timeouts += w.timeouts;
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
  ASSERT_GT(oracle.health_responses, 0u);
  EXPECT_EQ(sharded.health_responses, oracle.health_responses);
  EXPECT_EQ(sharded.health_timeouts, oracle.health_timeouts);
}

// Cluster::engine_context hands each client its own shard's loop and
// observability domains (the process instruments at one shard), and null
// observational fields when nothing is attached.
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
    obs::Tracer tracer(true);
    const std::uint32_t pid = tracer.declare_process("ctx-pt");
    obs::FlightRecorder flight;
    cl.set_tracer(&tracer, pid);
    cl.set_flight_recorder(&flight);
    for (std::size_t i = 0; i < kClients; ++i) {
      const resilience::EngineContext ctx = cl.engine_context(i);
      const auto node = static_cast<net::NodeId>(kServers + i);
      EXPECT_EQ(ctx.sim, &cl.sim_for_client(i)) << "shards=" << shards;
      EXPECT_EQ(ctx.client, &cl.client(i));
      EXPECT_EQ(ctx.ring, &cl.ring());
      EXPECT_EQ(ctx.membership, &cl.membership());
      EXPECT_EQ(ctx.server_nodes, &cl.server_nodes());
      EXPECT_TRUE(ctx.materialize);
      EXPECT_EQ(ctx.tracer, cl.tracer_for_client(i));
      EXPECT_NE(ctx.tracer, nullptr);
      EXPECT_EQ(ctx.trace_pid, pid);
      EXPECT_EQ(ctx.flight, cl.flight_domain_of(node));
      EXPECT_NE(ctx.flight, nullptr);
      if (shards == 1) {
        EXPECT_EQ(ctx.tracer, &tracer);
        EXPECT_EQ(ctx.flight, &flight);
      } else {
        EXPECT_NE(ctx.tracer, &tracer);
        EXPECT_NE(ctx.flight, &flight);
      }
    }
  }
}

}  // namespace
}  // namespace hpres
