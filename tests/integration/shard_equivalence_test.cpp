// Oracle-vs-parallel equivalence gates for the shard runtime: identical op
// counts, fabric conservation at quiescence, bit-identical repeats for a
// fixed shard count, a pinned sharded schedule, and latency magnitudes
// within tolerance. These are the statistical-equivalence checks the
// multi-shard mode ships behind. A delayed hedge, whose wake-up is a
// deadline re-armed on every pass of the fetch loop, must fire at exactly
// the same instant at every shard count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/testbeds.h"
#include "ec/cost_model.h"
#include "ec/rs_vandermonde.h"
#include "obs/flight_recorder.h"
#include "obs/latency.h"
#include "obs/trace.h"
#include "resilience/factory.h"
#include "workload/ycsb.h"

namespace hpres {
namespace {

struct ShardedOutcome {
  SimTime makespan = 0;
  std::uint64_t events = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t failures = 0;
  std::int64_t read_latency_sum = 0;
  double read_latency_mean = 0.0;
  net::FabricStats fabric;
  std::uint64_t in_flight_bytes = 0;
  std::uint64_t in_flight_messages = 0;
  std::uint64_t rounds = 0;  ///< barrier rounds, preload included
};

/// One small YCSB-A run at the given shard count: 8 servers, 8 clients,
/// era-ce-cd, engines and workload procs pinned to their client's shard.
ShardedOutcome run_sharded_ycsb(std::size_t shards, std::uint64_t seed) {
  constexpr std::size_t kClients = 8;
  ec::RsVandermondeCodec codec(3, 2);
  const auto cost = ec::CostModel::defaults(ec::Scheme::kRsVandermonde, 3, 2);
  cluster::ClusterConfig config{.num_servers = 8, .num_clients = kClients};
  config.shards = shards;
  cluster::Cluster cl(config);
  cl.enable_server_ec(codec, cost, false);
  // One latency recorder per shard: engines on different shard threads
  // never share one.
  std::vector<obs::LatencyRecorder> recorders(cl.num_shards());
  std::vector<std::unique_ptr<resilience::Engine>> engines;
  for (std::size_t c = 0; c < kClients; ++c) {
    resilience::EngineContext ctx = cl.engine_context(c, false);
    ctx.recorder = &recorders[cl.fabric().shard_of(
        static_cast<net::NodeId>(config.num_servers + c))];
    engines.push_back(resilience::make_engine(resilience::Design::kEraCeCd,
                                              ctx, 3, &codec, cost));
  }
  cl.start();

  workload::YcsbConfig cfg;
  cfg.record_count = 400;
  cfg.ops_per_client = 150;
  cfg.value_size = 8192;
  cfg.seed = seed;

  // Preload to quiescence first: a client racing the loader turns missing
  // keys into timing-dependent failures, which would break the exact-count
  // gates below.
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
  for (obs::LatencyRecorder& r : recorders) r.clear();

  std::vector<workload::YcsbResult> results(kClients);
  struct Proc {
    static sim::Task<void> run(sim::Simulator* sim, resilience::Engine* e,
                               workload::YcsbConfig c, std::uint64_t s,
                               workload::YcsbResult* r) {
      co_await workload::ycsb_client(sim, e, c, s, r);
    }
  };
  const SimTime start = cl.sim().now();
  for (std::size_t c = 0; c < kClients; ++c) {
    sim::Simulator& csim = cl.sim_for_client(c);
    csim.spawn(Proc::run(&csim, engines[c].get(), cfg, seed + 13 * c,
                         &results[c]));
  }
  ShardedOutcome out;
  out.makespan = cl.run() - start;
  out.events = cl.runtime().events_executed();
  for (const auto& r : results) {
    out.reads += r.reads;
    out.writes += r.writes;
    out.failures += r.failures;
  }
  for (const obs::LatencyRecorder& r : recorders) {
    out.read_latency_sum += r.pooled("get").sum();
  }
  out.read_latency_mean =
      out.reads > 0
          ? static_cast<double>(out.read_latency_sum) /
                static_cast<double>(out.reads)
          : 0.0;
  out.fabric = cl.fabric().stats();
  out.in_flight_bytes = cl.fabric().in_flight_bytes();
  out.in_flight_messages = cl.fabric().in_flight_messages();
  out.rounds = cl.runtime().rounds();
  return out;
}

TEST(ShardEquivalence, OpCountsAndByteTotalsMatchOracle) {
  const ShardedOutcome oracle = run_sharded_ycsb(1, 42);
  for (const std::size_t shards : {2u, 4u}) {
    const ShardedOutcome p = run_sharded_ycsb(shards, 42);
    // The op mix is derived from seed-fixed RNG streams: any count drift is
    // a lost or duplicated message, not noise.
    EXPECT_EQ(p.reads, oracle.reads) << "shards=" << shards;
    EXPECT_EQ(p.writes, oracle.writes) << "shards=" << shards;
    EXPECT_EQ(p.failures, oracle.failures) << "shards=" << shards;
    // No faults and no hedging: the message set is timing-independent.
    EXPECT_EQ(p.fabric.bytes_sent, oracle.fabric.bytes_sent)
        << "shards=" << shards;
    EXPECT_EQ(p.fabric.bytes_delivered, oracle.fabric.bytes_delivered)
        << "shards=" << shards;
    EXPECT_EQ(p.fabric.messages_sent, oracle.fabric.messages_sent)
        << "shards=" << shards;
  }
}

TEST(ShardEquivalence, FabricConservationAtQuiescence) {
  for (const std::size_t shards : {1u, 2u, 4u}) {
    const ShardedOutcome o = run_sharded_ycsb(shards, 7);
    EXPECT_EQ(o.fabric.messages_sent,
              o.fabric.messages_delivered + o.fabric.messages_dropped)
        << "shards=" << shards;
    EXPECT_EQ(o.fabric.bytes_sent,
              o.fabric.bytes_delivered + o.fabric.bytes_dropped)
        << "shards=" << shards;
    EXPECT_EQ(o.in_flight_bytes, 0u) << "shards=" << shards;
    EXPECT_EQ(o.in_flight_messages, 0u) << "shards=" << shards;
  }
}

TEST(ShardEquivalence, FixedShardCountIsBitReproducible) {
  const ShardedOutcome a = run_sharded_ycsb(4, 99);
  const ShardedOutcome b = run_sharded_ycsb(4, 99);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.read_latency_sum, b.read_latency_sum);
}

// The sharded schedule itself, pinned at 2 and 4 shards: a change to the
// round protocol (horizons, windows, lane drains, merge order) that moves
// any event, message or round fails here, even if it stays reproducible.
TEST(ShardEquivalence, ShardedSchedulePinned) {
  struct Pin {
    std::size_t shards;
    SimTime makespan;
    std::uint64_t events;
    std::int64_t read_latency_sum;
    std::uint64_t messages_sent;
    std::uint64_t reads;
    std::uint64_t rounds;
  };
  const Pin pins[] = {
      {2, 2'461'481, 70'194, 7'863'790, 13'644, 589, 2'503},
      {4, 2'435'693, 74'374, 7'772'798, 13'644, 589, 2'649},
  };
  for (const Pin& pin : pins) {
    const ShardedOutcome o = run_sharded_ycsb(pin.shards, 7);
    EXPECT_EQ(o.makespan, pin.makespan) << "shards=" << pin.shards;
    EXPECT_EQ(o.events, pin.events) << "shards=" << pin.shards;
    EXPECT_EQ(o.read_latency_sum, pin.read_latency_sum)
        << "shards=" << pin.shards;
    EXPECT_EQ(o.fabric.messages_sent, pin.messages_sent)
        << "shards=" << pin.shards;
    EXPECT_EQ(o.reads, pin.reads) << "shards=" << pin.shards;
    EXPECT_EQ(o.rounds, pin.rounds) << "shards=" << pin.shards;
  }
}

TEST(ShardEquivalence, LatencyMagnitudesWithinTolerance) {
  const ShardedOutcome oracle = run_sharded_ycsb(1, 5);
  for (const std::size_t shards : {2u, 4u}) {
    const ShardedOutcome p = run_sharded_ycsb(shards, 5);
    // Cross-shard rx-NIC contention resolves in arrival order rather than
    // send order, so individual latencies shift; the distribution must not.
    ASSERT_GT(oracle.read_latency_mean, 0.0);
    const double rel = p.read_latency_mean / oracle.read_latency_mean;
    EXPECT_GT(rel, 0.7) << "shards=" << shards;
    EXPECT_LT(rel, 1.3) << "shards=" << shards;
    const double mksp = static_cast<double>(p.makespan) /
                        static_cast<double>(oracle.makespan);
    EXPECT_GT(mksp, 0.85) << "shards=" << shards;
    EXPECT_LT(mksp, 1.15) << "shards=" << shards;
  }
}

TEST(ShardEquivalence, OracleMatchesLegacySingleLoop) {
  // shards=0 and shards=1 are the same oracle: one inline event loop.
  const ShardedOutcome zero = run_sharded_ycsb(0, 3);
  const ShardedOutcome one = run_sharded_ycsb(1, 3);
  EXPECT_EQ(zero.makespan, one.makespan);
  EXPECT_EQ(zero.events, one.events);
  EXPECT_EQ(zero.read_latency_sum, one.read_latency_sum);
}

struct HedgeOutcome {
  bool ok = false;               ///< the Get returned the written bytes
  SimTime fetch_t0 = 0;          ///< fragment fetches posted
  SimDur issue_ns = 0;           ///< client CPU to issue one fetch
  SimTime get_done = 0;
  std::size_t armed_at_done = 0;  ///< timers armed on the client's loop
  std::vector<SimTime> hedge_fired;  ///< kHedgeFired record times
  std::uint64_t hedges_fired = 0;
  std::uint64_t hedge_wins = 0;
  SimTime quiesced = 0;
};

constexpr SimDur kHedgeDelay = 20 * units::kMicrosecond;

/// One hedged Get (delta = 1, a 20 us hedge delay) of a 4 KiB RS(3,2)
/// value on 5 servers, written first by an unhedged engine so the hedged
/// engine's load tracker is cold and it fetches slots 0..2. `slow` makes
/// the owner of slot 0 gray-slow, so the Get is short of k at the hedge
/// delay.
HedgeOutcome run_delayed_hedge(std::size_t shards, bool slow) {
  ec::RsVandermondeCodec codec(3, 2);
  const auto cost = ec::CostModel::defaults(ec::Scheme::kRsVandermonde, 3, 2);
  cluster::ClusterConfig config{.num_servers = 5, .num_clients = 1};
  config.shards = shards;
  cluster::Cluster cl(config);
  cl.enable_server_ec(codec, cost, /*materialize=*/true);
  obs::Tracer tracer(true);
  const std::uint32_t pid = tracer.declare_process("hedge");
  cl.set_tracer(&tracer, pid);
  obs::FlightRecorder flight;
  cl.set_flight_recorder(&flight);
  resilience::HedgeParams hedge;
  hedge.delta = 1;
  hedge.delay_ns = kHedgeDelay;
  const auto writer = resilience::make_engine(
      resilience::Design::kEraCeCd, cl.engine_context(0), 3, &codec, cost);
  const auto reader = resilience::make_engine(
      resilience::Design::kEraCeCd, cl.engine_context(0), 3, &codec, cost,
      resilience::ArpeParams{}, hedge);
  cl.start();

  const Bytes value = make_pattern(4096, 21);
  HedgeOutcome out;
  struct Body {
    static sim::Task<void> set(resilience::Engine* e, Bytes v) {
      EXPECT_TRUE((co_await e->set("hedged", make_shared_bytes(v))).ok());
    }
    static sim::Task<void> get(sim::Simulator* sim, resilience::Engine* e,
                               Bytes v, HedgeOutcome* o) {
      const Result<Bytes> got = co_await e->get("hedged");
      o->ok = got.ok() && *got == v;
      o->get_done = sim->now();
      o->armed_at_done = sim->armed_timers();
    }
  };
  sim::Simulator& csim = cl.sim_for_client(0);
  csim.spawn(Body::set(writer.get(), value));
  cl.run();
  if (slow) cl.server(cl.ring().slot_index("hedged", 0)).set_slowdown(50.0);
  csim.spawn(Body::get(&csim, reader.get(), value, &out));
  out.quiesced = cl.run();
  cl.merge_obs_domains();

  for (const obs::TraceSpan& span : tracer.tagged_spans(pid)) {
    if (span.name != "get/request") continue;
    out.fetch_t0 = span.begin_ns + span.dur_ns;
    out.issue_ns = span.dur_ns / 3;  // k fetches from one CPU slice
  }
  for (const net::NodeId node : cl.server_nodes()) {
    for (const obs::FlightRecord& r : flight.events(node)) {
      if (r.type == obs::FlightEventType::kHedgeFired) {
        out.hedge_fired.push_back(r.t_ns);
      }
    }
  }
  out.hedges_fired = reader->stats().hedges_fired;
  out.hedge_wins = reader->stats().hedge_wins;
  return out;
}

TEST(ShardEquivalence, DelayedHedgeFiresAtItsDueTime) {
  const HedgeOutcome oracle = run_delayed_hedge(1, /*slow=*/true);
  const HedgeOutcome sharded = run_delayed_hedge(4, /*slow=*/true);
  for (const HedgeOutcome* o : {&oracle, &sharded}) {
    ASSERT_TRUE(o->ok);
    ASSERT_GT(o->issue_ns, 0);
    // The hedge wakes at fetch_t0 + delay, then spends its own issue CPU.
    EXPECT_EQ(o->hedge_fired, (std::vector<SimTime>{
                                  o->fetch_t0 + kHedgeDelay + o->issue_ns}));
    EXPECT_EQ(o->hedges_fired, 1u);
    EXPECT_EQ(o->armed_at_done, 0u);
  }
  // The write before the Get contends for NICs across shards, so fetch_t0
  // itself moves with the shard count; the Get measured from it does not.
  EXPECT_EQ(sharded.get_done - sharded.fetch_t0,
            oracle.get_done - oracle.fetch_t0);
  EXPECT_EQ(sharded.hedge_wins, oracle.hedge_wins);
}

TEST(ShardEquivalence, DelayedHedgeStaysUnfiredWhenKArriveFirst) {
  for (const std::size_t shards : {1u, 4u}) {
    const HedgeOutcome o = run_delayed_hedge(shards, /*slow=*/false);
    EXPECT_TRUE(o.ok) << "shards=" << shards;
    EXPECT_EQ(o.hedges_fired, 0u) << "shards=" << shards;
    EXPECT_TRUE(o.hedge_fired.empty()) << "shards=" << shards;
    // All k fragments landed before the hedge delay; the deadline was
    // disarmed with the wait, so the run never reaches it.
    EXPECT_LT(o.get_done, o.fetch_t0 + kHedgeDelay) << "shards=" << shards;
    EXPECT_EQ(o.armed_at_done, 0u) << "shards=" << shards;
    EXPECT_LT(o.quiesced, o.fetch_t0 + kHedgeDelay) << "shards=" << shards;
  }
}

}  // namespace
}  // namespace hpres
