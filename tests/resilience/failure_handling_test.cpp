// Online failure handling: degraded reads that fail over to alternate
// fragments, deletes issued while an owner is down (no resurrection, orphan
// accounting), and RPC deadline/retry exhaustion on a lossy fabric.
#include <gtest/gtest.h>

#include "resilience/repair.h"
#include "testing/fixtures.h"

namespace hpres::resilience {
namespace {

using hpres::testing::FiveNodeClusterTest;
using hpres::testing::run_sim;

class FailureHandlingTest : public FiveNodeClusterTest {};

// Regression for the fragment-miss hang/failure: a Get whose chosen read
// set hits a live server that lost its fragment (crash before the Set,
// restart after) must re-select and succeed — any k live fragments suffice.
TEST_F(FailureHandlingTest, GetFailsOverWhenLiveServerMissesFragment) {
  auto engine = make_engine(Design::kEraCeCd);
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* e, cluster::Cluster* cl) {
      const std::size_t owner0 = cl->ring().slot_index("phoenix", 0);
      cl->fail_server(owner0);
      const Bytes original = make_pattern(30'000, 9);
      // Set skips the down owner: 4 of 5 fragments stored (>= k = 3).
      const Status s =
          co_await e->set("phoenix", make_shared_bytes(Bytes(original)));
      EXPECT_TRUE(s.ok()) << s;
      // The owner returns but never received its fragment.
      cl->recover_server(owner0);
      const Result<Bytes> got = co_await e->get("phoenix");
      EXPECT_TRUE(got.ok()) << got.status();
      if (got.ok()) { EXPECT_EQ(*got, original); }
      // The miss on the live server was worked around, not fatal: the slot
      // was dropped from the read set and an alternate fragment fetched.
      EXPECT_GE(e->stats().failover_fetches, 1u);
      EXPECT_GE(e->stats().degraded_gets, 1u);
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get(), &cluster_);
}

TEST_F(FailureHandlingTest, GetWorksWithExactlyKFragmentsLeft) {
  auto engine = make_engine(Design::kEraCeCd);
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* e, cluster::Cluster* cl) {
      const Bytes original = make_pattern(24'000, 3);
      (void)co_await e->set("exactk", make_shared_bytes(Bytes(original)));
      // Kill two owners (the m = 2 tolerance): exactly k = 3 remain.
      cl->fail_server(cl->ring().slot_index("exactk", 0));
      cl->fail_server(cl->ring().slot_index("exactk", 3));
      const Result<Bytes> got = co_await e->get("exactk");
      EXPECT_TRUE(got.ok()) << got.status();
      if (got.ok()) { EXPECT_EQ(*got, original); }
      EXPECT_GE(e->stats().degraded_gets, 1u);
      // One more failure exceeds the tolerance: the Get must fail cleanly,
      // not hang.
      cl->fail_server(cl->ring().slot_index("exactk", 1));
      const Result<Bytes> gone = co_await e->get("exactk");
      EXPECT_FALSE(gone.ok());
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get(), &cluster_);
}

// Delete while one fragment owner is down: the live fragments and any
// staged full copy must go; the unreachable fragment becomes an orphan
// that repair counts and purges instead of resurrecting the key.
TEST_F(FailureHandlingTest, DeleteUnderFailureLeavesNoResurrection) {
  auto engine = make_engine(Design::kEraCeCd);
  EngineContext rctx;
  rctx.sim = &cluster_.sim();
  rctx.client = &cluster_.client(0);
  rctx.ring = &cluster_.ring();
  rctx.membership = &cluster_.membership();
  rctx.server_nodes = &cluster_.server_nodes();
  rctx.materialize = true;
  RepairCoordinator repair(rctx, codec_, cost_);
  repair.set_purge_orphans(true);
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* e, cluster::Cluster* cl,
                               RepairCoordinator* repair) {
      const Bytes original = make_pattern(20'000, 5);
      (void)co_await e->set("victim", make_shared_bytes(Bytes(original)));
      const std::size_t owner0 = cl->ring().slot_index("victim", 0);
      cl->fail_server(owner0);
      const Status del = co_await e->del("victim");
      EXPECT_TRUE(del.ok()) << del;
      // The down owner still holds its fragment — an orphan out of reach.
      EXPECT_TRUE(
          cl->server(owner0).store().get("victim", 0).ok());
      cl->recover_server(owner0);
      // One stale fragment cannot resurrect the value: k are required.
      const Result<Bytes> got = co_await e->get("victim");
      EXPECT_FALSE(got.ok());

      // Repair recognises the remnant as unrepairable, counts it, and
      // purges the orphan fragment when asked to.
      (void)co_await repair->repair_all();
      EXPECT_GE(repair->stats().orphaned_keys, 1u);
      EXPECT_GE(repair->stats().orphan_fragments_purged, 1u);
      EXPECT_FALSE(
          cl->server(owner0).store().get("victim", 0).ok());
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get(), &cluster_, &repair);
}

// Server-side encode stages the full value under the plain key on the
// first *live* owner. A delete issued while slot 0's owner is down must
// route the staged-copy delete to that same first live owner — before the
// fix it was only ever sent to slot 0, leaving the staged copy behind.
TEST_F(FailureHandlingTest, DeleteReachesStagedCopyWhenSlotZeroOwnerDown) {
  auto engine = make_engine(Design::kEraSeCd);
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* e, cluster::Cluster* cl) {
      const std::size_t owner0 = cl->ring().slot_index("staged", 0);
      cl->fail_server(owner0);
      // The stager is now the first live owner (slot 1's).
      const Status s = co_await e->set(
          "staged", make_shared_bytes(make_pattern(400'000, 8)));
      EXPECT_TRUE(s.ok()) << s;
      // Delete races the background distribution: the staged full copy is
      // still on the stager and must be removed by this delete.
      const Status del = co_await e->del("staged");
      EXPECT_TRUE(del.ok()) << del;
      for (std::size_t srv = 0; srv < 5; ++srv) {
        if (srv == owner0) continue;
        EXPECT_FALSE(cl->server(srv).store().get("staged").ok())
            << "staged full copy survived the delete on server " << srv;
      }
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get(), &cluster_);
}

// A fully lossy fabric with both endpoints nominally up: without deadlines
// every call would hang forever on the silently-dropping fabric. With a
// policy armed the operation must resolve as kTimeout after exhausting
// every retry, with the attempts accounted.
TEST_F(FailureHandlingTest, TimeoutAfterRetryExhaustionOnLossyFabric) {
  kv::RpcPolicy policy;
  policy.timeout_ns = 50'000;  // 50 us per attempt
  policy.max_retries = 2;      // 3 attempts total
  policy.backoff_ns = 10'000;
  cluster_.set_rpc_policy(policy);
  auto engine = make_engine(Design::kEraCeCd);
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* e, cluster::Cluster* cl) {
      cl->fabric().set_loss(1.0, 0xfee1);
      const Result<Bytes> got = co_await e->get("unreachable");
      EXPECT_FALSE(got.ok());
      EXPECT_EQ(got.status().code(), StatusCode::kTimeout);
      // k = 3 fragment fetches, each timing out 3 times.
      const kv::RpcStats& rpc = cl->client(0).rpc_stats();
      EXPECT_EQ(rpc.timeouts, 9u);
      EXPECT_EQ(rpc.retries, 6u);
      cl->fabric().set_loss(0.0);
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get(), &cluster_);
}

// Without an armed policy the guarded paths must behave exactly like the
// legacy unguarded ones (no timer events, no overhead) — a Set against a
// healthy cluster is byte-identical either way.
TEST_F(FailureHandlingTest, DefaultPolicyMatchesUnguardedTiming) {
  auto run_with = [&](bool armed) {
    ec::RsVandermondeCodec codec(3, 2);
    const auto cost = ec::CostModel::defaults(ec::Scheme::kRsVandermonde, 3, 2);
    cluster::Cluster cl(
        cluster::ClusterConfig{.num_servers = 5, .num_clients = 1});
    cl.enable_server_ec(codec, cost, false);
    if (armed) cl.set_rpc_policy(kv::RpcPolicy{});  // defaults: disabled
    resilience::EngineContext ctx;
    ctx.sim = &cl.sim();
    ctx.client = &cl.client(0);
    ctx.ring = &cl.ring();
    ctx.membership = &cl.membership();
    ctx.server_nodes = &cl.server_nodes();
    ctx.materialize = false;
    auto e = resilience::make_engine(resilience::Design::kEraCeCd, ctx, 3,
                                     &codec, cost);
    cl.start();
    struct Ops {
      static sim::Task<void> run(resilience::Engine* eng) {
        (void)co_await eng->set("tick", zero_bytes(64 * 1024));
        (void)co_await eng->get("tick");
      }
    };
    run_sim(cl.sim(), Ops::run, e.get());
    return std::pair{cl.sim().now(), cl.sim().events_executed()};
  };
  EXPECT_EQ(run_with(false), run_with(true));
}

}  // namespace
}  // namespace hpres::resilience
