// Repair coordinator: discovery via scan, fragment rebuild onto recovered
// servers, and restoration of full fault tolerance.
#include "resilience/repair.h"

#include <gtest/gtest.h>

#include "ec/lrc.h"
#include "testing/fixtures.h"

namespace hpres::resilience {
namespace {

using hpres::testing::FiveNodeClusterTest;
using hpres::testing::run_sim;

class RepairTest : public FiveNodeClusterTest {
 protected:
  std::unique_ptr<RepairCoordinator> make_coordinator() {
    EngineContext ctx;
    ctx.sim = &cluster_.sim();
    ctx.client = &cluster_.client(0);
    ctx.ring = &cluster_.ring();
    ctx.membership = &cluster_.membership();
    ctx.server_nodes = &cluster_.server_nodes();
    ctx.materialize = true;
    return std::make_unique<RepairCoordinator>(ctx, codec_, cost_);
  }
};

TEST_F(RepairTest, DiscoverListsBaseKeysOfFragments) {
  auto engine = make_engine(Design::kEraCeCd);
  auto repair = make_coordinator();
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* e, RepairCoordinator* rc) {
      (void)co_await e->set("alpha", make_shared_bytes(make_pattern(9000, 1)));
      (void)co_await e->set("beta", make_shared_bytes(make_pattern(9000, 2)));
      const auto keys = co_await rc->discover(0);
      EXPECT_TRUE(keys.ok());
      if (keys.ok()) {
        // Every server holds one fragment of each key (5 = k+m servers).
        EXPECT_EQ(keys->size(), 2u);
        EXPECT_NE(std::find(keys->begin(), keys->end(), "alpha"),
                  keys->end());
        EXPECT_NE(std::find(keys->begin(), keys->end(), "beta"),
                  keys->end());
      }
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get(), repair.get());
}

TEST_F(RepairTest, DiscoverFromDeadServerFails) {
  auto repair = make_coordinator();
  cluster_.fail_server(2);
  cluster_.start();
  struct Body {
    static sim::Task<void> run(RepairCoordinator* rc) {
      const auto keys = co_await rc->discover(2);
      EXPECT_EQ(keys.status().code(), StatusCode::kUnavailable);
    }
  };
  run_sim(cluster_.sim(), Body::run, repair.get());
}

TEST_F(RepairTest, RebuildsFragmentsOntoRecoveredServer) {
  auto engine = make_engine(Design::kEraCeCd);
  auto repair = make_coordinator();
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* e, RepairCoordinator* rc,
                               cluster::Cluster* cl) {
      const Bytes original = make_pattern(60'000, 3);
      (void)co_await e->set("obj", make_shared_bytes(Bytes(original)));

      // Server dies, loses its fragment, and comes back empty.
      const std::size_t victim = cl->ring().slot_index("obj", 0);
      cl->fail_server(victim);
      // Simulate total state loss on the dead node.
      while (!cl->server(victim).store().keys().empty()) {
        cl->server(victim).store().erase(
            cl->server(victim).store().keys().front());
      }
      cl->recover_server(victim);
      EXPECT_EQ(cl->server(victim).store().items(), 0u);

      const Status s = co_await rc->repair_key("obj");
      EXPECT_TRUE(s.ok()) << s;
      EXPECT_EQ(rc->stats().fragments_rebuilt, 1u);
      EXPECT_EQ(cl->server(victim).store().items(), 1u);

      // The rebuilt fragment is byte-identical: kill two OTHER servers and
      // reconstruct through the rebuilt one.
      cl->fail_server(cl->ring().slot_index("obj", 1));
      cl->fail_server(cl->ring().slot_index("obj", 2));
      const Result<Bytes> got = co_await e->get("obj");
      EXPECT_TRUE(got.ok()) << got.status();
      if (got.ok()) { EXPECT_EQ(*got, original); }
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get(), repair.get(), &cluster_);
}

TEST_F(RepairTest, RebuildsPackedStripeFragments) {
  auto engine = make_engine(Design::kEraCeCd, 3, {}, {},
                            PackParams{.pack_threshold = 512});
  auto repair = make_coordinator();
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* e, RepairCoordinator* rc,
                               cluster::Cluster* cl) {
      constexpr std::size_t kKeys = 24;
      std::vector<Bytes> originals;
      for (std::size_t i = 0; i < kKeys; ++i) {
        originals.push_back(make_pattern(40 + i * 13, i + 1));
        (void)e->iset("pk" + std::to_string(i),
                      make_shared_bytes(Bytes(originals[i])));
      }
      co_await e->wait_all();
      co_await cl->sim().delay(units::kMillisecond);  // quiesce
      EXPECT_GE(e->stats().stripes_sealed, 1u);

      // One stripe-fragment owner loses its store and comes back empty.
      constexpr std::size_t kVictim = 1;
      cl->fail_server(kVictim);
      cl->server(kVictim).store().clear();
      cl->recover_server(kVictim);
      const Status s = co_await rc->repair_all();
      EXPECT_TRUE(s.ok()) << s;
      EXPECT_EQ(rc->stats().fragments_rebuilt, e->stats().stripes_sealed);

      // m other owners fail: every stripe now decodes through the rebuilt
      // fragment, and each packed value must come back byte-identical.
      cl->fail_server(0);
      cl->fail_server(3);
      for (std::size_t i = 0; i < kKeys; ++i) {
        const Result<Bytes> got = co_await e->get("pk" + std::to_string(i));
        EXPECT_TRUE(got.ok()) << "pk" << i << ": " << got.status();
        if (got.ok()) { EXPECT_EQ(*got, originals[i]) << "pk" << i; }
      }
      EXPECT_GE(e->stats().packed_degraded_gets, 1u);
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get(), repair.get(), &cluster_);
}

TEST_F(RepairTest, IntactKeyIsNoOp) {
  auto engine = make_engine(Design::kEraCeCd);
  auto repair = make_coordinator();
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* e, RepairCoordinator* rc) {
      (void)co_await e->set("fine", make_shared_bytes(make_pattern(5000, 4)));
      const Status s = co_await rc->repair_key("fine");
      EXPECT_TRUE(s.ok());
      EXPECT_EQ(rc->stats().fragments_rebuilt, 0u);
      EXPECT_EQ(rc->stats().keys_repaired, 0u);
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get(), repair.get());
}

TEST_F(RepairTest, UnrepairableBeyondTolerance) {
  auto engine = make_engine(Design::kEraCeCd);
  auto repair = make_coordinator();
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* e, RepairCoordinator* rc,
                               cluster::Cluster* cl) {
      (void)co_await e->set("doomed",
                            make_shared_bytes(make_pattern(5000, 5)));
      // Wipe three fragments (owners stay up, data gone): only 2 < k left.
      for (std::size_t slot = 0; slot < 3; ++slot) {
        const std::size_t owner = cl->ring().slot_index("doomed", slot);
        cl->server(owner).store().erase(kv::chunk_key("doomed", slot));
      }
      const Status s = co_await rc->repair_key("doomed");
      EXPECT_EQ(s.code(), StatusCode::kTooManyFailures);
      EXPECT_EQ(rc->stats().unrepairable_keys, 1u);
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get(), repair.get(), &cluster_);
}

TEST_F(RepairTest, RepairAllCoversEveryAffectedKey) {
  auto engine = make_engine(Design::kEraCeCd);
  auto repair = make_coordinator();
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* e, RepairCoordinator* rc,
                               cluster::Cluster* cl) {
      for (int i = 0; i < 10; ++i) {
        (void)co_await e->set("key" + std::to_string(i),
                              make_shared_bytes(make_pattern(4000, static_cast<std::uint64_t>(i))));
      }
      // Node 0 loses everything, then rejoins empty.
      cl->fail_server(0);
      while (!cl->server(0).store().keys().empty()) {
        cl->server(0).store().erase(cl->server(0).store().keys().front());
      }
      cl->recover_server(0);

      const Status s = co_await rc->repair_all();
      EXPECT_TRUE(s.ok()) << s;
      // Every key had a fragment on server 0 (5 servers, 5 fragments).
      EXPECT_EQ(rc->stats().fragments_rebuilt, 10u);
      EXPECT_EQ(cl->server(0).store().items(), 10u);
      // Degraded-free reads everywhere afterwards.
      for (int i = 0; i < 10; ++i) {
        const Result<Bytes> got =
            co_await e->get("key" + std::to_string(i));
        EXPECT_TRUE(got.ok());
        if (got.ok()) {
          EXPECT_EQ(*got, make_pattern(4000, static_cast<std::uint64_t>(i)));
        }
      }
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get(), repair.get(), &cluster_);
}

TEST_F(RepairTest, RepairAllReportsAServerWhoseScanFails) {
  auto repair = make_coordinator();
  // Server 2's NIC is gone but membership has not noticed yet: it still
  // reads as up, so repair_all scans it and the scan fails. Nothing else
  // needs repair, so only the scan can make the pass fail.
  cluster_.fabric().set_node_up(cluster_.server_nodes()[2], false);
  cluster_.start();
  struct Body {
    static sim::Task<void> run(RepairCoordinator* rc, Status* out) {
      *out = co_await rc->repair_all();
    }
  };
  Status status;
  run_sim(cluster_.sim(), Body::run, repair.get(), &status);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status;
  EXPECT_EQ(repair->stats().scan_failures, 1u);
  EXPECT_EQ(repair->stats().keys_scanned, 0u);
}

// --- LRC repair -------------------------------------------------------------

/// LRC(4,2,1) on 7 servers, one fragment per server: local groups
/// {0, 1 | parity 4} and {2, 3 | parity 5}, global parity 6.
class LrcRepairTest : public ::testing::Test {
 protected:
  LrcRepairTest()
      : lrc_(4, 2, 1),
        cost_(ec::CostModel::defaults(ec::Scheme::kRsVandermonde, 4, 3)),
        cluster_(cluster::ClusterConfig{.num_servers = 7, .num_clients = 1}) {
    cluster_.enable_server_ec(lrc_, cost_, /*materialize=*/true);
  }

  [[nodiscard]] EngineContext context(bool materialize) {
    EngineContext ctx;
    ctx.sim = &cluster_.sim();
    ctx.client = &cluster_.client(0);
    ctx.ring = &cluster_.ring();
    ctx.membership = &cluster_.membership();
    ctx.server_nodes = &cluster_.server_nodes();
    ctx.materialize = materialize;
    return ctx;
  }

  ec::LrcCodec lrc_;
  ec::CostModel cost_;
  cluster::Cluster cluster_;

 public:
  /// The store of the server owning `slot` of `key`.
  kv::StorageEngine& owner_store(const kv::Key& key, std::size_t slot) {
    return cluster_.server(cluster_.ring().slot_index(key, slot)).store();
  }
};

TEST_F(LrcRepairTest, RebuildsDecodableLossOfTwoDataSlots) {
  // Slots {0, 1} lost: survivors 2, 3, 4 (= 0 ^ 1), 6 span the data even
  // though the first k present slots (2, 3, 4, 5) do not.
  ErasureEngine engine(context(true), lrc_, cost_, Design::kEraCeCd);
  RepairCoordinator repair(context(true), lrc_, cost_);
  cluster_.start();
  struct Body {
    static sim::Task<void> run(ErasureEngine* e, RepairCoordinator* rc,
                               LrcRepairTest* t) {
      const Bytes original = make_pattern(40'000, 12);
      EXPECT_TRUE((co_await e->set("obj", make_shared_bytes(original))).ok());
      std::vector<Bytes> lost;
      for (const std::size_t slot : {0u, 1u}) {
        const kv::Key ckey = kv::chunk_key("obj", slot);
        const auto got = t->owner_store("obj", slot).get(ckey);
        EXPECT_TRUE(got.ok());
        lost.push_back(got.ok() ? *got->value : Bytes{});
        t->owner_store("obj", slot).erase(ckey);
      }

      const Status s = co_await rc->repair_key("obj");
      EXPECT_TRUE(s.ok()) << s;
      EXPECT_EQ(rc->stats().keys_repaired, 1u);
      EXPECT_EQ(rc->stats().fragments_rebuilt, 2u);
      EXPECT_EQ(rc->stats().unrepairable_keys, 0u);
      for (const std::size_t slot : {0u, 1u}) {
        const auto got =
            t->owner_store("obj", slot).get(kv::chunk_key("obj", slot));
        EXPECT_TRUE(got.ok()) << slot;
        if (got.ok()) { EXPECT_EQ(*got->value, lost[slot]) << slot; }
      }
      const Result<Bytes> read = co_await e->get("obj");
      EXPECT_TRUE(read.ok()) << read.status();
      if (read.ok()) { EXPECT_EQ(*read, original); }
    }
  };
  run_sim(cluster_.sim(), Body::run, &engine, &repair, this);
}

TEST_F(LrcRepairTest, UndecodablePatternIsUnrepairableInBothModes) {
  // Slots {0, 1, 4} lost: k = 4 fragments survive (2, 3, 5, 6) but span
  // rank 3 only. Neither mode may count the key repaired or write bytes.
  ErasureEngine engine(context(true), lrc_, cost_, Design::kEraCeCd);
  RepairCoordinator materialized(context(true), lrc_, cost_);
  RepairCoordinator size_only(context(false), lrc_, cost_);
  cluster_.start();
  struct Body {
    static sim::Task<void> run(ErasureEngine* e, RepairCoordinator* mat,
                               RepairCoordinator* sized, LrcRepairTest* t) {
      EXPECT_TRUE(
          (co_await e->set("obj", make_shared_bytes(make_pattern(9000, 13))))
              .ok());
      for (const std::size_t slot : {0u, 1u, 4u}) {
        t->owner_store("obj", slot).erase(kv::chunk_key("obj", slot));
      }
      for (RepairCoordinator* rc : {mat, sized}) {
        const Status s = co_await rc->repair_key("obj");
        EXPECT_EQ(s.code(), StatusCode::kTooManyFailures);
        EXPECT_EQ(rc->stats().unrepairable_keys, 1u);
        EXPECT_EQ(rc->stats().keys_repaired, 0u);
        EXPECT_EQ(rc->stats().fragments_rebuilt, 0u);
      }
      for (const std::size_t slot : {0u, 1u, 4u}) {
        EXPECT_FALSE(t->owner_store("obj", slot)
                         .get(kv::chunk_key("obj", slot))
                         .ok())
            << slot;
      }
    }
  };
  run_sim(cluster_.sim(), Body::run, &engine, &materialized, &size_only,
          this);
}

}  // namespace
}  // namespace hpres::resilience
