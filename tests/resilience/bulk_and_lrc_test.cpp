// Bulk mset/mget semantics and end-to-end LRC-backed engine operation.
#include <gtest/gtest.h>

#include "ec/lrc.h"
#include "testing/fixtures.h"

namespace hpres::resilience {
namespace {

using hpres::testing::FiveNodeClusterTest;
using hpres::testing::run_sim;

class BulkTest : public FiveNodeClusterTest {};

TEST_F(BulkTest, MsetMgetRoundTrip) {
  auto engine = make_engine(Design::kEraCeCd);
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* e) {
      std::vector<kv::Key> keys;
      std::vector<SharedBytes> values;
      for (int i = 0; i < 12; ++i) {
        keys.push_back("bulk" + std::to_string(i));
        values.push_back(make_shared_bytes(
            make_pattern(4096 + 512 * static_cast<std::size_t>(i),
                         static_cast<std::uint64_t>(i))));
      }
      const std::vector<Status> sets =
          co_await e->mset(std::vector<kv::Key>(keys), std::move(values));
      EXPECT_EQ(sets.size(), 12u);
      for (const auto& s : sets) EXPECT_TRUE(s.ok());

      const std::vector<Result<Bytes>> gets = co_await e->mget(keys);
      EXPECT_EQ(gets.size(), 12u);
      for (int i = 0; i < 12; ++i) {
        const auto& r = gets[static_cast<std::size_t>(i)];
        EXPECT_TRUE(r.ok());
        if (r.ok()) {
          EXPECT_EQ(r.value(),
                    make_pattern(4096 + 512 * static_cast<std::size_t>(i),
                                 static_cast<std::uint64_t>(i)));
        }
      }
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get());
}

TEST_F(BulkTest, MgetReportsPerKeyMisses) {
  auto engine = make_engine(Design::kAsyncRep);
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* e) {
      (void)co_await e->set("exists", make_shared_bytes(make_pattern(100, 1)));
      std::vector<kv::Key> keys{"exists", "missing"};
      const auto results = co_await e->mget(std::move(keys));
      EXPECT_EQ(results.size(), 2u);
      EXPECT_TRUE(results[0].ok());
      EXPECT_EQ(results[1].status().code(), StatusCode::kNotFound);
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get());
}

TEST_F(BulkTest, BulkBatchOverlapsTransfers) {
  // The Section III-B claim: a batch of B sets through the window finishes
  // well before B sequential blocking sets.
  auto batched = make_engine(Design::kAsyncRep);
  auto serial = make_engine(Design::kAsyncRep);
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* batch_e, Engine* serial_e,
                               sim::Simulator* sim) {
      constexpr int kOps = 16;
      const auto v = make_shared_bytes(make_pattern(128 * 1024, 7));
      const SimTime t0 = sim->now();
      for (int i = 0; i < kOps; ++i) {
        (void)co_await serial_e->set("s" + std::to_string(i), v);
      }
      const SimDur serial_time = sim->now() - t0;
      std::vector<kv::Key> keys;
      std::vector<SharedBytes> values;
      for (int i = 0; i < kOps; ++i) {
        keys.push_back("b" + std::to_string(i));
        values.push_back(v);
      }
      const SimTime t1 = sim->now();
      (void)co_await batch_e->mset(std::move(keys), std::move(values));
      const SimDur batch_time = sim->now() - t1;
      // The batch is client-NIC bound (3 copies x 128 KB per op); serial
      // ops additionally pay per-op round trips and server processing.
      EXPECT_LT(batch_time, serial_time * 3 / 4);
    }
  };
  run_sim(cluster_.sim(), Body::run, batched.get(), serial.get(),
          &cluster_.sim());
}

// --- LRC-backed engine ---------------------------------------------------------

TEST(LrcEngine, EndToEndOnTenServers) {
  ec::LrcCodec lrc(6, 2, 2);  // n = 10
  const auto cost = ec::CostModel::defaults(ec::Scheme::kRsVandermonde, 6, 4);
  cluster::Cluster cl(
      cluster::ClusterConfig{.num_servers = 10, .num_clients = 1});
  cl.enable_server_ec(lrc, cost, true);
  resilience::EngineContext ctx;
  ctx.sim = &cl.sim();
  ctx.client = &cl.client(0);
  ctx.ring = &cl.ring();
  ctx.membership = &cl.membership();
  ctx.server_nodes = &cl.server_nodes();
  ctx.materialize = true;
  ErasureEngine engine(ctx, lrc, cost, Design::kEraCeCd);
  cl.start();
  struct Body {
    static sim::Task<void> run(ErasureEngine* e, cluster::Cluster* cl2) {
      const Bytes original = make_pattern(120'000, 11);
      const Status s =
          co_await e->set("lrc-obj", make_shared_bytes(Bytes(original)));
      EXPECT_TRUE(s.ok()) << s;
      // Fragments land one per server.
      std::size_t items = 0;
      for (std::size_t i = 0; i < 10; ++i) {
        items += cl2->server(i).store().items();
      }
      EXPECT_EQ(items, 10u);
      // Healthy read.
      Result<Bytes> got = co_await e->get("lrc-obj");
      EXPECT_TRUE(got.ok());
      if (got.ok()) { EXPECT_EQ(*got, original); }
      // g + 1 = 3 failures: still reconstructs.
      for (std::size_t slot = 0; slot < 3; ++slot) {
        cl2->fail_server(cl2->ring().slot_index("lrc-obj", slot));
      }
      got = co_await e->get("lrc-obj");
      EXPECT_TRUE(got.ok()) << got.status();
      if (got.ok()) { EXPECT_EQ(*got, original); }
    }
  };
  run_sim(cl.sim(), Body::run, &engine, &cl);
}

}  // namespace
}  // namespace hpres::resilience
