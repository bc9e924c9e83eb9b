// Hybrid replication/erasure engine: routing by size, read fallback,
// deletes across both schemes, failure tolerance, one traced op per call.
#include "resilience/hybrid.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "testing/fixtures.h"

namespace hpres::resilience {
namespace {

using hpres::testing::FiveNodeClusterTest;
using hpres::testing::run_sim;

class HybridTest : public FiveNodeClusterTest {
 protected:
  static constexpr std::size_t kThreshold = 16 * 1024;

  std::unique_ptr<HybridEngine> make_hybrid() {
    const EngineContext ctx =
        cluster_.engine_context(0, /*materialize=*/true);
    // rep_factor m+1 = 3 keeps tolerance uniform at 2 across schemes.
    return std::make_unique<HybridEngine>(ctx, codec_, cost_, 3, kThreshold);
  }
};

/// Store Get hits and misses summed over every server.
kv::StoreStats store_totals(cluster::Cluster& cl) {
  kv::StoreStats total;
  for (std::size_t s = 0; s < cl.num_servers(); ++s) {
    const kv::StoreStats& st = cl.server(s).store().stats();
    total.hits += st.hits;
    total.misses += st.misses;
  }
  return total;
}

TEST_F(HybridTest, SmallValuesAreReplicated) {
  auto engine = make_hybrid();
  cluster_.start();
  struct Body {
    static sim::Task<void> run(HybridEngine* e, cluster::Cluster* cl) {
      (void)co_await e->set("small", make_shared_bytes(make_pattern(512, 1)));
      // 3 full copies under the plain key, no fragments.
      std::size_t items = 0;
      for (std::size_t s = 0; s < 5; ++s) {
        items += cl->server(s).store().items();
      }
      EXPECT_EQ(items, 3u);
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get(), &cluster_);
}

TEST_F(HybridTest, LargeValuesAreErasureCoded) {
  auto engine = make_hybrid();
  cluster_.start();
  struct Body {
    static sim::Task<void> run(HybridEngine* e, cluster::Cluster* cl) {
      (void)co_await e->set("large",
                            make_shared_bytes(make_pattern(64 * 1024, 2)));
      std::size_t items = 0;
      for (std::size_t s = 0; s < 5; ++s) {
        items += cl->server(s).store().items();
      }
      EXPECT_EQ(items, 5u);  // k+m fragments
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get(), &cluster_);
}

TEST_F(HybridTest, GetsRouteTransparently) {
  auto engine = make_hybrid();
  cluster_.start();
  struct Body {
    static sim::Task<void> run(HybridEngine* e, cluster::Cluster* cl) {
      const Bytes small = make_pattern(1000, 3);
      const Bytes large = make_pattern(100'000, 4);
      (void)co_await e->set("s", make_shared_bytes(Bytes(small)));
      (void)co_await e->set("l", make_shared_bytes(Bytes(large)));
      // The small read is one replica hit and nothing else.
      const kv::StoreStats before_s = store_totals(*cl);
      const Result<Bytes> got_s = co_await e->get("s");
      const kv::StoreStats after_s = store_totals(*cl);
      EXPECT_EQ(after_s.hits - before_s.hits, 1u);
      EXPECT_EQ(after_s.misses - before_s.misses, 0u);
      // The large read probed the replica owner (one miss on it), then
      // fetched the k = 3 data fragments (three hits).
      const std::size_t owner = cl->ring().slot_index("l", 0);
      const std::uint64_t owner_misses =
          cl->server(owner).store().stats().misses;
      const kv::StoreStats before_l = store_totals(*cl);
      const Result<Bytes> got_l = co_await e->get("l");
      const kv::StoreStats after_l = store_totals(*cl);
      EXPECT_EQ(after_l.misses - before_l.misses, 1u);
      EXPECT_EQ(cl->server(owner).store().stats().misses,
                owner_misses + 1);
      EXPECT_EQ(after_l.hits - before_l.hits, 3u);
      EXPECT_TRUE(got_s.ok());
      EXPECT_TRUE(got_l.ok());
      if (got_s.ok()) { EXPECT_EQ(*got_s, small); }
      if (got_l.ok()) { EXPECT_EQ(*got_l, large); }
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get(), &cluster_);
}

TEST_F(HybridTest, OneRootSpanPerOp) {
  // Whichever scheme serves it, a hybrid op is one engine op: one root
  // span per trace, and the scheme's spans on that op's lane.
  attach_tracer();
  auto engine = make_hybrid();
  cluster_.start();
  struct Body {
    static sim::Task<void> run(HybridEngine* e) {
      (void)co_await e->set("s", make_shared_bytes(make_pattern(1000, 9)));
      (void)co_await e->set("l",
                            make_shared_bytes(make_pattern(100'000, 10)));
      (void)co_await e->get("s");
      (void)co_await e->get("l");
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get());

  std::map<std::uint64_t, std::vector<obs::TraceSpan>> engine_spans;
  for (obs::TraceSpan& s : tracer_.tagged_spans(trace_pid_)) {
    if (s.cat == "engine") engine_spans[s.trace_id].push_back(std::move(s));
  }
  ASSERT_EQ(engine_spans.size(), 4u);  // two Sets, two Gets
  for (const auto& [trace_id, spans] : engine_spans) {
    std::vector<const obs::TraceSpan*> roots;
    for (const obs::TraceSpan& s : spans) {
      if (s.name == "set" || s.name == "get") roots.push_back(&s);
    }
    ASSERT_EQ(roots.size(), 1u) << "trace " << trace_id;
    EXPECT_GT(spans.size(), 1u) << "trace " << trace_id;
    for (const obs::TraceSpan& s : spans) {
      EXPECT_EQ(s.tid, roots[0]->tid)
          << "trace " << trace_id << " span " << s.name;
    }
  }
}

TEST_F(HybridTest, MissingKeyIsNotFoundAfterBothProbes) {
  auto engine = make_hybrid();
  cluster_.start();
  struct Body {
    static sim::Task<void> run(HybridEngine* e) {
      const Result<Bytes> got = co_await e->get("ghost");
      EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get());
}

TEST_F(HybridTest, SurvivesTwoFailuresOnBothPaths) {
  auto engine = make_hybrid();
  cluster_.start();
  struct Body {
    static sim::Task<void> run(HybridEngine* e, cluster::Cluster* cl) {
      const Bytes small = make_pattern(1000, 5);
      const Bytes large = make_pattern(80'000, 6);
      (void)co_await e->set("s", make_shared_bytes(Bytes(small)));
      (void)co_await e->set("l", make_shared_bytes(Bytes(large)));
      cl->fail_server(cl->ring().slot_index("l", 0));
      cl->fail_server(cl->ring().slot_index("l", 1));
      const Result<Bytes> got_l = co_await e->get("l");
      EXPECT_TRUE(got_l.ok()) << got_l.status();
      if (got_l.ok()) { EXPECT_EQ(*got_l, large); }
      const Result<Bytes> got_s = co_await e->get("s");
      // Small value survives iff <= 2 of ITS replicas died; with 2 dead
      // servers of 5 and F=3 consecutive placement, at least one replica
      // remains.
      EXPECT_TRUE(got_s.ok()) << got_s.status();
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get(), &cluster_);
}

TEST_F(HybridTest, DeleteClearsWhicheverSchemeHolds) {
  auto engine = make_hybrid();
  cluster_.start();
  struct Body {
    static sim::Task<void> run(HybridEngine* e, cluster::Cluster* cl) {
      (void)co_await e->set("s", make_shared_bytes(make_pattern(100, 7)));
      (void)co_await e->set("l",
                            make_shared_bytes(make_pattern(50'000, 8)));
      EXPECT_TRUE((co_await e->del("s")).ok());
      EXPECT_TRUE((co_await e->del("l")).ok());
      std::size_t items = 0;
      for (std::size_t s = 0; s < 5; ++s) {
        items += cl->server(s).store().items();
      }
      EXPECT_EQ(items, 0u);
      EXPECT_EQ((co_await e->del("never")).code(), StatusCode::kNotFound);
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get(), &cluster_);
}

TEST_F(HybridTest, MemoryFootprintBeatsPureReplicationForMixedSizes) {
  auto hybrid = make_hybrid();
  auto rep = make_engine(Design::kAsyncRep, 3);
  cluster_.start();
  struct Body {
    static sim::Task<void> run(HybridEngine* h, Engine* r,
                               cluster::Cluster* cl) {
      // Mixed workload: a few small hot keys, many large objects.
      for (int i = 0; i < 4; ++i) {
        (void)co_await h->set("hs" + std::to_string(i),
                              make_shared_bytes(make_pattern(512, static_cast<std::uint64_t>(i))));
        (void)co_await h->set("hl" + std::to_string(i),
                              make_shared_bytes(make_pattern(90'000, static_cast<std::uint64_t>(i))));
      }
      const std::uint64_t hybrid_bytes = cl->total_bytes_used();
      for (int i = 0; i < 4; ++i) {
        (void)co_await r->set("rs" + std::to_string(i),
                              make_shared_bytes(make_pattern(512, static_cast<std::uint64_t>(i))));
        (void)co_await r->set("rl" + std::to_string(i),
                              make_shared_bytes(make_pattern(90'000, static_cast<std::uint64_t>(i))));
      }
      const std::uint64_t rep_bytes = cl->total_bytes_used() - hybrid_bytes;
      EXPECT_LT(static_cast<double>(hybrid_bytes),
                0.7 * static_cast<double>(rep_bytes));
    }
  };
  run_sim(cluster_.sim(), Body::run, hybrid.get(), rep.get(), &cluster_);
}

}  // namespace
}  // namespace hpres::resilience
