// Batched small-object write path: stripe packing + group commit.
// Byte-exactness of packed round trips (healthy and degraded), overwrite /
// delete races against an open stripe, capacity vs timer sealing, and the
// off-by-default guarantee that threshold 0 never touches the new path.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/critical_path.h"
#include "testing/fixtures.h"

namespace hpres::resilience {
namespace {

using hpres::testing::FiveNodeClusterTest;
using hpres::testing::run_sim;

class PackingTest : public FiveNodeClusterTest {};

/// Deterministic per-key test value; sizes straddle the pack threshold.
Bytes value_for(std::size_t i, std::size_t size) {
  return make_pattern(size, i * 7 + 1);
}

TEST_F(PackingTest, MixedPackedAndPerKeySetsRoundTripByteIdentical) {
  auto engine = make_engine(Design::kEraCeCd, 3, {}, {},
                            PackParams{.pack_threshold = 512});
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* e) {
      const std::vector<std::size_t> sizes{0,   1,    17,  100, 300,
                                           511, 512,  900, 2048, 20'000};
      std::vector<Bytes> originals;
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        originals.push_back(value_for(i, sizes[i]));
        (void)e->iset("key" + std::to_string(i),
                      make_shared_bytes(Bytes(originals[i])));
      }
      co_await e->wait_all();
      // 6 values sit below the threshold; the rest took the per-key path.
      EXPECT_EQ(e->stats().packed_sets, 6u);
      EXPECT_GE(e->stats().stripes_sealed, 1u);
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        const Result<Bytes> got = co_await e->get("key" + std::to_string(i));
        EXPECT_TRUE(got.ok()) << "key" << i << ": " << got.status();
        if (got.ok()) { EXPECT_EQ(*got, originals[i]) << "key" << i; }
      }
      EXPECT_GE(e->stats().packed_get_hits, 6u);
      EXPECT_EQ(e->stats().packed_degraded_gets, 0u);
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get());
}

TEST_F(PackingTest, PackedGetsSurviveMServerFailures) {
  auto engine = make_engine(Design::kEraCeCd, 3, {}, {},
                            PackParams{.pack_threshold = 512});
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* e, cluster::Cluster* cl) {
      constexpr std::size_t kKeys = 24;
      std::vector<Bytes> originals;
      for (std::size_t i = 0; i < kKeys; ++i) {
        originals.push_back(value_for(i, 40 + i * 13));
        (void)e->iset("deg" + std::to_string(i),
                      make_shared_bytes(Bytes(originals[i])));
      }
      co_await e->wait_all();
      co_await cl->sim().delay(units::kMillisecond);  // quiesce
      // m = 2 failures: exactly k fragment owners and at least one locator
      // directory owner survive for every stripe.
      cl->fail_server(0);
      cl->fail_server(3);
      for (std::size_t i = 0; i < kKeys; ++i) {
        const Result<Bytes> got = co_await e->get("deg" + std::to_string(i));
        EXPECT_TRUE(got.ok()) << "deg" << i << ": " << got.status();
        if (got.ok()) { EXPECT_EQ(*got, originals[i]) << "deg" << i; }
      }
      EXPECT_GE(e->stats().packed_degraded_gets, 1u);
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get(), &cluster_);
}

TEST_F(PackingTest, OverwriteInsideOpenStripeReturnsNewestValue) {
  auto engine = make_engine(Design::kEraCeCd, 3, {}, {},
                            PackParams{.pack_threshold = 512});
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* e) {
      const Bytes v1 = value_for(1, 100);
      const Bytes v2 = value_for(2, 200);
      // Both land before the stripe seals: the stale record's locator
      // install must be skipped at commit (staging pointer filter).
      (void)e->iset("hot", make_shared_bytes(Bytes(v1)));
      (void)e->iset("hot", make_shared_bytes(Bytes(v2)));
      co_await e->wait_all();
      const Result<Bytes> got = co_await e->get("hot");
      EXPECT_TRUE(got.ok()) << got.status();
      if (got.ok()) { EXPECT_EQ(*got, v2); }
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get());
}

TEST_F(PackingTest, LargeOverwriteUnlinksThePackedLocator) {
  auto engine = make_engine(Design::kEraCeCd, 3, {}, {},
                            PackParams{.pack_threshold = 512});
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* e) {
      const Bytes small = value_for(3, 64);
      const Bytes big = value_for(4, 9'000);  // above threshold: per-key
      const Status s1 = co_await e->set("grow", make_shared_bytes(Bytes(small)));
      EXPECT_TRUE(s1.ok()) << s1;
      const Status s2 = co_await e->set("grow", make_shared_bytes(Bytes(big)));
      EXPECT_TRUE(s2.ok()) << s2;
      const Result<Bytes> got = co_await e->get("grow");
      EXPECT_TRUE(got.ok()) << got.status();
      if (got.ok()) { EXPECT_EQ(*got, big); }
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get());
}

TEST_F(PackingTest, DeleteRacingAnOpenStripeStaysDeleted) {
  auto engine = make_engine(Design::kEraCeCd, 3, {}, {},
                            PackParams{.pack_threshold = 512});
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* e, cluster::Cluster* cl) {
      (void)e->iset("gone", make_shared_bytes(value_for(5, 80)));
      // Let the set be admitted and appended, but not committed (the 50 us
      // group-commit timer has not fired): the delete races the open stripe.
      co_await cl->sim().delay(1'000);
      (void)co_await e->del("gone");
      co_await e->wait_all();
      const Result<Bytes> got = co_await e->get("gone");
      EXPECT_FALSE(got.ok());
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get(), &cluster_);
}

TEST_F(PackingTest, ImmediateReadAfterPackedWriteHitsStaging) {
  auto engine = make_engine(Design::kEraCeCd, 3, {}, {},
                            PackParams{.pack_threshold = 512});
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* e, cluster::Cluster* cl) {
      const Bytes v = value_for(6, 120);
      (void)e->iset("fresh", make_shared_bytes(Bytes(v)));
      // The record is appended but its stripe has not committed (timer at
      // 50 us): the read must be served from the staging map, byte-exact.
      co_await cl->sim().delay(1'000);
      const Result<Bytes> got = co_await e->get("fresh");
      EXPECT_TRUE(got.ok()) << got.status();
      if (got.ok()) { EXPECT_EQ(*got, v); }
      EXPECT_GE(e->stats().staged_reads, 1u);
      co_await e->wait_all();
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get(), &cluster_);
}

TEST_F(PackingTest, PackedIssueCpuIsSerializeOnTheCriticalPath) {
  attach_tracer();
  auto engine = make_engine(Design::kEraCeCd, 3, {}, {},
                            PackParams{.pack_threshold = 512});
  // Three 100-byte records (6 header + 5 key + 89 value) that share a
  // primary server, so they share one stripe: 300 bytes over k = 3 data
  // fragments of 100 bytes, each value inside one fragment.
  std::vector<kv::Key> keys;
  for (std::size_t i = 100; keys.size() < 3; ++i) {
    kv::Key key = "pk" + std::to_string(i);
    if (keys.empty() || cluster_.ring().slot_index(key, 0) ==
                            cluster_.ring().slot_index(keys[0], 0)) {
      keys.push_back(std::move(key));
    }
  }
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* e, const std::vector<kv::Key>* keys) {
      for (const kv::Key& key : *keys) {
        (void)e->iset(key, make_shared_bytes(value_for(0, 89)));
      }
      co_await e->wait_all();
      const Result<Bytes> got = co_await e->get(keys->front());
      EXPECT_TRUE(got.ok()) << got.status();
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get(), &keys);
  EXPECT_EQ(engine->stats().stripes_sealed, 1u);
  EXPECT_EQ(engine->stats().packed_get_hits, 1u);

  const obs::CriticalPathAnalysis cp =
      obs::analyze_critical_path(tracer_.tagged_spans(trace_pid_));
  std::size_t sets = 0;
  std::size_t gets = 0;
  for (const obs::OpAttribution& op : cp.ops) {
    EXPECT_EQ(op.phase_sum(), op.total_ns);
    if (op.op == "set") {
      ++sets;
      // The record append is a packed Set's only issue CPU.
      EXPECT_EQ(op.phase(obs::Phase::kSerialize), kv::Client::kIssueNs);
    } else {
      ++gets;
      // m + 1 = 3 locator posts, then one fragment fetch post.
      EXPECT_EQ(op.phase(obs::Phase::kSerialize), 4 * kv::Client::kIssueNs);
    }
  }
  EXPECT_EQ(sets, 3u);
  EXPECT_EQ(gets, 1u);
}

TEST_F(PackingTest, CapacitySealRollsOverToFreshStripe) {
  // Records of ~7 KB fit two to a 16 KiB stripe, so a primary's third
  // record forces a capacity seal well before the 50 us timer.
  auto engine = make_engine(Design::kEraCeCd, 3, {}, {},
                            PackParams{.pack_threshold = 8 * 1024});
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* e) {
      std::vector<Bytes> originals;
      for (std::size_t i = 0; i < 10; ++i) {
        originals.push_back(value_for(i, 7000));
        (void)e->iset("roll" + std::to_string(i),
                      make_shared_bytes(Bytes(originals[i])));
      }
      co_await e->wait_all();
      EXPECT_GE(e->stats().stripes_sealed, 4u);
      EXPECT_GT(e->stats().stripes_sealed, e->stats().stripes_timer_sealed);
      for (std::size_t i = 0; i < 10; ++i) {
        const Result<Bytes> got =
            co_await e->get("roll" + std::to_string(i));
        EXPECT_TRUE(got.ok()) << "roll" << i << ": " << got.status();
        if (got.ok()) { EXPECT_EQ(*got, originals[i]) << "roll" << i; }
      }
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get());
}

TEST_F(PackingTest, ThresholdZeroNeverTouchesThePackedPath) {
  // PackParams{} defaults to threshold 0: every Set must take the legacy
  // per-key path and no locator directory entry may appear anywhere — the
  // structural half of the determinism-suite byte-identical gate.
  auto engine = make_engine(Design::kEraCeCd, 3, {}, {}, PackParams{});
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* e, cluster::Cluster* cl) {
      for (std::size_t i = 0; i < 8; ++i) {
        const Status s = co_await e->set(
            "off" + std::to_string(i), make_shared_bytes(value_for(i, 64)));
        EXPECT_TRUE(s.ok()) << s;
      }
      EXPECT_EQ(e->stats().packed_sets, 0u);
      EXPECT_EQ(e->stats().stripes_sealed, 0u);
      for (std::size_t s = 0; s < 5; ++s) {
        EXPECT_EQ(cl->server(s).stripe_index_entries(), 0u);
        EXPECT_EQ(cl->server(s).stripe_index_bytes(), 0u);
      }
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get(), &cluster_);
}

TEST_F(PackingTest, NonCeCdModesIgnorePacking) {
  auto engine = make_engine(Design::kEraSeSd, 3, {}, {},
                            PackParams{.pack_threshold = 512});
  EXPECT_FALSE(
      static_cast<ErasureEngine*>(engine.get())->packing_active());
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* e) {
      const Bytes v = value_for(7, 64);
      const Status s = co_await e->set("se", make_shared_bytes(Bytes(v)));
      EXPECT_TRUE(s.ok()) << s;
      EXPECT_EQ(e->stats().packed_sets, 0u);
      const Result<Bytes> got = co_await e->get("se");
      EXPECT_TRUE(got.ok());
      if (got.ok()) { EXPECT_EQ(*got, v); }
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get());
}

}  // namespace
}  // namespace hpres::resilience
