// Batched small-object write path: stripe packing + group commit.
// Byte-exactness of packed round trips (healthy and degraded), the fetches
// and lookups one packed Get sends, overwrite / delete races against an
// open stripe, capacity vs timer sealing, and the off-by-default guarantee
// that threshold 0 never touches the new path.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/critical_path.h"
#include "testing/fixtures.h"

namespace hpres::resilience {
namespace {

using hpres::testing::FiveNodeClusterTest;
using hpres::testing::run_sim;

/// Deterministic per-key test value; sizes straddle the pack threshold.
Bytes value_for(std::size_t i, std::size_t size) {
  return make_pattern(size, i * 7 + 1);
}

/// What one Get sent: fragment fetches (store Gets at any server) and
/// locator lookups (every other request). Each request is one message out
/// and one reply back.
struct GetTraffic {
  std::uint64_t fetches = 0;
  std::uint64_t lookups = 0;
  std::uint64_t degraded_gets = 0;
  std::uint64_t packed_degraded_gets = 0;
};

class PackingTest : public FiveNodeClusterTest {
 protected:
  /// `count` five-byte keys that share a primary server, so their records
  /// share one stripe.
  std::vector<kv::Key> same_primary_keys(std::size_t count) {
    std::vector<kv::Key> keys;
    for (std::size_t i = 100; keys.size() < count; ++i) {
      kv::Key key = "pk" + std::to_string(i);
      if (keys.empty() || cluster_.ring().slot_index(key, 0) ==
                              cluster_.ring().slot_index(keys[0], 0)) {
        keys.push_back(std::move(key));
      }
    }
    return keys;
  }

  /// Packs three records into one 300-byte stripe (three 100-byte data
  /// fragments): record 0's value lies inside slot 0, record 1's (bytes
  /// 111-249) straddles slots 1 and 2, record 2's lies inside slot 2. Then
  /// fails `down` (server indices), reads `keys_[read]` and returns the
  /// traffic that Get sent.
  GetTraffic packed_get_traffic(HedgeParams hedge, std::size_t read,
                                std::vector<std::size_t> down = {}) {
    auto engine = make_engine(Design::kEraCeCd, 3, {}, hedge,
                              PackParams{.pack_threshold = 512});
    cluster_.start();
    GetTraffic before;
    GetTraffic after;
    Probe probe{this, engine.get(), read, &down, &before, &after};
    run_sim(cluster_.sim(), Probe::run, &probe);
    EXPECT_EQ(engine->stats().stripes_sealed, 1u);
    EXPECT_EQ(engine->stats().packed_get_hits, 1u);
    return GetTraffic{
        after.fetches - before.fetches, after.lookups - before.lookups,
        after.degraded_gets - before.degraded_gets,
        after.packed_degraded_gets - before.packed_degraded_gets};
  }

  /// Stripe slot `slot`'s owner for the stripe packed_get_traffic writes.
  std::size_t stripe_owner(std::size_t slot) {
    return cluster_.ring().slot_index(
        kv::stripe_key(cluster_.client(0).id(), 0), slot);
  }

  std::vector<kv::Key> keys_ = same_primary_keys(3);
  std::vector<std::size_t> value_sizes_{89, 139, 39};

 private:
  struct Probe {
    PackingTest* t;
    Engine* e;
    std::size_t read;
    const std::vector<std::size_t>* down;
    GetTraffic* before;
    GetTraffic* after;

    GetTraffic now() const {
      GetTraffic out;
      std::uint64_t messages = t->cluster_.fabric().stats().messages_sent;
      for (std::size_t s = 0; s < kServers; ++s) {
        out.fetches += t->cluster_.server(s).store().stats().get_ops;
      }
      out.lookups = messages / 2 - out.fetches;
      out.degraded_gets = e->stats().degraded_gets;
      out.packed_degraded_gets = e->stats().packed_degraded_gets;
      return out;
    }

    static sim::Task<void> run(Probe* p) {
      for (std::size_t i = 0; i < p->t->keys_.size(); ++i) {
        (void)p->e->iset(p->t->keys_[i],
                         make_shared_bytes(
                             value_for(i, p->t->value_sizes_[i])));
      }
      co_await p->e->wait_all();
      co_await p->t->cluster_.sim().delay(units::kMillisecond);  // quiesce
      for (const std::size_t s : *p->down) p->t->cluster_.fail_server(s);
      *p->before = p->now();
      const Result<Bytes> got = co_await p->e->get(p->t->keys_[p->read]);
      *p->after = p->now();
      EXPECT_TRUE(got.ok()) << got.status();
      if (got.ok()) {
        EXPECT_EQ(*got, value_for(p->read, p->t->value_sizes_[p->read]));
      }
    }
  };
};

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

TEST_F(PackingTest, HealthyPackedGetFetchesOnlyItsRecordsFragment) {
  const GetTraffic t = packed_get_traffic({}, /*read=*/0);
  EXPECT_EQ(t.lookups, codec_.m() + 1);
  EXPECT_EQ(t.fetches, 1u);
  EXPECT_EQ(t.degraded_gets, 0u);
  EXPECT_EQ(t.packed_degraded_gets, 0u);
}

TEST_F(PackingTest, StraddlingPackedGetFetchesBothFragments) {
  const GetTraffic t = packed_get_traffic({}, /*read=*/1);
  EXPECT_EQ(t.lookups, codec_.m() + 1);
  EXPECT_EQ(t.fetches, 2u);
}

TEST_F(PackingTest, HedgingEngineFetchesOnlyTheRecordsFragment) {
  const GetTraffic t = packed_get_traffic(HedgeParams{.delta = 1}, 0);
  EXPECT_EQ(t.lookups, codec_.m() + 1);
  EXPECT_EQ(t.fetches, 1u);
}

TEST_F(PackingTest, DownOwnerOutsideTheRecordKeepsThePackedGetHealthy) {
  // A server that owns a stripe slot other than the record's and no copy
  // of its locator (every server owns one slot of the 5-wide stripe).
  std::size_t down = kServers;
  for (std::size_t s = 0; s < kServers && down == kServers; ++s) {
    bool dir_owner = false;
    for (std::size_t j = 0; j <= codec_.m(); ++j) {
      dir_owner |= cluster_.ring().slot_index(keys_[0], j) == s;
    }
    if (!dir_owner && s != stripe_owner(0)) down = s;
  }
  ASSERT_LT(down, kServers);
  const GetTraffic t = packed_get_traffic({}, /*read=*/0, {down});
  EXPECT_EQ(t.lookups, codec_.m() + 1);
  EXPECT_EQ(t.fetches, 1u);
  EXPECT_EQ(t.degraded_gets, 0u);
  EXPECT_EQ(t.packed_degraded_gets, 0u);
}

TEST_F(PackingTest, DownCoveringOwnerDecodesTheStripeOnce) {
  const GetTraffic t =
      packed_get_traffic({}, /*read=*/0, {stripe_owner(0)});
  EXPECT_EQ(t.fetches, codec_.k());
  EXPECT_EQ(t.degraded_gets, 1u);
  EXPECT_EQ(t.packed_degraded_gets, 1u);
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
  const std::vector<kv::Key> keys = same_primary_keys(3);
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
