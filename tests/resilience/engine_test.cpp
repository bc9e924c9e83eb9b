// Resilience engines end-to-end: data integrity under every design, failure
// tolerance, latency orderings predicted by the paper's model, and the
// non-blocking API path.
#include <gtest/gtest.h>

#include "testing/fixtures.h"

namespace hpres::resilience {
namespace {

using hpres::testing::FiveNodeClusterTest;
using hpres::testing::run_sim;

class EngineTest : public FiveNodeClusterTest {};

sim::Task<void> set_get_roundtrip(Engine* engine) {
  // Mixed sizes, including the paper's KV range endpoints.
  for (const std::size_t size :
       {std::size_t{512}, std::size_t{16 * 1024}, std::size_t{1024 * 1024}}) {
    const Bytes value = make_pattern(size, size);
    const kv::Key key = "key" + std::to_string(size);
    const Status s = co_await engine->set(key, make_shared_bytes(Bytes(value)));
    EXPECT_TRUE(s.ok()) << s;
    const Result<Bytes> got = co_await engine->get(key);
    EXPECT_TRUE(got.ok()) << got.status();
    if (got.ok()) { EXPECT_EQ(*got, value); }
  }
}

// --- Data integrity across all designs ---------------------------------------

class DesignRoundTrip
    : public FiveNodeClusterTest,
      public ::testing::WithParamInterface<Design> {};

TEST_P(DesignRoundTrip, SetGetPreservesBytes) {
  auto engine = make_engine(GetParam());
  cluster_.start();
  run_sim(cluster_.sim(), set_get_roundtrip, engine.get());
}

TEST_P(DesignRoundTrip, SurvivesMaxTolerableFailures) {
  auto engine = make_engine(GetParam());
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* e, cluster::Cluster* cl) {
      const Bytes v = make_pattern(48'000, 5);
      const Status s = co_await e->set("obj", make_shared_bytes(Bytes(v)));
      EXPECT_TRUE(s.ok());
      // Controlled-failure model: server-side-encode designs ack before
      // fragment distribution finishes; quiesce before injecting failures.
      co_await cl->sim().delay(units::kMillisecond);
      // Fail as many servers as the design tolerates, starting with the
      // key's primary (worst case for reads).
      const std::size_t tolerance = e->fault_tolerance();
      for (std::size_t i = 0; i < tolerance; ++i) {
        cl->fail_server(cl->ring().slot_index("obj", i));
      }
      const Result<Bytes> got = co_await e->get("obj");
      EXPECT_TRUE(got.ok()) << got.status();
      if (got.ok()) { EXPECT_EQ(*got, v); }
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get(), &cluster_);
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, DesignRoundTrip,
    ::testing::Values(Design::kNoRep, Design::kSyncRep, Design::kAsyncRep,
                      Design::kEraCeCd, Design::kEraSeSd, Design::kEraSeCd,
                      Design::kEraCeSd),
    [](const ::testing::TestParamInfo<Design>& param_info) {
      std::string name{to_string(param_info.param)};
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

// --- Replication specifics ----------------------------------------------------

TEST_F(EngineTest, SyncRepStoresFactorCopies) {
  auto engine = make_engine(Design::kSyncRep, 3);
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* e, cluster::Cluster* cl) {
      (void)co_await e->set("k", make_shared_bytes(make_pattern(1000, 1)));
      std::size_t copies = 0;
      for (std::size_t s = 0; s < 5; ++s) {
        copies += cl->server(s).store().items();
      }
      EXPECT_EQ(copies, 3u);
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get(), &cluster_);
}

TEST_F(EngineTest, AsyncSetFasterThanSyncForLargeValues) {
  auto sync_engine = make_engine(Design::kSyncRep, 3);
  auto async_engine = make_engine(Design::kAsyncRep, 3);
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* sync_e, Engine* async_e,
                               sim::Simulator* sim) {
      const auto v = make_shared_bytes(make_pattern(256 * 1024, 2));
      const SimTime t0 = sim->now();
      (void)co_await sync_e->set("a", v);
      const SimDur sync_time = sim->now() - t0;
      const SimTime t1 = sim->now();
      (void)co_await async_e->set("b", v);
      const SimDur async_time = sim->now() - t1;
      // Equation 2 vs Equation 6: ~3x response-wait collapses to ~1x.
      EXPECT_LT(async_time, sync_time * 2 / 3);
    }
  };
  run_sim(cluster_.sim(), Body::run, sync_engine.get(), async_engine.get(),
          &cluster_.sim());
}

TEST_F(EngineTest, ReplicationGetFallsBackAfterPrimaryFailure) {
  auto engine = make_engine(Design::kAsyncRep, 3);
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* e, cluster::Cluster* cl) {
      const Bytes v = make_pattern(4096, 3);
      (void)co_await e->set("k", make_shared_bytes(Bytes(v)));
      cl->fail_server(cl->ring().slot_index("k", 0));
      const Result<Bytes> got = co_await e->get("k");
      EXPECT_TRUE(got.ok());
      if (got.ok()) { EXPECT_EQ(*got, v); }
      EXPECT_EQ(e->stats().degraded_gets, 1u);
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get(), &cluster_);
}

TEST_F(EngineTest, AllReplicasDownIsUnavailable) {
  auto engine = make_engine(Design::kAsyncRep, 3);
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* e, cluster::Cluster* cl) {
      (void)co_await e->set("k", make_shared_bytes(make_pattern(100, 4)));
      for (std::size_t i = 0; i < 3; ++i) {
        cl->fail_server(cl->ring().slot_index("k", i));
      }
      const Result<Bytes> got = co_await e->get("k");
      EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get(), &cluster_);
}

// --- Erasure specifics ---------------------------------------------------------

TEST_F(EngineTest, EraCeCdDistributesOneFragmentPerServer) {
  auto engine = make_engine(Design::kEraCeCd);
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* e, cluster::Cluster* cl) {
      (void)co_await e->set("obj",
                            make_shared_bytes(make_pattern(30'000, 5)));
      for (std::size_t s = 0; s < 5; ++s) {
        EXPECT_EQ(cl->server(s).store().items(), 1u) << "server " << s;
      }
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get(), &cluster_);
}

TEST_F(EngineTest, ErasureUsesLessMemoryThanReplication) {
  // The paper's core storage-efficiency claim: RS(3,2) stores 5/3 D vs 3 D.
  auto era = make_engine(Design::kEraCeCd);
  auto rep = make_engine(Design::kAsyncRep, 3);
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* era_e, Engine* rep_e,
                               cluster::Cluster* cl) {
      constexpr std::size_t kSize = 90'000;
      (void)co_await era_e->set("era-obj",
                                make_shared_bytes(make_pattern(kSize, 6)));
      const std::uint64_t after_era = cl->total_bytes_used();
      (void)co_await rep_e->set("rep-obj",
                                make_shared_bytes(make_pattern(kSize, 7)));
      const std::uint64_t rep_bytes = cl->total_bytes_used() - after_era;
      // 5/3 vs 3 copies: replication should cost ~1.8x more memory.
      EXPECT_GT(static_cast<double>(rep_bytes),
                1.6 * static_cast<double>(after_era));
    }
  };
  run_sim(cluster_.sim(), Body::run, era.get(), rep.get(), &cluster_);
}

TEST_F(EngineTest, EraGetBeyondToleranceFails) {
  auto engine = make_engine(Design::kEraCeCd);
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* e, cluster::Cluster* cl) {
      (void)co_await e->set("obj",
                            make_shared_bytes(make_pattern(10'000, 8)));
      for (std::size_t i = 0; i < 3; ++i) {
        cl->fail_server(cl->ring().slot_index("obj", i));
      }
      const Result<Bytes> got = co_await e->get("obj");
      EXPECT_EQ(got.status().code(), StatusCode::kTooManyFailures);
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get(), &cluster_);
}

TEST_F(EngineTest, DegradedEraGetChargesDecodeCompute) {
  auto engine = make_engine(Design::kEraCeCd);
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* e, cluster::Cluster* cl) {
      (void)co_await e->set("obj",
                            make_shared_bytes(make_pattern(64'000, 9)));
      // Healthy get: no decode compute recorded.
      (void)co_await e->get("obj");
      EXPECT_EQ(e->stats().get_phases.compute_ns, 0);
      // Degraded get: decode compute shows up.
      cl->fail_server(cl->ring().slot_index("obj", 0));
      (void)co_await e->get("obj");
      EXPECT_GT(e->stats().get_phases.compute_ns, 0);
      EXPECT_EQ(e->stats().degraded_gets, 1u);
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get(), &cluster_);
}

TEST_F(EngineTest, DegradedGetRejectsTruncatedParityFragment) {
  auto engine = make_engine(Design::kEraCeCd);
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* e, cluster::Cluster* cl) {
      (void)co_await e->set("obj",
                            make_shared_bytes(make_pattern(30'000, 11)));
      // A torn or stale write leaves a short parity fragment behind that
      // still carries the key's ChunkInfo.
      const kv::Key ckey = kv::chunk_key("obj", 3);
      kv::StorageEngine& store =
          cl->server(cl->ring().slot_index("obj", 3)).store();
      const auto stored = store.get(ckey);
      EXPECT_TRUE(stored.ok());
      if (!stored.ok()) co_return;
      const Bytes& full = *stored->value;
      EXPECT_TRUE(store
                      .set(ckey, make_shared_bytes(Bytes(full.begin(),
                                                         full.end() - 64)),
                           stored->chunk)
                      .ok());
      // Losing data slot 0 binds the read on {1, 2, 3}: the decode must
      // refuse the short source instead of reading past its end.
      cl->fail_server(cl->ring().slot_index("obj", 0));
      const Result<Bytes> got = co_await e->get("obj");
      EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get(), &cluster_);
}

TEST_F(EngineTest, EncodeComputeRecordedOnClientForCeNotSe) {
  auto ce = make_engine(Design::kEraCeCd);
  auto se = make_engine(Design::kEraSeCd);
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* ce_e, Engine* se_e) {
      const auto v = make_shared_bytes(make_pattern(128 * 1024, 10));
      (void)co_await ce_e->set("a", v);
      (void)co_await se_e->set("b", v);
      EXPECT_GT(ce_e->stats().set_phases.compute_ns, 0);
      EXPECT_EQ(se_e->stats().set_phases.compute_ns, 0);
    }
  };
  run_sim(cluster_.sim(), Body::run, ce.get(), se.get());
}

TEST_F(EngineTest, EraCeCdSetFasterThanSyncRepForLargeValues) {
  // Paper Figure 8(a): Era-CE-CD improves over Sync-Rep by 1.6-2.8x.
  auto era = make_engine(Design::kEraCeCd);
  auto sync_rep = make_engine(Design::kSyncRep, 3);
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* era_e, Engine* sync_e,
                               sim::Simulator* sim) {
      const auto v = make_shared_bytes(make_pattern(512 * 1024, 11));
      const SimTime t0 = sim->now();
      (void)co_await sync_e->set("a", v);
      const SimDur sync_time = sim->now() - t0;
      const SimTime t1 = sim->now();
      (void)co_await era_e->set("b", v);
      const SimDur era_time = sim->now() - t1;
      EXPECT_LT(era_time, sync_time);
    }
  };
  run_sim(cluster_.sim(), Body::run, era.get(), sync_rep.get(),
          &cluster_.sim());
}

// --- Non-blocking API -----------------------------------------------------------

TEST_F(EngineTest, NonBlockingOpsCompleteViaWaitAll) {
  auto engine = make_engine(Design::kEraCeCd);
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* e) {
      std::vector<sim::Future<Status>> sets;
      for (int i = 0; i < 16; ++i) {
        sets.push_back(e->iset("k" + std::to_string(i),
                               make_shared_bytes(make_pattern(8192, static_cast<std::uint64_t>(i)))));
      }
      co_await e->wait_all();
      for (const auto& f : sets) {
        EXPECT_TRUE(f.ready());
        EXPECT_TRUE(f.try_get()->ok());
      }
      // And read them back through iget.
      std::vector<sim::Future<Result<Bytes>>> gets;
      for (int i = 0; i < 16; ++i) {
        gets.push_back(e->iget("k" + std::to_string(i)));
      }
      co_await e->wait_all();
      for (int i = 0; i < 16; ++i) {
        EXPECT_TRUE(gets[static_cast<std::size_t>(i)].ready());
        const auto* r = gets[static_cast<std::size_t>(i)].try_get();
        EXPECT_TRUE(r->ok());
        if (r->ok()) {
          EXPECT_EQ(r->value(),
                    make_pattern(8192, static_cast<std::uint64_t>(i)));
        }
      }
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get());
}

TEST_F(EngineTest, PipeliningBeatsSequentialBlockingOps) {
  // The ARPE's raison d'etre: N ops through the window finish well before
  // N back-to-back blocking ops.
  auto pipelined = make_engine(Design::kEraCeCd);
  auto blocking = make_engine(Design::kEraCeCd);
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* pipe_e, Engine* block_e,
                               sim::Simulator* sim) {
      constexpr int kOps = 32;
      const auto v = make_shared_bytes(make_pattern(64 * 1024, 12));
      const SimTime t0 = sim->now();
      for (int i = 0; i < kOps; ++i) {
        (void)block_e->iset("blk" + std::to_string(i), v);
        co_await block_e->wait_all();  // serialize: degenerate window use
      }
      const SimDur blocking_time = sim->now() - t0;
      const SimTime t1 = sim->now();
      for (int i = 0; i < kOps; ++i) {
        (void)pipe_e->iset("pip" + std::to_string(i), v);
      }
      co_await pipe_e->wait_all();
      const SimDur pipelined_time = sim->now() - t1;
      // With the SIMD-refit cost model the encode slice is thin, so the
      // overlap win at 64 KB is network-bound at ~1.8x (abl_protocol's ABL1
      // agrees); require a solid 1.5x, not the 2x the scalar-cost era
      // delivered.
      EXPECT_LT(pipelined_time, blocking_time * 2 / 3);
    }
  };
  run_sim(cluster_.sim(), Body::run, pipelined.get(), blocking.get(),
          &cluster_.sim());
}

TEST_F(EngineTest, StatsCountOperationsAndLatencies) {
  auto engine = make_engine(Design::kAsyncRep, 3);
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* e) {
      for (int i = 0; i < 5; ++i) {
        (void)co_await e->set("k" + std::to_string(i),
                              make_shared_bytes(make_pattern(1024, static_cast<std::uint64_t>(i))));
      }
      (void)co_await e->get("k0");
      (void)co_await e->get("missing");
      EXPECT_EQ(e->stats().sets, 5u);
      EXPECT_EQ(e->stats().gets, 2u);
      EXPECT_EQ(e->stats().get_failures, 1u);
      EXPECT_EQ(e->stats().set_latency.count(), 5u);
      EXPECT_GT(e->stats().set_latency.mean(), 0.0);
      EXPECT_GT(e->stats().set_phases.wait_ns, 0);
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get());
}

}  // namespace
}  // namespace hpres::resilience
