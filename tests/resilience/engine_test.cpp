// Resilience engines end-to-end: data integrity under every design, failure
// tolerance, latency orderings predicted by the paper's model, the
// non-blocking API path, and the exact unloaded timing of every design.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>

#include "cluster/testbeds.h"

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
  constexpr std::size_t kSize = 64'000;
  attach_tracer();
  auto engine = make_engine(Design::kEraCeCd);
  cluster_.start();
  struct Body {
    static sim::Task<void> set_then_get(Engine* e) {
      (void)co_await e->set("obj",
                            make_shared_bytes(make_pattern(kSize, 9)));
      (void)co_await e->get("obj");
    }
    static sim::Task<void> get(Engine* e) { (void)co_await e->get("obj"); }
  };
  run_sim(cluster_.sim(), Body::set_then_get, engine.get());
  // Healthy get: the data fragments arrive, nothing is decoded.
  EXPECT_EQ(span_count("get/decode"), 0u);
  // One data fragment lost: the client pays T_decode for one erasure.
  cluster_.fail_server(cluster_.ring().slot_index("obj", 0));
  run_sim(cluster_.sim(), Body::get, engine.get());
  EXPECT_EQ(span_ns("get/decode"), cost_.decode_ns(kSize, 1));
  EXPECT_EQ(engine->stats().degraded_gets, 1u);
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
      kv::StorageEngine& store =
          cl->server(cl->ring().slot_index("obj", 3)).store();
      const auto stored = store.get("obj", 3);
      EXPECT_TRUE(stored.ok());
      if (!stored.ok()) co_return;
      const ByteBlock& full = *stored->value;
      EXPECT_TRUE(store
                      .set("obj", 3,
                           make_shared_bytes(
                               Bytes(full.begin(), full.end() - 64)),
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
  constexpr std::size_t kSize = 128 * 1024;
  attach_tracer();
  auto ce = make_engine(Design::kEraCeCd);
  auto se = make_engine(Design::kEraSeCd);
  cluster_.start();
  struct Body {
    static sim::Task<void> set(Engine* e, const kv::Key* key) {
      (void)co_await e->set(*key,
                            make_shared_bytes(make_pattern(kSize, 10)));
    }
  };
  const kv::Key a = "a";
  const kv::Key b = "b";
  run_sim(cluster_.sim(), Body::set, ce.get(), &a);
  // Client encode: T_encode (Eq. 5), then one post per fragment.
  EXPECT_EQ(span_ns("set/encode"), cost_.encode_ns(kSize));
  EXPECT_EQ(span_ns("set/request"),
            static_cast<SimDur>(codec_.n()) * kv::Client::kIssueNs);
  run_sim(cluster_.sim(), Body::set, se.get(), &b);
  // Server encode: the client emits no encode span of its own.
  EXPECT_EQ(span_count("set/encode"), 1u);
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
  attach_tracer();
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
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get());
  // One recorder row per op, failed ones included.
  const std::string scheme(engine->name());
  const LatencyHistogram* sets = recorder_.histogram({"set", scheme, false});
  const LatencyHistogram* gets = recorder_.histogram({"get", scheme, false});
  ASSERT_NE(sets, nullptr);
  ASSERT_NE(gets, nullptr);
  EXPECT_EQ(sets->count(), 5u);
  EXPECT_EQ(gets->count(), 2u);
  EXPECT_GT(sets->mean(), 0.0);
  // The root spans cover the same latencies; 3 replica posts per Set, and
  // the rest of each Set is waiting on the replicas.
  EXPECT_EQ(span_ns("set"), sets->sum());
  EXPECT_EQ(span_ns("set/request"), 5 * 3 * kv::Client::kIssueNs);
  EXPECT_GT(span_ns("set"), span_ns("set/request"));
}

// --- Pinned unloaded timing ------------------------------------------------

// Exact simulated time of an unloaded op sequence under every design. Each
// run builds a fresh RI-QDR cluster (5 servers, 1 client, RS(3,2), Rep 3),
// then: 8 blocking Sets, 8 Gets, fail servers 0 and 1, 8 more Gets, 8 more
// Sets and 1 Delete. Every stage's summed op time is pinned to the
// nanosecond, so any change to a cost constant, an event's position or the
// failure-handling path of any design shows up here. A deliberate timing
// change regenerates the table from the "actual" rows this test prints.
struct GoldenRow {
  Design design;
  std::size_t size;
  SimDur set_ns;
  SimDur get_ns;
  SimDur degraded_get_ns;
  SimDur degraded_set_ns;
  SimDur del_ns;
  std::uint64_t degraded_gets;
  std::uint64_t degraded_sets;
  std::uint64_t fallback_gets;

  bool operator==(const GoldenRow&) const = default;
};

std::ostream& operator<<(std::ostream& os, const GoldenRow& r) {
  static constexpr const char* kNames[] = {"kNoRep",   "kSyncRep", "kAsyncRep",
                                           "kEraCeCd", "kEraSeSd", "kEraSeCd",
                                           "kEraCeSd"};
  return os << "{Design::" << kNames[static_cast<std::size_t>(r.design)]
            << ", " << r.size << ", " << r.set_ns << ", " << r.get_ns << ", "
            << r.degraded_get_ns << ", " << r.degraded_set_ns << ", "
            << r.del_ns << ", " << r.degraded_gets << ", " << r.degraded_sets
            << ", " << r.fallback_gets << "}";
}

GoldenRow run_golden(Design design, std::size_t size) {
  const cluster::Testbed bed = cluster::ri_qdr();
  const ec::RsVandermondeCodec codec(3, 2);
  const ec::CostModel cost = ec::CostModel::defaults(
      ec::Scheme::kRsVandermonde, 3, 2, bed.cpu_factor);
  cluster::Cluster cl(cluster::make_config(bed, 5, 1));
  cl.enable_server_ec(codec, cost, /*materialize=*/true);
  const std::unique_ptr<Engine> engine = make_engine(
      design, cl.engine_context(0, /*materialize=*/true), 3, &codec, cost);
  cl.start();

  GoldenRow row{.design = design, .size = size};
  struct Body {
    static sim::Task<void> run(Engine* e, cluster::Cluster* c,
                               GoldenRow* out) {
      sim::Simulator& sim = c->sim();
      const auto key = [](std::size_t i) {
        return "golden" + std::to_string(i);
      };
      const auto sets = [&](std::uint64_t seed,
                            SimDur* total) -> sim::Task<void> {
        for (std::size_t i = 0; i < 8; ++i) {
          const SimTime t0 = sim.now();
          (void)co_await e->set(
              key(i), make_shared_bytes(make_pattern(out->size, seed + i)));
          *total += sim.now() - t0;
        }
      };
      const auto gets = [&](SimDur* total) -> sim::Task<void> {
        for (std::size_t i = 0; i < 8; ++i) {
          const SimTime t0 = sim.now();
          (void)co_await e->get(key(i));
          *total += sim.now() - t0;
        }
      };
      co_await sets(1, &out->set_ns);
      co_await gets(&out->get_ns);
      c->fail_server(0);
      c->fail_server(1);
      co_await gets(&out->degraded_get_ns);
      co_await sets(9, &out->degraded_set_ns);
      const SimTime t0 = sim.now();
      (void)co_await e->del(key(0));
      out->del_ns = sim.now() - t0;
    }
  };
  run_sim(cl.sim(), Body::run, engine.get(), &cl, &row);
  row.degraded_gets = engine->stats().degraded_gets;
  row.degraded_sets = engine->stats().degraded_sets;
  row.fallback_gets = engine->stats().fallback_gets;
  return row;
}

TEST(EngineGolden, UnloadedOpsPerDesign) {
  static const GoldenRow kTable[] = {
      {Design::kNoRep, 512, 51272, 61712, 43070, 32045, 5957, 3, 0, 0},
      {Design::kNoRep, 65536, 498288, 311056, 198910, 311430, 5957, 3, 0, 0},
      {Design::kSyncRep, 512, 153816, 61712, 66212, 96135, 6757, 3, 0, 0},
      {Design::kSyncRep, 65536, 1494864, 311056, 315556, 934290, 6757, 3, 0,
       0},
      {Design::kAsyncRep, 512, 59032, 61712, 66212, 54667, 6757, 3, 0, 0},
      {Design::kAsyncRep, 65536, 826160, 311056, 315556, 641732, 6757, 3, 0,
       0},
      {Design::kEraCeCd, 512, 86168, 72784, 107410, 80088, 7160, 8, 0, 0},
      {Design::kEraCeCd, 65536, 512528, 280736, 331751, 399728, 7160, 8, 0, 0},
      {Design::kEraSeSd, 512, 51424, 123944, 151070, 55772, 7160, 3, 3, 0},
      {Design::kEraSeSd, 65536, 498288, 515062, 529787, 502788, 7160, 3, 3, 0},
      {Design::kEraSeCd, 512, 51424, 72784, 107410, 55772, 7160, 8, 3, 0},
      {Design::kEraSeCd, 65536, 498288, 305626, 331751, 502788, 7160, 8, 3, 0},
      {Design::kEraCeSd, 512, 86168, 123944, 151070, 80088, 7160, 3, 0, 0},
      {Design::kEraCeSd, 65536, 512528, 486272, 529787, 399728, 7160, 3, 0, 0},
  };
  for (const Design design :
       {Design::kNoRep, Design::kSyncRep, Design::kAsyncRep, Design::kEraCeCd,
        Design::kEraSeSd, Design::kEraSeCd, Design::kEraCeSd}) {
    for (const std::size_t size : {std::size_t{512}, std::size_t{64 * 1024}}) {
      const GoldenRow actual = run_golden(design, size);
      const auto it = std::find_if(
          std::begin(kTable), std::end(kTable), [&](const GoldenRow& r) {
            return r.design == design && r.size == size;
          });
      if (it == std::end(kTable)) {
        ADD_FAILURE() << "no row; actual: " << actual;
      } else {
        EXPECT_EQ(actual, *it) << "actual: " << actual;
      }
    }
  }
}

}  // namespace
}  // namespace hpres::resilience
