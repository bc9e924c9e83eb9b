// Client/server integration on a simulated cluster: plain verbs, server-
// side erasure offloads, failure behaviour, concurrency.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "ec/rs_vandermonde.h"
#include "common/bytes.h"

namespace hpres::kv {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;

/// Runs a coroutine test body inside a fresh cluster simulation.
template <typename Fn>
void run_on(Cluster& c, Fn body) {
  c.start();
  bool finished = false;
  struct Runner {
    static sim::Task<void> run(Fn fn, Cluster* cl, bool* done) {
      co_await fn(cl);
      *done = true;
    }
  };
  c.sim().spawn(Runner::run(std::move(body), &c, &finished));
  c.run();
  EXPECT_TRUE(finished) << "test body deadlocked in simulation";
}

Request make_set(Key key, std::size_t size, std::uint64_t seed = 1) {
  Request r;
  r.verb = Verb::kSet;
  r.key = std::move(key);
  r.value = make_shared_bytes(make_pattern(size, seed));
  return r;
}

Request make_get(Key key) {
  Request r;
  r.verb = Verb::kGet;
  r.key = std::move(key);
  return r;
}

TEST(ServerClient, SetThenGetRoundTrips) {
  Cluster c(ClusterConfig{.num_servers = 2, .num_clients = 1});
  run_on(c, [](Cluster* cl) -> sim::Task<void> {
    auto& client = cl->client(0);
    const Response set = co_await client.invoke(0, make_set("k", 4096, 7));
    EXPECT_EQ(set.code, StatusCode::kOk);
    const Response get = co_await client.invoke(0, make_get("k"));
    EXPECT_EQ(get.code, StatusCode::kOk);
    EXPECT_TRUE(get.value != nullptr);
    if (get.value) { EXPECT_EQ(*get.value, make_pattern(4096, 7)); }
  });
}

TEST(ServerClient, GetMissingKeyIsNotFound) {
  Cluster c(ClusterConfig{.num_servers = 1, .num_clients = 1});
  run_on(c, [](Cluster* cl) -> sim::Task<void> {
    const Response r = co_await cl->client(0).invoke(0, make_get("nope"));
    EXPECT_EQ(r.code, StatusCode::kNotFound);
  });
}

TEST(ServerClient, DeleteRemovesKey) {
  Cluster c(ClusterConfig{.num_servers = 1, .num_clients = 1});
  run_on(c, [](Cluster* cl) -> sim::Task<void> {
    auto& client = cl->client(0);
    (void)co_await client.invoke(0, make_set("k", 128));
    Request del;
    del.verb = Verb::kDelete;
    del.key = "k";
    EXPECT_EQ((co_await client.invoke(0, std::move(del))).code,
              StatusCode::kOk);
    EXPECT_EQ((co_await client.invoke(0, make_get("k"))).code,
              StatusCode::kNotFound);
  });
}

TEST(ServerClient, LargerValuesTakeLonger) {
  // Eq. 1: latency grows with D/B. Measure two blocking sets.
  Cluster c(ClusterConfig{.num_servers = 1, .num_clients = 1});
  run_on(c, [](Cluster* cl) -> sim::Task<void> {
    auto& client = cl->client(0);
    const SimTime t0 = cl->sim().now();
    (void)co_await client.invoke(0, make_set("small", 512));
    const SimTime small = cl->sim().now() - t0;
    const SimTime t1 = cl->sim().now();
    (void)co_await client.invoke(0, make_set("big", 1024 * 1024));
    const SimTime big = cl->sim().now() - t1;
    EXPECT_GT(big, 4 * small);
  });
}

TEST(ServerClient, CallToFailedServerFailsFast) {
  Cluster c(ClusterConfig{.num_servers = 2, .num_clients = 1});
  c.fail_server(1);
  run_on(c, [](Cluster* cl) -> sim::Task<void> {
    const Response r = co_await cl->client(0).invoke(1, make_get("k"));
    EXPECT_EQ(r.code, StatusCode::kUnavailable);
  });
}

TEST(ServerClient, ScanReturnsEachFragmentBaseKeyOnce) {
  Cluster c(ClusterConfig{.num_servers = 1, .num_clients = 1});
  run_on(c, [](Cluster* cl) -> sim::Task<void> {
    auto& client = cl->client(0);
    for (const std::size_t slot : {0u, 3u}) {
      const Response put = co_await client.invoke(
          0, fragment_put("obj", slot, zero_bytes(64), 192));
      EXPECT_EQ(put.code, StatusCode::kOk);
    }
    // A whole value (a server-side encode's staged copy) is not a fragment.
    (void)co_await client.invoke(0, make_set("staged", 64));
    Request scan;
    scan.verb = Verb::kScan;
    const Response r = co_await client.invoke(0, std::move(scan));
    EXPECT_EQ(r.code, StatusCode::kOk);
    EXPECT_EQ(r.keys, (std::vector<Key>{"obj"}));
  });
}

// Sets still waiting on a server's workers when it crashes die with the
// process. Even when the server restarts with its store intact before
// those handlers reach the front of the queue, none of them may write a
// fragment or answer afterwards.
TEST(ServerClient, SetsQueuedAtCrashNeverLand) {
  Cluster c(ClusterConfig{.num_servers = 1, .num_clients = 1});
  run_on(c, [](Cluster* cl) -> sim::Task<void> {
    constexpr std::size_t kSets = 12;  // more than the 8 workers: some queue
    Server& server = cl->server(0);
    server.set_slowdown(1'000.0);  // each Set holds a worker for ~3.5 ms
    std::vector<sim::Future<Response>> acks;
    for (std::size_t i = 0; i < kSets; ++i) {
      acks.push_back(cl->client(0).call(
          0, fragment_put("queued", i, make_shared_bytes(make_pattern(4096, 1)),
                          3 * 4096)));
    }
    co_await cl->sim().delay(20'000);  // every Set is on the workers now
    server.fail();
    co_await cl->sim().delay(1'000'000);
    server.recover();  // restart while the old handlers are still queued
    server.set_slowdown(1.0);
    co_await cl->sim().delay(50'000'000);  // long past every worker slot
    for (std::size_t i = 0; i < kSets; ++i) {
      EXPECT_FALSE(
          server.store().get("queued", static_cast<std::uint8_t>(i)).ok())
          << "fragment " << i << " landed in a crashed server";
      EXPECT_FALSE(acks[i].ready()) << "a crashed server acked Set " << i;
    }
  });
}

TEST(ServerClient, ConcurrentClientsAllComplete) {
  Cluster c(ClusterConfig{.num_servers = 3, .num_clients = 8});
  c.start();
  int completed = 0;
  struct Worker {
    static sim::Task<void> run(Cluster* cl, std::size_t idx, int* done) {
      auto& client = cl->client(idx);
      for (int op = 0; op < 20; ++op) {
        const Key key = "c" + std::to_string(idx) + "-" + std::to_string(op);
        const auto server =
            static_cast<net::NodeId>(cl->ring().primary_index(key));
        const Response s =
            co_await client.invoke(server, make_set(key, 2048, idx));
        EXPECT_EQ(s.code, StatusCode::kOk);
        const Response g = co_await client.invoke(server, make_get(key));
        EXPECT_EQ(g.code, StatusCode::kOk);
      }
      ++*done;
    }
  };
  for (std::size_t i = 0; i < 8; ++i) {
    c.sim().spawn(Worker::run(&c, i, &completed));
  }
  c.run();
  EXPECT_EQ(completed, 8);
}

// --- Server-side erasure offloads -------------------------------------------

class ServerEcTest : public ::testing::Test {
 protected:
  ServerEcTest()
      : codec_(3, 2),
        cluster_(ClusterConfig{.num_servers = 5, .num_clients = 1}) {
    cluster_.enable_server_ec(
        codec_, ec::CostModel::defaults(ec::Scheme::kRsVandermonde, 3, 2),
        /*materialize=*/true);
  }

  ec::RsVandermondeCodec codec_;
  Cluster cluster_;
};

TEST_F(ServerEcTest, SetEncodeDistributesFragmentsToAllServers) {
  run_on(cluster_, [](Cluster* cl) -> sim::Task<void> {
    Request req = make_set("obj", 30'000, 3);
    req.verb = Verb::kSetEncode;
    const auto primary =
        static_cast<net::NodeId>(cl->ring().primary_index("obj"));
    const Response r = co_await cl->client(0).invoke(primary, std::move(req));
    EXPECT_EQ(r.code, StatusCode::kOk);
    // The ack covers ingest; distribution continues on the server ARPE.
    // Let the cluster quiesce before inspecting stores.
    co_await cl->sim().delay(units::kMillisecond);
    // Every server holds exactly one fragment.
    for (std::size_t s = 0; s < 5; ++s) {
      EXPECT_EQ(cl->server(s).store().items(), 1u) << "server " << s;
    }
  });
}

TEST_F(ServerEcTest, GetDecodeReturnsOriginalValue) {
  run_on(cluster_, [](Cluster* cl) -> sim::Task<void> {
    auto& client = cl->client(0);
    const auto primary =
        static_cast<net::NodeId>(cl->ring().primary_index("obj"));
    Request set = make_set("obj", 50'000, 9);
    set.verb = Verb::kSetEncode;
    (void)co_await client.invoke(primary, std::move(set));

    Request get;
    get.verb = Verb::kGetDecode;
    get.key = "obj";
    const Response r = co_await client.invoke(primary, std::move(get));
    EXPECT_EQ(r.code, StatusCode::kOk);
    EXPECT_TRUE(r.value != nullptr);
    if (r.value) { EXPECT_EQ(*r.value, make_pattern(50'000, 9)); }
  });
}

TEST_F(ServerEcTest, GetDecodeSurvivesTwoFailures) {
  run_on(cluster_, [](Cluster* cl) -> sim::Task<void> {
    auto& client = cl->client(0);
    const std::size_t primary_idx = cl->ring().primary_index("obj");
    Request set = make_set("obj", 64'000, 11);
    set.verb = Verb::kSetEncode;
    (void)co_await client.invoke(static_cast<net::NodeId>(primary_idx),
                                 std::move(set));
    // Controlled-failure model: quiesce (let background fragment
    // distribution finish) before injecting failures.
    co_await cl->sim().delay(units::kMillisecond);

    // Fail two *data-fragment* owners (slots 0 and 1). The surviving
    // servers must reconstruct.
    const std::size_t dead1 = cl->ring().slot_index("obj", 0);
    const std::size_t dead2 = cl->ring().slot_index("obj", 1);
    cl->fail_server(dead1);
    cl->fail_server(dead2);

    // Send the decode-get to a live server.
    std::size_t target = cl->ring().slot_index("obj", 2);
    Request get;
    get.verb = Verb::kGetDecode;
    get.key = "obj";
    const Response r = co_await client.invoke(
        static_cast<net::NodeId>(target), std::move(get));
    EXPECT_EQ(r.code, StatusCode::kOk);
    EXPECT_TRUE(r.value != nullptr);
    if (r.value) { EXPECT_EQ(*r.value, make_pattern(64'000, 11)); }
  });
}

TEST_F(ServerEcTest, GetDecodeFailsBeyondTolerance) {
  run_on(cluster_, [](Cluster* cl) -> sim::Task<void> {
    auto& client = cl->client(0);
    const std::size_t primary_idx = cl->ring().primary_index("obj");
    Request set = make_set("obj", 10'000, 13);
    set.verb = Verb::kSetEncode;
    (void)co_await client.invoke(static_cast<net::NodeId>(primary_idx),
                                 std::move(set));
    co_await cl->sim().delay(units::kMillisecond);

    // Kill three of five servers: only 2 < k = 3 fragments survive.
    std::vector<std::size_t> dead;
    for (std::size_t slot = 0; slot < 3; ++slot) {
      dead.push_back(cl->ring().slot_index("obj", slot));
    }
    for (const auto d : dead) cl->fail_server(d);

    const std::size_t target = cl->ring().slot_index("obj", 3);
    Request get;
    get.verb = Verb::kGetDecode;
    get.key = "obj";
    const Response r = co_await client.invoke(
        static_cast<net::NodeId>(target), std::move(get));
    EXPECT_EQ(r.code, StatusCode::kTooManyFailures);
  });
}

TEST_F(ServerEcTest, FragmentsCarryChunkMetadata) {
  run_on(cluster_, [](Cluster* cl) -> sim::Task<void> {
    Request set = make_set("obj", 12'345, 17);
    set.verb = Verb::kSetEncode;
    const auto primary =
        static_cast<net::NodeId>(cl->ring().primary_index("obj"));
    (void)co_await cl->client(0).invoke(primary, std::move(set));
    co_await cl->sim().delay(units::kMillisecond);
    const std::size_t owner2 = cl->ring().slot_index("obj", 2);
    auto got = cl->server(owner2).store().get("obj", 2);
    EXPECT_TRUE(got.ok());
    if (got.ok() && got->chunk.has_value()) {
      EXPECT_EQ(got->chunk->original_size, 12'345u);
      // Stored as (base key, slot), not under a composed key.
      EXPECT_FALSE(cl->server(owner2).store().get(chunk_key("obj", 2)).ok());
    } else {
      ADD_FAILURE() << "fragment or metadata missing";
    }
  });
}

}  // namespace
}  // namespace hpres::kv
