// Elastic resharding end-to-end: a join and a graceful leave through the
// versioned placement plane must migrate every fragment and packed-stripe
// locator to the new owners, keep every preloaded value byte-exact, and
// absorb writes issued while the migration is in flight. Also covers the
// sharded runtime (cutover via quiesce hook), same-seed determinism, and
// the stale-view bounce of every engine's writes.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster/fault_schedule.h"
#include "cluster/placement.h"
#include "ec/rs_vandermonde.h"
#include "resilience/factory.h"
#include "workload/ycsb.h"

namespace hpres {
namespace {

constexpr std::size_t kProvisioned = 6;
constexpr std::size_t kInitialActive = 4;
constexpr std::size_t kClients = 3;  // last client is the coordinator
constexpr std::size_t kKeys = 60;
constexpr std::size_t kValueSize = 600;  // > k fragments, odd remainder

std::string key_of(std::size_t i) { return "user" + std::to_string(i); }

Bytes value_of(std::size_t i) {
  return make_pattern(kValueSize, 0xBEEF + i);
}

struct Harness {
  explicit Harness(std::size_t shards = 1)
      : codec(2, 2),
        cost(ec::CostModel::defaults(ec::Scheme::kRsVandermonde, 2, 2)),
        cl(cluster::ClusterConfig{.num_servers = kProvisioned,
                                  .num_clients = kClients,
                                  .initial_active_servers = kInitialActive,
                                  .shards = shards}) {
    cl.enable_server_ec(codec, cost, /*materialize=*/true);
    manager = std::make_unique<cluster::PlacementManager>(
        cl, codec, cost, cl.engine_context(kClients - 1));
    // The view is the engines' only placement attachment: while a
    // transition is in flight, a Get that misses re-runs under its
    // previous ring.
    cl.set_placement_view(manager->view());
    for (std::size_t c = 0; c + 1 < kClients; ++c) {
      engines.push_back(resilience::make_engine(
          resilience::Design::kEraCeCd, cl.engine_context(c), 3, &codec,
          cost));
    }
    cl.start();
  }

  ec::RsVandermondeCodec codec;
  ec::CostModel cost;
  cluster::Cluster cl;
  std::vector<std::unique_ptr<resilience::Engine>> engines;
  std::unique_ptr<cluster::PlacementManager> manager;
};

sim::Task<void> load_range(resilience::Engine* engine, std::size_t first,
                           std::size_t last, std::size_t* failures) {
  for (std::size_t i = first; i < last; ++i) {
    const Status s = co_await engine->set(
        key_of(i), make_shared_bytes(value_of(i)));
    if (!s.ok()) ++*failures;
  }
}

sim::Task<void> verify_range(resilience::Engine* engine, std::size_t first,
                             std::size_t last, std::size_t* mismatches) {
  for (std::size_t i = first; i < last; ++i) {
    Result<Bytes> got = co_await engine->get(key_of(i));
    if (!got.ok() || *got != value_of(i)) ++*mismatches;
  }
}

sim::Task<void> run_join(cluster::PlacementManager* manager,
                         std::size_t server) {
  const Status joined = co_await manager->join(server);
  EXPECT_TRUE(joined.ok()) << joined.to_string();
}

sim::Task<void> run_leave(cluster::PlacementManager* manager,
                          std::size_t server, Status* out) {
  *out = co_await manager->leave(server);
}

TEST(Placement, JoinThenLeaveKeepsEveryValueByteExact) {
  Harness h;
  std::size_t load_failures = 0;
  h.cl.sim().spawn(
      load_range(h.engines[0].get(), 0, kKeys, &load_failures));
  h.cl.run();
  ASSERT_EQ(load_failures, 0u);
  ASSERT_EQ(h.cl.ring().epoch(), 1u);

  // Scale out: server 4 joins the 4-server ring.
  h.manager->coordinator_sim().spawn(run_join(h.manager.get(), 4));
  h.cl.run();
  EXPECT_EQ(h.cl.ring().epoch(), 2u);
  EXPECT_EQ(h.cl.ring().num_active(), kInitialActive + 1);
  EXPECT_FALSE(h.manager->in_transition());
  const cluster::PlacementStats& after_join = h.manager->stats();
  EXPECT_EQ(after_join.changes, 1u);
  EXPECT_EQ(after_join.epoch_acks, kProvisioned);  // all six are up
  EXPECT_GT(after_join.cleanup_deletes, 0u);
  const resilience::RepairStats& moves = h.manager->repair_stats();
  EXPECT_GT(moves.fragments_copied, 0u);
  EXPECT_GT(moves.bytes_copied, 0u);
  EXPECT_EQ(moves.scan_failures, 0u);

  std::size_t mismatches = 0;
  h.cl.sim().spawn(
      verify_range(h.engines[0].get(), 0, kKeys, &mismatches));
  h.cl.run();
  EXPECT_EQ(mismatches, 0u);

  // The joiner actually owns data now: some fragments live on server 4.
  EXPECT_GT(h.cl.server(4).store().keys().size(), 0u);

  // Scale in: server 1 gracefully leaves (it stays up through migration).
  Status left;
  h.manager->coordinator_sim().spawn(run_leave(h.manager.get(), 1, &left));
  h.cl.run();
  EXPECT_TRUE(left.ok()) << left.to_string();
  EXPECT_EQ(h.cl.ring().epoch(), 3u);
  EXPECT_EQ(h.cl.ring().num_active(), kInitialActive);
  EXPECT_FALSE(h.cl.ring().is_active(1));

  mismatches = 0;
  h.cl.sim().spawn(
      verify_range(h.engines[0].get(), 0, kKeys, &mismatches));
  h.cl.run();
  EXPECT_EQ(mismatches, 0u);
  // Cleanup drained the leaver: nothing under the final placement maps to
  // it, and its stale copies were deleted after the epoch acks.
  EXPECT_EQ(h.cl.server(1).store().keys().size(), 0u);
}

TEST(Placement, TransitionGetMissReadsPreviousRing) {
  // Gets race a join's migration. A Get whose key has not reached its new
  // owners yet misses under the live ring and re-runs, inside the same op,
  // under the view's previous ring: every value reads back byte-exact, at
  // least one Get needs the previous ring, and the engine counts each Get
  // once.
  Harness h;
  std::size_t load_failures = 0;
  h.cl.sim().spawn(
      load_range(h.engines[0].get(), 0, kKeys, &load_failures));
  h.cl.run();
  ASSERT_EQ(load_failures, 0u);

  constexpr std::size_t kReaders = 4;
  std::size_t mismatches = 0;
  h.manager->coordinator_sim().spawn(run_join(h.manager.get(), 4));
  for (std::size_t r = 0; r < kReaders; ++r) {
    h.cl.sim().spawn(
        verify_range(h.engines[1].get(), 0, kKeys, &mismatches));
  }
  h.cl.run();
  EXPECT_EQ(h.cl.ring().epoch(), 2u);
  EXPECT_FALSE(h.manager->in_transition());
  EXPECT_EQ(mismatches, 0u);
  const resilience::EngineStats& stats = h.engines[1]->stats();
  EXPECT_GE(stats.placement_fallback_gets, 1u);
  EXPECT_EQ(stats.gets, kReaders * kKeys);
  EXPECT_EQ(stats.get_failures, 0u);
}

TEST(Placement, LeaveBelowCodecWidthIsRefused) {
  // RS(2,2) places n = 4 fragments on 4 distinct servers, and exactly 4
  // are active. With 3 left, slot_index would wrap and one server would
  // hold two fragments of a key, so the leave is refused before the ring,
  // the epoch or the view change.
  Harness h;
  std::size_t load_failures = 0;
  h.cl.sim().spawn(
      load_range(h.engines[0].get(), 0, kKeys, &load_failures));
  h.cl.run();
  ASSERT_EQ(load_failures, 0u);
  ASSERT_EQ(h.cl.ring().num_active(), kInitialActive);

  Status left;
  h.manager->coordinator_sim().spawn(run_leave(h.manager.get(), 1, &left));
  h.cl.run();
  EXPECT_EQ(left.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(h.cl.ring().epoch(), 1u);
  EXPECT_EQ(h.manager->epoch(), 1u);
  EXPECT_EQ(h.cl.ring().num_active(), kInitialActive);
  EXPECT_TRUE(h.cl.ring().is_active(1));
  EXPECT_FALSE(h.manager->in_transition());
  EXPECT_EQ(h.manager->stats().changes, 0u);

  // A scheduled leave is refused the same way and is not counted as fired.
  cluster::FaultSchedule schedule(h.cl);
  schedule.set_placement_manager(h.manager.get());
  schedule.add_leave(100 * units::kMicrosecond, 2);
  schedule.arm();
  h.cl.run();
  EXPECT_EQ(schedule.fired(), 0u);
  EXPECT_EQ(h.cl.ring().epoch(), 1u);

  std::size_t mismatches = 0;
  h.cl.sim().spawn(
      verify_range(h.engines[0].get(), 0, kKeys, &mismatches));
  h.cl.run();
  EXPECT_EQ(mismatches, 0u);
}

TEST(Placement, WritesDuringMigrationAllSurvive) {
  Harness h;
  std::size_t load_failures = 0;
  h.cl.sim().spawn(
      load_range(h.engines[0].get(), 0, kKeys, &load_failures));
  h.cl.run();
  ASSERT_EQ(load_failures, 0u);

  // Join and a concurrent write stream race: the writes start at the same
  // instant the cutover/migration protocol does.
  std::size_t write_failures = 0;
  h.manager->coordinator_sim().spawn(run_join(h.manager.get(), 4));
  h.cl.sim().spawn(load_range(h.engines[1].get(), kKeys, 2 * kKeys,
                              &write_failures));
  h.cl.run();
  EXPECT_EQ(write_failures, 0u);
  EXPECT_EQ(h.cl.ring().epoch(), 2u);

  std::size_t mismatches = 0;
  h.cl.sim().spawn(
      verify_range(h.engines[0].get(), 0, 2 * kKeys, &mismatches));
  h.cl.run();
  EXPECT_EQ(mismatches, 0u);
}

TEST(Placement, FaultScheduleDrivesJoinAndLeaveDeterministically) {
  auto run_once = [] {
    Harness h;
    std::size_t load_failures = 0;
    h.cl.sim().spawn(
        load_range(h.engines[0].get(), 0, kKeys, &load_failures));
    h.cl.run();
    EXPECT_EQ(load_failures, 0u);

    cluster::FaultSchedule schedule(h.cl);
    schedule.set_placement_manager(h.manager.get());
    schedule.add_join(200 * units::kMicrosecond, 4);
    schedule.add_leave(2 * units::kMillisecond, 0);
    schedule.arm();
    std::size_t write_failures = 0;
    h.cl.sim().spawn(load_range(h.engines[1].get(), kKeys, 2 * kKeys,
                                &write_failures));
    const SimTime makespan = h.cl.run();
    EXPECT_EQ(write_failures, 0u);
    EXPECT_EQ(h.cl.ring().epoch(), 3u);
    EXPECT_EQ(h.manager->stats().changes, 2u);

    std::size_t mismatches = 0;
    h.cl.sim().spawn(
        verify_range(h.engines[0].get(), 0, 2 * kKeys, &mismatches));
    h.cl.run();
    EXPECT_EQ(mismatches, 0u);
    return std::pair<SimTime, std::uint64_t>{
        makespan, h.cl.runtime().events_executed()};
  };
  const auto a = run_once();
  const auto b = run_once();
  // Oracle mode: the whole elastic run replays byte-identically.
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(Placement, ShardedRuntimeMigratesThroughQuiesceHook) {
  Harness h(/*shards=*/3);
  std::size_t load_failures = 0;
  h.cl.sim_for_client(0).spawn(
      load_range(h.engines[0].get(), 0, kKeys, &load_failures));
  h.cl.run();
  ASSERT_EQ(load_failures, 0u);

  h.manager->coordinator_sim().spawn(run_join(h.manager.get(), 4));
  h.cl.run();
  EXPECT_EQ(h.cl.ring().epoch(), 2u);
  EXPECT_FALSE(h.manager->in_transition());
  EXPECT_GT(h.manager->repair_stats().fragments_copied, 0u);

  std::size_t mismatches = 0;
  h.cl.sim_for_client(0).spawn(
      verify_range(h.engines[0].get(), 0, kKeys, &mismatches));
  h.cl.run();
  EXPECT_EQ(mismatches, 0u);
}

TEST(Placement, FailedDiscoveryScansAreCounted) {
  Harness h;
  std::size_t load_failures = 0;
  h.cl.sim().spawn(
      load_range(h.engines[0].get(), 0, kKeys, &load_failures));
  h.cl.run();
  ASSERT_EQ(load_failures, 0u);

  // Server 2 answers every request only after ~1.5 ms, past a 200 us
  // deadline, so both of its migration discovery scans (fragment bases and
  // packed-stripe locators) time out.
  h.cl.set_rpc_policy(kv::RpcPolicy{.timeout_ns = 200 * units::kMicrosecond});
  h.cl.server(2).set_slowdown(1000.0);
  h.manager->coordinator_sim().spawn(run_join(h.manager.get(), 4));
  h.cl.run();
  EXPECT_EQ(h.manager->stats().changes, 1u);
  EXPECT_EQ(h.manager->repair_stats().scan_failures, 2u);

  // Each unit of work is exported once: summed over the repair.* and
  // placement.* names, two failed scans, 10 rebuilt fragments and one
  // scan of each of the 60 keys.
  obs::MetricsRegistry reg;
  h.manager->register_metrics(reg, "join");
  reg.capture();
  const auto exported = [&reg](const std::string& name) {
    std::int64_t total = 0;
    for (const char* component : {"repair", "placement"}) {
      total += reg.value_of(std::string(component) + "." + name,
                            obs::MetricLabels{component, "coordinator",
                                              "join"})
                   .value_or(0);
    }
    return total;
  };
  EXPECT_EQ(exported("scan_failures"), 2);
  EXPECT_EQ(exported("fragments_rebuilt"), 10);
  EXPECT_EQ(exported("keys_scanned"), static_cast<std::int64_t>(kKeys));
}

sim::Task<void> install_epoch(kv::Client* client, kv::NodeId server,
                              std::uint64_t epoch) {
  kv::Request req;
  req.verb = kv::Verb::kPlacementEpoch;
  req.epoch = epoch;
  const kv::Response resp = co_await client->invoke(server, std::move(req));
  EXPECT_EQ(resp.code, StatusCode::kOk);
}

sim::Task<void> set_once(resilience::Engine* engine, Status* out) {
  *out = co_await engine->set("user7", make_shared_bytes(value_of(7)));
}

TEST(PlacementEpoch, StaleViewWritesBounceOnEveryEngine) {
  // Every server installed epoch 2 while the client and its engine still
  // see epoch 1: every write the engine issues (replicas, fragments,
  // packed-stripe fragments and locators, the server-encode request) must
  // carry the stale stamp and bounce before anything lands.
  struct Case {
    const char* name;
    resilience::Design design;
    resilience::PackParams pack;
  };
  const Case cases[] = {
      {"replication", resilience::Design::kSyncRep, {}},
      {"era-ce-cd", resilience::Design::kEraCeCd, {}},
      {"era-se-sd", resilience::Design::kEraSeSd, {}},
      {"era-ce-cd-packed", resilience::Design::kEraCeCd,
       resilience::PackParams{.pack_threshold = 4096}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const ec::RsVandermondeCodec codec(3, 2);
    const ec::CostModel cost =
        ec::CostModel::defaults(ec::Scheme::kRsVandermonde, 3, 2);
    cluster::Cluster cl(
        cluster::ClusterConfig{.num_servers = 5, .num_clients = 1});
    cl.enable_server_ec(codec, cost, /*materialize=*/true);
    const kv::PlacementView view{.epoch = 1};
    cl.set_placement_view(&view);
    auto engine = resilience::make_engine(c.design, cl.engine_context(0), 3,
                                          &codec, cost, {}, {}, c.pack);
    cl.start();

    for (const kv::NodeId server : cl.server_nodes()) {
      cl.sim().spawn(install_epoch(&cl.client(0), server, 2));
    }
    cl.run();
    Status status;
    cl.sim().spawn(set_once(engine.get(), &status));
    cl.run();

    EXPECT_EQ(status.code(), StatusCode::kWrongEpoch);
    std::uint64_t bounces = 0;
    for (std::size_t s = 0; s < cl.num_servers(); ++s) {
      EXPECT_EQ(cl.server(s).placement_epoch(), 2u);
      bounces += cl.server(s).wrong_epoch_bounces();
      EXPECT_EQ(cl.server(s).store().items(), 0u) << "server " << s;
    }
    EXPECT_GT(bounces, 0u);
  }
}

sim::Task<void> get_into(resilience::Engine* engine, std::string key,
                         Result<Bytes>* out) {
  *out = co_await engine->get(std::move(key));
}

sim::Task<void> join_at(sim::Simulator* sim, SimDur after, kv::HashRing* ring,
                        std::size_t server) {
  co_await sim->delay(after);
  ring->add_server(server);
}

TEST(PlacementEpoch, FailoverAfterJoinFetchesFromTheNewOwner) {
  // A Get resolves its key's placement once. When its failover fetch goes
  // out after a join moved the ring, the placement re-resolves, so the
  // fetch reaches the slot's new owner rather than the one the Get began
  // with.
  ec::RsVandermondeCodec codec(2, 2);
  const ec::CostModel cost =
      ec::CostModel::defaults(ec::Scheme::kRsVandermonde, 2, 2);
  cluster::Cluster cl(cluster::ClusterConfig{
      .num_servers = kProvisioned,
      .num_clients = 1,
      .initial_active_servers = 5});
  const auto engine = resilience::make_engine(
      resilience::Design::kEraCeCd, cl.engine_context(0), 3, &codec, cost);
  cl.start();
  // Server 0 leaves and later rejoins at the head of the active list, so
  // the join shifts every active server's position.
  cl.mutable_ring().remove_server(0);

  // A key whose slots 0 and 1 stay put when server 0 rejoins, and whose
  // slot 2 moves.
  kv::HashRing grown = cl.ring();
  grown.add_server(0);
  std::size_t index = 0;
  for (;; ++index) {
    const std::string k = key_of(index);
    if (cl.ring().slot_index(k, 0) == grown.slot_index(k, 0) &&
        cl.ring().slot_index(k, 1) == grown.slot_index(k, 1) &&
        cl.ring().slot_index(k, 2) != grown.slot_index(k, 2)) {
      break;
    }
  }
  const std::string key = key_of(index);
  std::size_t failures = 0;
  cl.sim().spawn(load_range(engine.get(), index, index + 1, &failures));
  cl.run();
  ASSERT_EQ(failures, 0u);

  // Slot 0 answers kNotFound, so the Get fails over to slot 2. Its new
  // owner gets a copy of that fragment, which no migration would place.
  const std::size_t old_owner = cl.ring().slot_index(key, 2);
  const std::size_t new_owner = grown.slot_index(key, 2);
  ASSERT_TRUE(cl.server(cl.ring().slot_index(key, 0))
                  .store()
                  .erase(key, 0));
  const auto fragment = cl.server(old_owner).store().get(key, 2);
  ASSERT_TRUE(fragment.ok());
  ASSERT_TRUE(cl.server(new_owner)
                  .store()
                  .set(key, 2, fragment->value, fragment->chunk)
                  .ok());
  const std::uint64_t old_gets = cl.server(old_owner).store().stats().get_ops;
  const std::uint64_t new_gets = cl.server(new_owner).store().stats().get_ops;

  // The join lands after the Get posted its first fetches (800 ns of issue
  // CPU) and before the kNotFound and T_check let the failover go out.
  Result<Bytes> got = Status{StatusCode::kInternal};
  cl.sim().spawn(get_into(engine.get(), key, &got));
  cl.sim().spawn(join_at(&cl.sim(), 1'000, &cl.mutable_ring(), 0));
  cl.run();
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, value_of(index));
  EXPECT_EQ(cl.ring().epoch(), 3u);
  EXPECT_EQ(engine->stats().failover_fetches, 1u);
  EXPECT_EQ(cl.server(new_owner).store().stats().get_ops, new_gets + 1);
  EXPECT_EQ(cl.server(old_owner).store().stats().get_ops, old_gets);
}

}  // namespace
}  // namespace hpres
