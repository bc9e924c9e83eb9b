// Fabric timing model: Equation 1 behaviour, NIC serialization, incast
// queueing, eager/rendezvous switch, failure drops, FIFO per pair; inbox
// semantics (FIFO, buffering, try_recv, the bound dispatch callback: one
// pass per landing on an idle inbox) and cross-shard deliveries.
#include "net/fabric.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "sim/shard_runtime.h"

namespace hpres::net {
namespace {

using TestFabric = Fabric<int>;

FabricParams flat_params() {
  // Round numbers for exact arithmetic: L = 1000ns, 8 Gbps = 1 byte/ns,
  // no per-message cost, no header, eager everywhere with no copy cost.
  FabricParams p;
  p.name = "test";
  p.latency_ns = 1'000;
  p.bandwidth_gbps = 8.0;
  p.per_message_ns = 0;
  p.rendezvous_threshold = static_cast<std::size_t>(-1);
  p.eager_copy_ns_per_byte = 0.0;
  p.header_bytes = 0;
  return p;
}

/// Logs each message node `id` receives as (body, receive time), from a
/// dispatch callback bound to the node's inbox the way RpcNode::start()
/// binds one: binding schedules a first pass, landings the later ones.
class Receiver : public sim::Callback {
 public:
  Receiver(TestFabric& fabric, NodeId id)
      : sim::Callback{&Receiver::dispatch},
        inbox_(&fabric.inbox(id)),
        sim_(&fabric.sim_of(id)) {
    inbox_->bind(this);
  }
  Receiver(const Receiver&) = delete;
  Receiver& operator=(const Receiver&) = delete;
  ~Receiver() { inbox_->bind(nullptr); }

  std::vector<std::pair<int, SimTime>> log;
  int passes = 0;  ///< dispatch passes run

 private:
  static void dispatch(sim::Callback* cb) {
    auto* self = static_cast<Receiver*>(cb);
    ++self->passes;
    while (std::optional<Envelope<int>> env = self->inbox_->try_recv()) {
      self->log.emplace_back(env->body, self->sim_->now());
    }
    self->inbox_->drained();
  }

  TestFabric::Inbox* inbox_;
  sim::Simulator* sim_;
};

TEST(Fabric, UnloadedTransferMatchesEquationOne) {
  sim::ShardRuntime runtime(1, 0);
  sim::Simulator& sim = runtime.shard(0);
  TestFabric fabric(runtime, flat_params(), {0, 0});
  Receiver rx(fabric, 1);
  fabric.send(0, 1, 7, 4096);
  sim.run();
  ASSERT_EQ(rx.log.size(), 1u);
  // T = L + D/B = 1000 + 4096 ns.
  EXPECT_EQ(rx.log[0].second, 1'000 + 4'096);
}

TEST(Fabric, ZeroByteMessageTakesLatencyOnly) {
  sim::ShardRuntime runtime(1, 0);
  sim::Simulator& sim = runtime.shard(0);
  TestFabric fabric(runtime, flat_params(), {0, 0});
  Receiver rx(fabric, 1);
  fabric.send(0, 1, 1, 0);
  sim.run();
  ASSERT_EQ(rx.log.size(), 1u);
  EXPECT_EQ(rx.log[0].second, 1'000);
}

TEST(Fabric, SenderNicSerializesConcurrentSends) {
  sim::ShardRuntime runtime(1, 0);
  sim::Simulator& sim = runtime.shard(0);
  TestFabric fabric(runtime, flat_params(), {0, 0, 0});
  Receiver rx1(fabric, 1);
  Receiver rx2(fabric, 2);
  fabric.send(0, 1, 1, 10'000);
  fabric.send(0, 2, 2, 10'000);  // queued behind the first at node 0's NIC
  sim.run();
  ASSERT_EQ(rx1.log.size(), 1u);
  ASSERT_EQ(rx2.log.size(), 1u);
  EXPECT_EQ(rx1.log[0].second, 1'000 + 10'000);
  EXPECT_EQ(rx2.log[0].second, 1'000 + 20'000);  // waited for tx slot
}

TEST(Fabric, ReceiverNicQueuesIncast) {
  sim::ShardRuntime runtime(1, 0);
  sim::Simulator& sim = runtime.shard(0);
  TestFabric fabric(runtime, flat_params(), {0, 0, 0});
  Receiver rx(fabric, 2);
  // Two different senders target node 2 simultaneously.
  fabric.send(0, 2, 1, 10'000);
  fabric.send(1, 2, 2, 10'000);
  sim.run();
  ASSERT_EQ(rx.log.size(), 2u);
  EXPECT_EQ(rx.log[0].second, 11'000);  // first stream lands at L + D/B
  EXPECT_EQ(rx.log[1].second, 21'000);  // second queues at the receiver NIC
}

TEST(Fabric, ParallelDisjointPairsDoNotInterfere) {
  sim::ShardRuntime runtime(1, 0);
  sim::Simulator& sim = runtime.shard(0);
  TestFabric fabric(runtime, flat_params(), {0, 0, 0, 0});
  Receiver rx2(fabric, 2);
  Receiver rx3(fabric, 3);
  fabric.send(0, 2, 1, 10'000);
  fabric.send(1, 3, 2, 10'000);
  sim.run();
  EXPECT_EQ(rx2.log[0].second, 11'000);
  EXPECT_EQ(rx3.log[0].second, 11'000);  // full parallelism
}

TEST(Fabric, RendezvousAddsHandshakeRoundTrip) {
  FabricParams p = flat_params();
  p.rendezvous_threshold = 16 * 1024;
  sim::ShardRuntime runtime(1, 0);
  sim::Simulator& sim = runtime.shard(0);
  TestFabric fabric(runtime, p, {0, 0});
  Receiver rx(fabric, 1);
  fabric.send(0, 1, 1, 16 * 1024);      // rendezvous: 2L handshake first
  sim.run();
  ASSERT_EQ(rx.log.size(), 1u);
  EXPECT_EQ(rx.log[0].second, 2'000 + 1'000 + 16 * 1024);
  EXPECT_EQ(fabric.stats().rendezvous_handshakes, 1u);
}

TEST(Fabric, EagerCopyCostDelaysSmallMessages) {
  FabricParams p = flat_params();
  p.eager_copy_ns_per_byte = 1.0;
  sim::ShardRuntime runtime(1, 0);
  sim::Simulator& sim = runtime.shard(0);
  TestFabric fabric(runtime, p, {0, 0});
  Receiver rx(fabric, 1);
  fabric.send(0, 1, 1, 1'000);
  sim.run();
  ASSERT_EQ(rx.log.size(), 1u);
  // copy (1000) + L (1000) + D/B (1000)
  EXPECT_EQ(rx.log[0].second, 3'000);
}

TEST(Fabric, HeaderBytesRideTheWire) {
  FabricParams p = flat_params();
  p.header_bytes = 64;
  sim::ShardRuntime runtime(1, 0);
  sim::Simulator& sim = runtime.shard(0);
  TestFabric fabric(runtime, p, {0, 0});
  Receiver rx(fabric, 1);
  fabric.send(0, 1, 1, 1'000);
  sim.run();
  EXPECT_EQ(rx.log[0].second, 1'000 + 1'064);
}

TEST(Fabric, SendToFailedNodeIsDropped) {
  sim::ShardRuntime runtime(1, 0);
  sim::Simulator& sim = runtime.shard(0);
  TestFabric fabric(runtime, flat_params(), {0, 0});
  fabric.set_node_up(1, false);
  fabric.send(0, 1, 1, 100);
  sim.run();
  EXPECT_EQ(fabric.stats().messages_dropped, 1u);
  EXPECT_EQ(fabric.inbox(1).size(), 0u);
  fabric.set_node_up(1, true);
  EXPECT_TRUE(fabric.node_up(1));
}

TEST(Fabric, FifoPerPairEvenWithMixedSizes) {
  sim::ShardRuntime runtime(1, 0);
  sim::Simulator& sim = runtime.shard(0);
  TestFabric fabric(runtime, flat_params(), {0, 0});
  Receiver rx(fabric, 1);
  fabric.send(0, 1, 1, 50'000);  // big first
  fabric.send(0, 1, 2, 10);      // small cannot overtake on an RC QP
  fabric.send(0, 1, 3, 10);
  sim.run();
  ASSERT_EQ(rx.log.size(), 3u);
  EXPECT_EQ(rx.log[0].first, 1);
  EXPECT_EQ(rx.log[1].first, 2);
  EXPECT_EQ(rx.log[2].first, 3);
  EXPECT_LT(rx.log[0].second, rx.log[1].second);
  EXPECT_LE(rx.log[1].second, rx.log[2].second);
}

TEST(Fabric, LoopbackSkipsNic) {
  sim::ShardRuntime runtime(1, 0);
  sim::Simulator& sim = runtime.shard(0);
  TestFabric fabric(runtime, flat_params(), {0, 0});
  Receiver rx(fabric, 0);
  fabric.send(0, 0, 1, 1'000'000);
  sim.run();
  ASSERT_EQ(rx.log.size(), 1u);
  EXPECT_LT(rx.log[0].second, 1'000);  // far below any wire transfer
}

TEST(Fabric, StatsCountTraffic) {
  sim::ShardRuntime runtime(1, 0);
  sim::Simulator& sim = runtime.shard(0);
  TestFabric fabric(runtime, flat_params(), {0, 0});
  Receiver rx(fabric, 1);
  fabric.send(0, 1, 1, 100);
  fabric.send(0, 1, 2, 200);
  sim.run();
  EXPECT_EQ(fabric.stats().messages_sent, 2u);
  EXPECT_EQ(fabric.stats().bytes_sent, 300u);
}

TEST(Fabric, DroppedMessagesCountBytesAndConserve) {
  sim::ShardRuntime runtime(1, 0);
  sim::Simulator& sim = runtime.shard(0);
  TestFabric fabric(runtime, flat_params(), {0, 0, 0});
  fabric.set_node_up(1, false);
  fabric.send(0, 1, 1, 700);  // dst down: dropped
  fabric.send(1, 2, 2, 300);  // src down: dropped
  fabric.send(0, 2, 3, 100);
  fabric.send(0, 2, 4, 150);
  sim.run();
  const FabricStats& s = fabric.stats();
  EXPECT_EQ(s.messages_dropped, 2u);
  EXPECT_EQ(s.drops_dst_down, 1u);
  EXPECT_EQ(s.drops_src_down, 1u);
  EXPECT_EQ(s.bytes_dropped, 1'000u);
  EXPECT_EQ(fabric.inbox(2).size(), 2u);
  // Conservation identities at quiescence (header_bytes == 0): everything
  // sent was either delivered or accounted as dropped — nothing vanishes.
  EXPECT_EQ(s.messages_sent, s.messages_delivered + s.messages_dropped);
  EXPECT_EQ(s.bytes_sent, s.bytes_delivered + s.bytes_dropped);
  EXPECT_EQ(fabric.in_flight_bytes(), 0u);
}

TEST(Fabric, SeededLossIsDeterministicAndConserves) {
  auto run_lossy = [](std::uint64_t seed) {
    sim::ShardRuntime runtime(1, 0);
    sim::Simulator& sim = runtime.shard(0);
    TestFabric fabric(runtime, flat_params(), {0, 0});
    fabric.set_loss(0.5, seed);
    for (int i = 0; i < 200; ++i) fabric.send(0, 1, i, 64);
    sim.run();
    const FabricStats& s = fabric.stats();
    EXPECT_GT(s.drops_injected, 0u);
    EXPECT_LT(s.drops_injected, 200u);
    EXPECT_EQ(s.messages_dropped, s.drops_injected);
    EXPECT_EQ(s.bytes_dropped, 64u * s.drops_injected);
    EXPECT_EQ(s.messages_sent, s.messages_delivered + s.messages_dropped);
    EXPECT_EQ(s.bytes_sent, s.bytes_delivered + s.bytes_dropped);
    return s.drops_injected;
  };
  EXPECT_EQ(run_lossy(42), run_lossy(42));       // same seed, same drops
  EXPECT_NE(run_lossy(42), run_lossy(0xbeef));   // loss pattern is seeded
}

TEST(Fabric, FullLossDropsEverything) {
  sim::ShardRuntime runtime(1, 0);
  sim::Simulator& sim = runtime.shard(0);
  TestFabric fabric(runtime, flat_params(), {0, 0});
  fabric.set_loss(1.0);
  for (int i = 0; i < 10; ++i) fabric.send(0, 1, i, 32);
  sim.run();
  EXPECT_EQ(fabric.stats().drops_injected, 10u);
  EXPECT_EQ(fabric.stats().messages_delivered, 0u);
  EXPECT_EQ(fabric.inbox(1).size(), 0u);
}

sim::Task<void> send_numbered(TestFabric* fabric, NodeId src, NodeId dst,
                              int first, int count) {
  for (int i = 0; i < count; ++i) fabric->send(src, dst, first + i, 0);
  co_return;
}

/// Which of 64 messages node 2 — silently dropping half of its traffic —
/// received from sender 0 (bodies 0..63) and, when `both_send`, from
/// sender 1 (bodies 64..127). `node_shard` places the three nodes.
std::vector<std::vector<bool>> lossy_deliveries(
    std::vector<std::uint32_t> node_shard, bool both_send) {
  constexpr int kCount = 64;
  const FabricParams p = flat_params();
  const std::size_t shards =
      *std::max_element(node_shard.begin(), node_shard.end()) + 1;
  sim::ShardRuntime runtime(shards, p.latency_ns);
  TestFabric fabric(runtime, p, node_shard);
  fabric.set_node_loss(2, 0.5);
  Receiver rx(fabric, 2);
  runtime.shard(node_shard[0]).spawn(send_numbered(&fabric, 0, 2, 0, kCount));
  if (both_send) {
    runtime.shard(node_shard[1]).spawn(
        send_numbered(&fabric, 1, 2, kCount, kCount));
  }
  runtime.run();
  std::vector<std::vector<bool>> got(2, std::vector<bool>(kCount, false));
  for (const auto& [body, at] : rx.log) {
    const auto id = static_cast<std::size_t>(body);
    got[id / kCount][id % kCount] = true;
  }
  return got;
}

TEST(Fabric, PerNodeLossDrawsOneStreamPerShard) {
  // Senders 0 and 1 sit on different shards and send the lossy node the
  // same traffic. Each shard draws from its own loss stream, so the two
  // drop patterns differ...
  const auto two = lossy_deliveries({0, 1, 1}, /*both_send=*/true);
  EXPECT_NE(two[0], two[1]);
  for (const std::vector<bool>& sender : two) {
    const auto kept = std::count(sender.begin(), sender.end(), true);
    EXPECT_GT(kept, 0);
    EXPECT_LT(kept, 64);
  }
  // ...and shard 0's stream is the one a single loop draws.
  const auto one = lossy_deliveries({0, 0, 0}, /*both_send=*/false);
  EXPECT_EQ(two[0], one[0]);
}

// --- Inbox -----------------------------------------------------------------

sim::Task<void> send_spaced(sim::Simulator* sim, TestFabric* fabric, int count,
                            SimDur gap) {
  for (int i = 0; i < count; ++i) {
    co_await sim->delay(gap);
    fabric->send(0, 1, i, 100);
  }
}

TEST(Fabric, InboxDeliversInFifoOrder) {
  sim::ShardRuntime runtime(1, 0);
  sim::Simulator& sim = runtime.shard(0);
  TestFabric fabric(runtime, flat_params(), {0, 0});
  Receiver rx(fabric, 1);
  sim.spawn(send_spaced(&sim, &fabric, 5, 10));
  sim.run();
  ASSERT_EQ(rx.log.size(), 5u);
  for (std::size_t i = 0; i < rx.log.size(); ++i) {
    EXPECT_EQ(rx.log[i].first, static_cast<int>(i));
  }
  EXPECT_EQ(fabric.inbox(1).size(), 0u);
}

TEST(Fabric, InboxBuffersUntilReceived) {
  sim::ShardRuntime runtime(1, 0);
  sim::Simulator& sim = runtime.shard(0);
  TestFabric fabric(runtime, flat_params(), {0, 0});
  fabric.send(0, 1, 7, 100);
  fabric.send(0, 1, 8, 100);
  sim.run();  // both land with nobody receiving
  EXPECT_EQ(fabric.inbox(1).size(), 2u);
  // Each delivery's start and land steps, and no dispatch pass.
  EXPECT_EQ(sim.events_executed(), 4u);
  Receiver rx(fabric, 1);
  sim.run();
  EXPECT_EQ(rx.passes, 1);  // binding schedules the pass that takes both
  ASSERT_EQ(rx.log.size(), 2u);
  EXPECT_EQ(rx.log[0].first, 7);
  EXPECT_EQ(rx.log[1].first, 8);
  EXPECT_EQ(fabric.inbox(1).size(), 0u);
}

TEST(Fabric, InboxTryRecvDoesNotSuspend) {
  sim::ShardRuntime runtime(1, 0);
  sim::Simulator& sim = runtime.shard(0);
  TestFabric fabric(runtime, flat_params(), {0, 0});
  EXPECT_FALSE(fabric.inbox(1).try_recv().has_value());
  fabric.send(0, 1, 3, 100);
  sim.run();
  const std::optional<Envelope<int>> env = fabric.inbox(1).try_recv();
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->body, 3);
  EXPECT_EQ(env->src, 0u);
  EXPECT_EQ(env->delivered_at, 1'000 + 100);
  EXPECT_FALSE(fabric.inbox(1).try_recv().has_value());
}

sim::Task<void> send_after(sim::Simulator* sim, TestFabric* fabric, SimDur d,
                           int body) {
  co_await sim->delay(d);
  fabric->send(0, 1, body, 100);
}

TEST(Fabric, LandingOnIdleInboxSchedulesDispatchOnce) {
  sim::ShardRuntime runtime(1, 0);
  sim::Simulator& sim = runtime.shard(0);
  TestFabric fabric(runtime, flat_params(), {0, 0});
  Receiver rx(fabric, 1);
  sim.run();  // the first pass finds the inbox empty
  EXPECT_EQ(rx.passes, 1);
  EXPECT_TRUE(rx.log.empty());
  const std::uint64_t events = sim.events_executed();
  sim.spawn(send_after(&sim, &fabric, 500, 9));
  sim.run();
  ASSERT_EQ(rx.log.size(), 1u);
  EXPECT_EQ(rx.log[0].first, 9);
  EXPECT_EQ(rx.log[0].second, 500 + 1'000 + 100);  // dispatched as it lands
  EXPECT_EQ(rx.passes, 2);
  // The sender, its delay, the delivery's start and land steps, and one
  // dispatch pass.
  EXPECT_EQ(sim.events_executed() - events, 5u);
}

TEST(Fabric, LandingsBeforeDispatchRunsShareOnePass) {
  sim::ShardRuntime runtime(1, 0);
  sim::Simulator& sim = runtime.shard(0);
  TestFabric fabric(runtime, flat_params(), {0, 0, 0, 0});
  Receiver rx(fabric, 1);
  sim.run();
  // Zero-byte messages from three senders all land at t = L, one after
  // another; only the first finds the inbox idle.
  fabric.send(2, 1, 20, 0);
  fabric.send(0, 1, 0, 0);
  fabric.send(3, 1, 30, 0);
  sim.run();
  EXPECT_EQ(rx.passes, 2);
  ASSERT_EQ(rx.log.size(), 3u);
  EXPECT_EQ(rx.log[0], (std::pair<int, SimTime>{20, 1'000}));
  EXPECT_EQ(rx.log[1], (std::pair<int, SimTime>{0, 1'000}));
  EXPECT_EQ(rx.log[2], (std::pair<int, SimTime>{30, 1'000}));
  // Drained: the next landing schedules a pass again.
  fabric.send(0, 1, 1, 0);
  sim.run();
  EXPECT_EQ(rx.passes, 3);
  EXPECT_EQ(rx.log.size(), 4u);
}

sim::Task<void> send_burst(TestFabric* fabric) {
  fabric->send(0, 1, 1, 1'000);
  fabric->send(0, 1, 2, 10);
  fabric->send(0, 1, 3, 10);
  co_return;
}

TEST(Fabric, CrossShardDeliveriesLandOnTheReceiverShard) {
  const FabricParams p = flat_params();
  sim::ShardRuntime runtime(2, p.latency_ns);
  TestFabric fabric(runtime, p, {0, 1});
  Receiver rx(fabric, 1);
  runtime.shard(0).spawn(send_burst(&fabric));
  runtime.run();
  // Same arithmetic as one loop: tx 0-1000, 1000-1010, 1010-1020; each
  // arrives one latency after its tx start and queues at the rx NIC.
  ASSERT_EQ(rx.log.size(), 3u);
  EXPECT_EQ(rx.log[0], (std::pair<int, SimTime>{1, 2'000}));
  EXPECT_EQ(rx.log[1], (std::pair<int, SimTime>{2, 2'010}));
  EXPECT_EQ(rx.log[2], (std::pair<int, SimTime>{3, 2'020}));
  fabric.merge_stats();
  const FabricStats& s = fabric.stats();
  EXPECT_EQ(s.messages_sent, 3u);
  EXPECT_EQ(s.messages_delivered, 3u);
  EXPECT_EQ(s.bytes_delivered, 1'020u);
  EXPECT_EQ(fabric.in_flight_bytes(), 0u);
  EXPECT_EQ(fabric.in_flight_messages(), 0u);
  EXPECT_EQ(fabric.in_flight_bytes_of_shard(0), 0u);
  EXPECT_EQ(fabric.in_flight_bytes_of_shard(1), 0u);
  EXPECT_EQ(fabric.inbox(1).size(), 0u);
}

TEST(FabricParams, PresetsAreOrderedByGeneration) {
  const auto qdr = FabricParams::rdma_qdr();
  const auto fdr = FabricParams::rdma_fdr();
  const auto edr = FabricParams::rdma_edr();
  const auto ipoib = FabricParams::ipoib_qdr();
  EXPECT_LT(qdr.bandwidth_gbps, fdr.bandwidth_gbps);
  EXPECT_LT(fdr.bandwidth_gbps, edr.bandwidth_gbps);
  EXPECT_GT(qdr.latency_ns, fdr.latency_ns);
  EXPECT_GT(ipoib.latency_ns, 5 * qdr.latency_ns);  // kernel TCP stack
  EXPECT_LT(ipoib.bandwidth_gbps, qdr.bandwidth_gbps);
}

}  // namespace
}  // namespace hpres::net
