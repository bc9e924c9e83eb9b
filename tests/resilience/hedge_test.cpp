// Hedged (late-binding) reads and load-aware read-set selection: the
// tracker's score ordering, the codec's preference-preserving read-set
// selection, a hedge racing a crashed primary, suppression under buffer
// pressure, and the correctness property that hedging never changes the
// bytes a Get returns.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "resilience/load_tracker.h"
#include "testing/fixtures.h"

namespace hpres::resilience {
namespace {

using hpres::testing::FiveNodeClusterTest;
using hpres::testing::run_sim;

TEST(NodeLoadTracker, OrdersSlotsByOwnerScore) {
  NodeLoadTracker tracker(5);
  // Server 2 is clearly loaded, server 4 clearly idle, the rest unknown.
  tracker.observe_rtt(2, 400'000, 12);
  tracker.observe_rtt(4, 5'000, 0);
  EXPECT_GT(tracker.score(2), tracker.score(4));
  EXPECT_DOUBLE_EQ(tracker.score(0), 1.0);  // unknown servers are neutral

  const std::vector<std::size_t> owners{0, 1, 2, 3, 4};  // slot i on server i
  std::vector<std::size_t> order{0, 1, 2, 3, 4};
  tracker.order_slots(order, owners, /*randomize_ties=*/false);
  // Unknown servers (neutral 1.0) rank ahead of anything with an observed
  // RTT; the loaded server sorts dead last; equal scores keep slot order
  // (stable sort).
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 3, 4, 2}));
  // The unrandomized ordering is a pure function of the observations.
  std::vector<std::size_t> again{0, 1, 2, 3, 4};
  tracker.order_slots(again, owners, false);
  EXPECT_EQ(order, again);
}

/// The ranking order_slots replaced: std::stable_sort by owner score, then
/// one pass of adjacent near-tie coin flips drawn from `rng`.
std::vector<std::size_t> reference_order(const NodeLoadTracker& tracker,
                                         std::vector<std::size_t> slots,
                                         const std::vector<std::size_t>& owners,
                                         Xoshiro256* rng) {
  const auto score = [&](std::size_t slot) {
    return tracker.score(owners[slot]);
  };
  std::stable_sort(slots.begin(), slots.end(),
                   [&](std::size_t a, std::size_t b) {
                     return score(a) < score(b);
                   });
  if (rng != nullptr) {
    for (std::size_t i = 0; i + 1 < slots.size(); ++i) {
      if (score(slots[i + 1]) <= score(slots[i]) * 1.05 &&
          rng->next_double() < 0.5) {
        std::swap(slots[i], slots[i + 1]);
      }
    }
  }
  return slots;
}

TEST(NodeLoadTracker, OrderSlotsMatchesStableSortReference) {
  Xoshiro256 gen(5);
  for (int trial = 0; trial < 300; ++trial) {
    // Up to 12 slots over 8 servers; observations drawn from few levels so
    // exact ties (shared owners, equal samples, unknown servers) and near
    // ties (RTTs 2% apart) are common.
    const std::size_t n = 1 + gen.next_below(12);
    NodeLoadTracker tracker(8, /*seed=*/static_cast<std::uint64_t>(trial));
    for (std::size_t server = 0; server < 8; ++server) {
      if (gen.next_below(4) == 0) continue;  // stays unknown (score 1.0)
      const SimDur rtt = 10'000 + static_cast<SimDur>(gen.next_below(3)) * 200;
      tracker.observe_rtt(server, rtt,
                          static_cast<std::uint32_t>(gen.next_below(2)));
    }
    std::vector<std::size_t> owners(n);
    std::vector<std::size_t> slots(n);
    for (std::size_t slot = 0; slot < n; ++slot) {
      owners[slot] = gen.next_below(8);
      slots[slot] = (slot + static_cast<std::size_t>(trial)) % n;
    }
    // The unrandomized ranking draws nothing.
    std::vector<std::size_t> ranked = slots;
    tracker.order_slots(ranked, owners, /*randomize_ties=*/false);
    EXPECT_EQ(ranked, reference_order(tracker, slots, owners, nullptr));

    // The randomized one flips the same coins: rank_slots is what
    // order_slots runs on the tracker's tie RNG, and both generators end
    // in the same state, so the draws matched one for one.
    Xoshiro256 mine(static_cast<std::uint64_t>(trial));
    Xoshiro256 theirs = mine;
    ranked = slots;
    rank_slots(
        ranked, [&](std::size_t slot) { return tracker.score(owners[slot]); },
        &mine);
    EXPECT_EQ(ranked, reference_order(tracker, slots, owners, &theirs));
    EXPECT_EQ(mine(), theirs());
  }
}

TEST(NodeLoadTracker, EwmaTracksQueueMovement) {
  NodeLoadTracker tracker(3);
  tracker.observe_rtt(1, 5'000, 10);
  const double warm = tracker.queue_estimate(1);
  EXPECT_DOUBLE_EQ(warm, 10.0);  // first sample seeds the EWMA directly
  for (int i = 0; i < 20; ++i) tracker.observe_rtt(1, 5'000, 0);
  EXPECT_LT(tracker.queue_estimate(1), 1.0);  // drains toward the new level
  EXPECT_EQ(tracker.total_samples(), 21u);
}

/// The slots of a selected read set, in read order.
std::vector<std::size_t> slots_of(const Result<ec::ReadSet>& set) {
  return {set->begin(), set->end()};
}

TEST(SelectReadSetOrdered, PreservesPreferenceOrder) {
  ec::RsVandermondeCodec codec(3, 2);
  ec::SlotMask available = codec.all_slots();
  const std::vector<std::size_t> preference{4, 2, 1, 0, 3};
  const Result<ec::ReadSet> chosen =
      codec.select(codec.data_mask(), available, preference);
  ASSERT_TRUE(chosen.ok()) << chosen.status();
  // RS-Vandermonde is MDS: the first k of the preference decode, and the
  // result keeps the caller's order (cheapest server first), unsorted.
  EXPECT_EQ(slots_of(chosen), (std::vector<std::size_t>{4, 2, 1}));

  available &= ~ec::slot_bit(4);
  const Result<ec::ReadSet> without4 =
      codec.select(codec.data_mask(), available, preference);
  ASSERT_TRUE(without4.ok());
  EXPECT_EQ(slots_of(without4), (std::vector<std::size_t>{2, 1, 0}));

  available = ec::slot_bit(0) | ec::slot_bit(3);  // only 2 of k=3 left
  EXPECT_FALSE(codec.select(codec.data_mask(), available, preference).ok());
}

TEST(SelectReadSetOrdered, PartialPreferenceFallsBackToNaturalOrder) {
  ec::RsVandermondeCodec codec(3, 2);
  // A preference mentioning fewer than k slots is topped up in slot order.
  const Result<ec::ReadSet> chosen = codec.select(
      codec.data_mask(), codec.all_slots(), std::vector<std::size_t>{3});
  ASSERT_TRUE(chosen.ok());
  EXPECT_EQ(slots_of(chosen), (std::vector<std::size_t>{3, 0, 1}));
}

class HedgeTest : public FiveNodeClusterTest {};

/// The slot a hedged Get of `key` fetches first: the head of the engine's
/// next load ranking, replayed on a copy of its tracker (same scores, same
/// tie-break RNG state) so the engine's own draw is untouched. On an MDS
/// code with every owner up, the read set is the first k of that ranking.
std::size_t first_selected_slot(const Engine& e, const kv::HashRing& ring,
                                const kv::Key& key) {
  NodeLoadTracker probe = *e.load_tracker();
  if (probe.total_samples() == 0) return 0;  // cold: natural order
  std::vector<std::size_t> slots(5);
  std::vector<std::size_t> owners(5);
  for (std::size_t slot = 0; slot < 5; ++slot) {
    slots[slot] = slot;
    owners[slot] = ring.slot_index(key, slot);
  }
  probe.order_slots(slots, owners, /*randomize_ties=*/true);
  return slots.front();
}

// The flagship scenario: a primary fragment owner crashes after the Get's
// fetches are sent but before it answers. Without a deadline policy that
// fetch would hang forever; the hedge completes the op (late binding: the
// first k arrivals win) and the straggler is cancelled — no failover loop,
// no degraded accounting, correct bytes.
TEST_F(HedgeTest, HedgeWinsOverCrashedPrimary) {
  HedgeParams hedge;
  hedge.delta = 1;  // hedge fires with the primaries (no delay)
  auto engine = make_engine(Design::kEraCeCd, 3, {}, hedge);
  cluster_.start();
  struct Body {
    static sim::Task<void> killer(sim::Simulator* sim, kv::Server* victim) {
      // 5 us: after the Get posts its fetches (~1 us of issue CPU), far
      // before an ~85 KB fragment response can arrive. The server dies
      // silently — membership keeps routing to it (gray crash).
      co_await sim->delay(5'000);
      victim->fail();
    }
    static sim::Task<void> run(Engine* e, cluster::Cluster* cl) {
      const Bytes original = make_pattern(256 * 1024, 11);
      const Status s =
          co_await e->set("hedged", make_shared_bytes(Bytes(original)));
      EXPECT_TRUE(s.ok()) << s;
      const std::size_t first = cl->ring().slot_index(
          "hedged", first_selected_slot(*e, cl->ring(), "hedged"));
      cl->sim().spawn(killer(&cl->sim(), &cl->server(first)));
      const Result<Bytes> got = co_await e->get("hedged");
      EXPECT_TRUE(got.ok()) << got.status();
      if (got.ok()) { EXPECT_EQ(*got, original); }
      const EngineStats& st = e->stats();
      EXPECT_EQ(st.hedges_fired, 1u);
      EXPECT_EQ(st.hedged_gets, 1u);
      EXPECT_EQ(st.hedge_wins, 1u);
      // The hedge resolved the op before anything looked like a failure:
      // no failover round, no degraded read, and the hung straggler was
      // cancelled rather than retried.
      EXPECT_EQ(st.failover_fetches, 0u);
      EXPECT_EQ(st.degraded_gets, 0u);
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get(), &cluster_);
}

// Hedges borrow spare ARPE buffers opportunistically: with the pool sized
// so the admitted op holds the only buffer, every hedge is suppressed and
// the Get completes exactly like an unhedged one — even with its first
// selected owner gray-slow, where a hedge would have helped.
TEST_F(HedgeTest, HedgeSuppressedWhenBufferPoolTight) {
  HedgeParams hedge;
  hedge.delta = 2;
  ArpeParams arpe;
  arpe.buffers = 1;
  auto engine = make_engine(Design::kEraCeCd, 3, arpe, hedge);
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* e, cluster::Cluster* cl) {
      const Bytes original = make_pattern(60'000, 4);
      (void)co_await e->set("tight", make_shared_bytes(Bytes(original)));
      const std::size_t first = cl->ring().slot_index(
          "tight", first_selected_slot(*e, cl->ring(), "tight"));
      cl->server(first).set_slowdown(20.0);
      // iget: ARPE admission holds the pool's only buffer for the op's
      // lifetime, so the hedge finds nothing to borrow. (A blocking get()
      // bypasses the window and would leave the pool free.)
      sim::Future<Result<Bytes>> fut = e->iget("tight");
      co_await e->wait_all();
      const Result<Bytes>* got = fut.try_get();
      EXPECT_NE(got, nullptr);
      if (got != nullptr) {
        EXPECT_TRUE(got->ok()) << got->status();
        if (got->ok()) { EXPECT_EQ(got->value(), original); }
      }
      EXPECT_EQ(e->stats().hedges_fired, 0u);
      EXPECT_GE(e->stats().hedges_suppressed, 1u);
      EXPECT_GE(e->arpe().stats().hedge_denials, 1u);
      cl->server(first).set_slowdown(1.0);
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get(), &cluster_);
}

// Property: hedging and load-aware selection change WHICH fragments are
// fetched and WHEN, never the bytes returned. Each seeded pass writes keys
// whose sizes exercise padding, sub-fragment tails and multi-MTU
// fragments, then reads every key through a plain engine (delta=0) and an
// aggressive hedged one (delta=2, zero delay) under one drawn fault: none,
// an owner down before the Get, an owner crashing after the fetches are
// sent (restarted with its store intact), a fragment missing on a live
// server, or 25% message loss. Every fetch runs under a 50 us deadline
// with retries, so no fault can hang a Get; both engines must return
// exactly the written bytes.
constexpr SimDur kCrashAfterSendNs = 3'000;  // after the fetches are posted

TEST_F(HedgeTest, HedgingNeverChangesReturnedValues) {
  kv::RpcPolicy policy;
  policy.timeout_ns = 50'000;
  policy.max_retries = 8;
  cluster_.set_rpc_policy(policy);
  auto plain = make_engine(Design::kEraCeCd);
  HedgeParams hedge;
  hedge.delta = 2;
  auto hedged = make_engine(Design::kEraCeCd, 3, {}, hedge);
  cluster_.start();
  struct Body {
    enum class Fault : std::uint8_t {
      kNone, kOwnerDown, kCrashAfterSend, kLiveMiss, kLoss, kCount
    };
    static sim::Task<void> crash(sim::Simulator* sim, kv::Server* victim) {
      co_await sim->delay(kCrashAfterSendNs);
      victim->fail();
    }

    static sim::Task<void> run(Engine* p, Engine* h, cluster::Cluster* cl) {
      constexpr std::size_t kKeys = 24;
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Xoshiro256 rng(seed);
        std::vector<Bytes> written;
        for (std::size_t i = 0; i < kKeys; ++i) {
          const kv::Key key = "prop-" + std::to_string(seed) + "-" +
                              std::to_string(i);
          written.push_back(make_pattern(1 + rng.next_below(32'000),
                                         seed * 1'000 + i));
          const Status s =
              co_await p->set(key, make_shared_bytes(Bytes(written.back())));
          EXPECT_TRUE(s.ok()) << key << ": " << s;
        }
        for (std::size_t i = 0; i < kKeys; ++i) {
          const kv::Key key = "prop-" + std::to_string(seed) + "-" +
                              std::to_string(i);
          const auto fault = static_cast<Fault>(
              rng.next_below(static_cast<std::uint64_t>(Fault::kCount)));
          const std::size_t slot = rng.next_below(5);
          const std::size_t owner = cl->ring().slot_index(key, slot);
          if (fault == Fault::kOwnerDown) cl->fail_server(owner);
          if (fault == Fault::kLiveMiss) {
            (void)cl->server(owner).store().erase(
                key, static_cast<std::uint8_t>(slot));
          }
          if (fault == Fault::kLoss) cl->fabric().set_loss(0.25, seed + i);
          for (Engine* e : {p, h}) {
            const SimTime t0 = cl->sim().now();
            if (fault == Fault::kCrashAfterSend) {
              cl->sim().spawn(crash(&cl->sim(), &cl->server(owner)));
            }
            const Result<Bytes> got = co_await e->get(key);
            EXPECT_TRUE(got.ok())
                << key << " (fault " << static_cast<int>(fault)
                << "): " << got.status();
            if (got.ok()) { EXPECT_EQ(*got, written[i]) << key; }
            if (fault == Fault::kCrashAfterSend) {
              const SimTime crash_at = t0 + kCrashAfterSendNs;
              if (cl->sim().now() < crash_at) {
                co_await cl->sim().delay(crash_at - cl->sim().now());
              }
              cl->server(owner).recover();
            }
          }
          if (fault == Fault::kLoss) cl->fabric().set_loss(0.0);
          if (fault == Fault::kOwnerDown) cl->recover_server(owner);
        }
      }
      EXPECT_EQ(p->stats().get_failures, 0u);
      EXPECT_EQ(h->stats().get_failures, 0u);
      // Every hedged Get really hedged: even with one owner down, 4 live
      // slots leave a spare beyond the 3 primaries, and a blocking get()
      // leaves the ARPE pool free for the hedge buffer.
      EXPECT_EQ(p->stats().hedged_gets, 0u);
      EXPECT_EQ(h->stats().hedged_gets, 4 * kKeys);
      // The faults really bit: fetches failed over and deadlines expired.
      EXPECT_GT(p->stats().failover_fetches, 0u);
      EXPECT_GT(cl->client(0).rpc_stats().timeouts, 0u);
    }
  };
  run_sim(cluster_.sim(), Body::run, plain.get(), hedged.get(), &cluster_);
}

// Degraded reads stay correct on the hedged path: with a fragment owner
// down before the Get starts, selection avoids it, the hedge rides along,
// and reconstruction returns the original bytes.
TEST_F(HedgeTest, HedgedDegradedReadReconstructs) {
  HedgeParams hedge;
  hedge.delta = 1;
  auto engine = make_engine(Design::kEraCeCd, 3, {}, hedge);
  cluster_.start();
  struct Body {
    static sim::Task<void> run(Engine* e, cluster::Cluster* cl) {
      const Bytes original = make_pattern(96'000, 7);
      (void)co_await e->set("degr", make_shared_bytes(Bytes(original)));
      cl->fail_server(cl->ring().slot_index("degr", 1));
      const Result<Bytes> got = co_await e->get("degr");
      EXPECT_TRUE(got.ok()) << got.status();
      if (got.ok()) { EXPECT_EQ(*got, original); }
      EXPECT_GE(e->stats().degraded_gets, 1u);
    }
  };
  run_sim(cluster_.sim(), Body::run, engine.get(), &cluster_);
}

}  // namespace
}  // namespace hpres::resilience
