// Conservative shard-runtime semantics: window math, cross-shard delivery,
// termination, oracle equivalence, quiesce hooks at one shard, and
// fixed-shard-count determinism.
#include "sim/shard_runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

#include "common/units.h"

namespace hpres::sim {
namespace {

constexpr SimDur kLookahead = 1'000;

Task<void> record_at(Simulator* sim, SimDur delay, std::vector<SimTime>* log) {
  co_await sim->delay(delay);
  log->push_back(sim->now());
}

TEST(ShardRuntime, ZeroShardsNormalizesToOracle) {
  ShardRuntime rt(0, kLookahead);
  EXPECT_EQ(rt.num_shards(), 1u);
  EXPECT_FALSE(rt.parallel());
}

TEST(ShardRuntime, OracleModeRunsLikePlainSimulator) {
  ShardRuntime rt(1, kLookahead);
  std::vector<SimTime> log;
  rt.shard(0).spawn(record_at(&rt.shard(0), 500, &log));
  rt.shard(0).spawn(record_at(&rt.shard(0), 100, &log));
  const SimTime end = rt.run();
  EXPECT_EQ(log, (std::vector<SimTime>{100, 500}));
  EXPECT_EQ(end, 500);
  EXPECT_EQ(rt.rounds(), 0u);  // oracle never takes the barrier path
}

Task<void> tag_at(Simulator* sim, SimDur delay, int tag,
                  std::vector<std::pair<SimTime, int>>* log) {
  co_await sim->delay(delay);
  log->emplace_back(sim->now(), tag);
}

constexpr int kHookTag = -1;  ///< log tag of a hook action

// One shard runs the same quiesce-hook protocol as a parallel run: a hook
// action applies at its due time before any event at that instant, the
// window cap it returns never reorders events, and run() still returns the
// last executed event's time (the clock never jumps to a cap).
TEST(ShardRuntime, OneShardRunsHooksBetweenCappedWindows) {
  const auto run = [](bool with_hook) {
    ShardRuntime rt(1, kLookahead);
    Simulator& sim = rt.shard(0);
    std::vector<std::pair<SimTime, int>> log;
    for (int i = 0; i < 3; ++i) sim.spawn(tag_at(&sim, 300, i, &log));
    sim.spawn(tag_at(&sim, 100, 3, &log));
    sim.spawn(tag_at(&sim, 700, 4, &log));
    // Actions at 300 (an instant with events) and 1'000 (past the last
    // event, so it is flushed at quiescence).
    std::vector<SimTime> due{300, 1'000};
    std::size_t next = 0;
    if (with_hook) {
      rt.add_quiesce_hook([&](SimTime min_next) {
        while (next < due.size() &&
               (min_next == Simulator::kNever || due[next] <= min_next)) {
          log.emplace_back(due[next++], kHookTag);
        }
        return next < due.size() ? due[next] : Simulator::kNever;
      });
    }
    const SimTime end = rt.run();
    EXPECT_EQ(rt.rounds(), 0u);  // no barriers with one shard
    return std::pair{log, end};
  };
  const auto [hooked, hooked_end] = run(true);
  const auto [plain, plain_end] = run(false);
  const std::vector<std::pair<SimTime, int>> want{
      {100, 3}, {300, kHookTag}, {300, 0}, {300, 1},
      {300, 2}, {700, 4},        {1'000, kHookTag}};
  EXPECT_EQ(hooked, want);
  std::vector<std::pair<SimTime, int>> events_only;
  for (const auto& entry : hooked) {
    if (entry.second != kHookTag) events_only.push_back(entry);
  }
  EXPECT_EQ(events_only, plain);
  EXPECT_EQ(hooked_end, 700);
  EXPECT_EQ(plain_end, 700);
}

TEST(ShardRuntime, RunIsRepeatable) {
  ShardRuntime rt(2, kLookahead);
  std::vector<SimTime> log;
  rt.shard(0).spawn(record_at(&rt.shard(0), 100, &log));
  rt.run();
  ASSERT_EQ(log.size(), 1u);
  // Second batch after quiescence — the harness "spawn, run, spawn, run"
  // pattern (preload then measured pass).
  rt.shard(1).spawn(record_at(&rt.shard(1), 50, &log));
  rt.run();
  EXPECT_EQ(log.size(), 2u);
}

// A message posted with the lookahead contract lands on the destination
// shard at exactly its due time.
TEST(ShardRuntime, CrossShardPostRunsAtDueTime) {
  ShardRuntime rt(2, kLookahead);
  std::vector<SimTime> log;
  std::atomic<SimTime> delivered_at{-1};
  // Shard 0 runs an event at t=100 that posts to shard 1 due t=100+L.
  rt.shard(0).spawn([](ShardRuntime* r, std::vector<SimTime>* lg,
                       std::atomic<SimTime>* at) -> Task<void> {
    Simulator* self = &r->shard(0);
    co_await self->delay(100);
    lg->push_back(self->now());
    r->post(0, 1, self->now() + kLookahead, [r, at] {
      at->store(r->shard(1).now(), std::memory_order_relaxed);
    });
  }(&rt, &log, &delivered_at));
  rt.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], 100);
  EXPECT_EQ(delivered_at.load(std::memory_order_relaxed), 100 + kLookahead);
}

// Ping-pong across shards: each hop schedules the next one lookahead out.
// Exercises repeated window rounds, both lane directions, and termination
// with work still flowing right up to the end.
TEST(ShardRuntime, PingPongAcrossShards) {
  ShardRuntime rt(2, kLookahead);
  constexpr int kHops = 32;
  std::vector<std::pair<std::size_t, SimTime>> hops;
  std::mutex mu;  // hops alternate shards; the mutex keeps TSan exact
  // self-referential hop closure: posts the next hop until kHops.
  struct Bouncer {
    ShardRuntime* rt;
    std::vector<std::pair<std::size_t, SimTime>>* hops;
    std::mutex* mu;
    void hop(std::size_t at_shard, int remaining) {
      {
        const std::lock_guard<std::mutex> lock(*mu);
        hops->emplace_back(at_shard, rt->shard(at_shard).now());
      }
      if (remaining == 0) return;
      const std::size_t next = 1 - at_shard;
      rt->post(at_shard, next, rt->shard(at_shard).now() + kLookahead,
               [this, next, remaining] { hop(next, remaining - 1); });
    }
  };
  Bouncer b{&rt, &hops, &mu};
  rt.shard(0).spawn([](Bouncer* bp) -> Task<void> {
    bp->hop(0, kHops);
    co_return;
  }(&b));
  rt.run();
  ASSERT_EQ(hops.size(), static_cast<std::size_t>(kHops) + 1);
  for (std::size_t i = 0; i < hops.size(); ++i) {
    EXPECT_EQ(hops[i].first, i % 2) << "hop " << i;
    EXPECT_EQ(hops[i].second, static_cast<SimTime>(i) * kLookahead)
        << "hop " << i;
  }
  EXPECT_GT(rt.rounds(), 0u);
}

// Lane overflow: more same-round messages than the SPSC ring holds must all
// arrive (the spill vector) and still in FIFO order per source shard.
TEST(ShardRuntime, LaneOverflowPreservesAllMessagesInOrder)  {
  ShardRuntime rt(2, kLookahead);
  constexpr std::size_t kMessages = 1'000;  // > kLaneCapacity
  std::vector<std::size_t> order;
  rt.shard(0).spawn([](ShardRuntime* r,
                       std::vector<std::size_t>* out) -> Task<void> {
    co_await r->shard(0).delay(10);
    const SimTime due = r->shard(0).now() + kLookahead;
    for (std::size_t i = 0; i < kMessages; ++i) {
      r->post(0, 1, due, [out, i] { out->push_back(i); });
    }
  }(&rt, &order));
  rt.run();
  ASSERT_EQ(order.size(), kMessages);
  for (std::size_t i = 0; i < kMessages; ++i) {
    EXPECT_EQ(order[i], i);
    if (order[i] != i) break;
  }
}

// Fixed (program, shard count) => bit-identical execution order, regardless
// of thread scheduling. Runs the ping-pong twice and compares transcripts.
TEST(ShardRuntime, DeterministicForFixedShardCount) {
  auto transcript = [] {
    ShardRuntime rt(4, kLookahead);
    std::vector<std::vector<SimTime>> logs(4);
    for (std::size_t s = 0; s < 4; ++s) {
      for (int i = 0; i < 50; ++i) {
        rt.shard(s).spawn(
            record_at(&rt.shard(s), (i * 37 + static_cast<int>(s) * 11) % 23,
                      &logs[s]));
      }
    }
    rt.run();
    return logs;
  };
  EXPECT_EQ(transcript(), transcript());
}

// Quiescence time: every shard's clock ends on the same final window, so
// harness makespans read the same value from any shard.
TEST(ShardRuntime, ShardsAgreeOnFinalTime) {
  ShardRuntime rt(3, kLookahead);
  std::vector<SimTime> log;
  rt.shard(1).spawn(record_at(&rt.shard(1), 12'345, &log));
  rt.run();
  EXPECT_EQ(rt.shard(0).now(), rt.shard(1).now());
  EXPECT_EQ(rt.shard(1).now(), rt.shard(2).now());
}

}  // namespace
}  // namespace hpres::sim
