// Conservative shard-runtime semantics: window math, cross-shard delivery,
// horizons bounded by undrained posts, canonical merge order, termination,
// oracle equivalence, quiesce hooks at one shard, and fixed-shard-count
// determinism.
#include "sim/shard_runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <mutex>
#include <tuple>
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

// A burst of same-round messages on one lane, far more than any harness
// produces per window, must all arrive and still in FIFO order per source
// shard.
TEST(ShardRuntime, LaneOverflowPreservesAllMessagesInOrder)  {
  ShardRuntime rt(2, kLookahead);
  constexpr std::size_t kMessages = 1'000;
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

// A message still sitting in its lane when the horizons are published must
// bound the next window through its sender. Shard 0 posts to an idle shard
// 1 and sleeps for 100 lookaheads; shard 1 answers on arrival. If the
// horizon ignored the undrained post, the run would end with it in the lane
// (dropped) or shard 0 would run past the reply's due time (late).
TEST(ShardRuntime, UndrainedPostBoundsTheWindow) {
  constexpr SimTime kPostAt = 100;
  ShardRuntime rt(2, kLookahead);
  std::mutex mu;  // both shards log; the mutex keeps TSan exact
  std::vector<std::pair<std::size_t, SimTime>> log;
  const auto note = [&](std::size_t s) {
    const std::lock_guard<std::mutex> lock(mu);
    log.emplace_back(s, rt.shard(s).now());
  };
  rt.shard(0).spawn([](ShardRuntime* r, decltype(note)* noted) -> Task<void> {
    Simulator* self = &r->shard(0);
    co_await self->delay(kPostAt);
    r->post(0, 1, self->now() + kLookahead, [r, noted] {
      (*noted)(1);
      r->post(1, 0, r->shard(1).now() + kLookahead,
              [noted] { (*noted)(0); });
    });
    co_await self->delay(100 * kLookahead);
    (*noted)(0);
  }(&rt, &note));
  rt.run();
  const std::vector<std::pair<std::size_t, SimTime>> want{
      {1, kPostAt + kLookahead},
      {0, kPostAt + 2 * kLookahead},
      {0, kPostAt + 100 * kLookahead}};
  EXPECT_EQ(log, want);
}

// Shards 0-2 post to shard 3 over two consecutive windows, with equal due
// times inside each window. Shard 3 must run them in (due, source shard,
// FIFO) order whatever the thread interleaving, reproducibly, and every
// posted message must be counted once on each side.
TEST(ShardRuntime, CrossShardMergeOrderIsCanonical) {
  struct Entry {
    SimTime due;
    std::size_t from;
    int idx;  ///< post order on the source shard
    bool operator==(const Entry&) const = default;
  };
  const auto run = [] {
    ShardRuntime rt(4, kLookahead);
    std::vector<Entry> ran;  // only shard 3's thread appends
    std::vector<Entry> posted[3];
    struct Sender {
      static Task<void> run(ShardRuntime* r, std::size_t s,
                            std::vector<Entry>* sent,
                            std::vector<Entry>* ran) {
        Simulator* self = &r->shard(s);
        int idx = 0;
        const auto send = [&](SimTime due) {
          sent->push_back({due, s, idx});
          r->post(s, 3, due, [r, ran, due, s, i = idx] {
            EXPECT_EQ(r->shard(3).now(), due);
            ran->push_back({due, s, i});
          });
          ++idx;
        };
        const auto ss = static_cast<SimTime>(s);
        co_await self->delay(5);  // first window: [0, L)
        send(kLookahead + 5);     // equal across shards
        send(kLookahead + 50 - ss);
        send(kLookahead + 5);     // FIFO behind the first
        co_await self->delay(kLookahead);  // second window
        send(3 * kLookahead);
        send(3 * kLookahead + 7 * ss);
        send(3 * kLookahead);
      }
    };
    for (std::size_t s = 0; s < 3; ++s) {
      rt.shard(s).spawn(Sender::run(&rt, s, &posted[s], &ran));
    }
    rt.run();
    std::vector<Entry> want;
    for (const auto& p : posted) want.insert(want.end(), p.begin(), p.end());
    std::sort(want.begin(), want.end(), [](const Entry& a, const Entry& b) {
      return std::tie(a.due, a.from, a.idx) < std::tie(b.due, b.from, b.idx);
    });
    EXPECT_EQ(ran, want);
    const RuntimeProfile prof = rt.profile();
    std::uint64_t out = 0;
    std::uint64_t in = 0;
    for (const ShardProfile& sp : prof.per_shard) {
      out += sp.msgs_out;
      in += sp.msgs_in;
    }
    EXPECT_EQ(out, want.size());
    EXPECT_EQ(in, out);
    return ran;
  };
  const std::vector<Entry> first = run();
  EXPECT_EQ(first.size(), 18u);
  EXPECT_EQ(run(), first);
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
