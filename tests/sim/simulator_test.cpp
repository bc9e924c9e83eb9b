// Event-loop semantics: virtual time, ordering, determinism, task lifetime.
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"

namespace hpres::sim {
namespace {

Task<void> record_at(Simulator* sim, SimDur delay, std::vector<SimTime>* log) {
  co_await sim->delay(delay);
  log->push_back(sim->now());
}

TEST(Simulator, StartsAtTimeZero) {
  const Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, DelayAdvancesVirtualTime) {
  Simulator sim;
  std::vector<SimTime> log;
  sim.spawn(record_at(&sim, 1000, &log));
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], 1000);
  EXPECT_EQ(sim.now(), 1000);
}

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<SimTime> log;
  sim.spawn(record_at(&sim, 500, &log));
  sim.spawn(record_at(&sim, 100, &log));
  sim.spawn(record_at(&sim, 300, &log));
  sim.run();
  EXPECT_EQ(log, (std::vector<SimTime>{100, 300, 500}));
}

Task<void> record_label(Simulator* sim, SimDur delay, std::string label,
                        std::vector<std::string>* log) {
  co_await sim->delay(delay);
  log->push_back(std::move(label));
}

TEST(Simulator, SimultaneousEventsRunFifo) {
  Simulator sim;
  std::vector<std::string> log;
  sim.spawn(record_label(&sim, 100, "first", &log));
  sim.spawn(record_label(&sim, 100, "second", &log));
  sim.spawn(record_label(&sim, 100, "third", &log));
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"first", "second", "third"}));
}

Task<void> nested_child(Simulator* sim, std::vector<std::string>* log) {
  log->push_back("child-start");
  co_await sim->delay(10);
  log->push_back("child-end");
}

Task<void> nested_parent(Simulator* sim, std::vector<std::string>* log) {
  log->push_back("parent-start");
  co_await nested_child(sim, log);
  log->push_back("parent-end");
}

TEST(Simulator, AwaitingSubTaskRunsInline) {
  Simulator sim;
  std::vector<std::string> log;
  sim.spawn(nested_parent(&sim, &log));
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"parent-start", "child-start",
                                           "child-end", "parent-end"}));
  EXPECT_EQ(sim.now(), 10);
}

Task<int> produce_value(Simulator* sim) {
  co_await sim->delay(5);
  co_return 41 + 1;
}

Task<void> consume_value(Simulator* sim, int* out) {
  *out = co_await produce_value(sim);
}

TEST(Simulator, TaskReturnsValue) {
  Simulator sim;
  int result = 0;
  sim.spawn(consume_value(&sim, &result));
  sim.run();
  EXPECT_EQ(result, 42);
}

Task<void> spawner(Simulator* sim, std::vector<SimTime>* log) {
  co_await sim->delay(50);
  // Spawn from inside a running process; child starts at current time.
  sim->spawn(record_at(sim, 25, log));
}

TEST(Simulator, SpawnFromInsideProcess) {
  Simulator sim;
  std::vector<SimTime> log;
  sim.spawn(spawner(&sim, &log));
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], 75);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<SimTime> log;
  sim.spawn(record_at(&sim, 100, &log));
  sim.spawn(record_at(&sim, 10'000, &log));
  sim.run_until(5'000);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(sim.now(), 5'000);
  EXPECT_FALSE(sim.idle());
  sim.run();
  EXPECT_EQ(log.size(), 2u);
}

#ifdef NDEBUG
// Release builds keep the defensive clamp: a stale-timestamp delay never
// schedules into the past.
TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  std::vector<SimTime> log;
  sim.spawn(record_at(&sim, -50, &log));
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], 0);
}
#else
// Debug builds assert instead of silently clamping — a negative delay means
// the caller computed a deadline from a stale timestamp (the class of bug
// the clamp used to hide).
TEST(SimulatorDeathTest, NegativeDelayAssertsInDebug) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Simulator sim;
        sim.schedule(std::noop_coroutine(), -50);
      },
      "negative schedule\\(\\) delay");
}
#endif

Task<void> throw_after(Simulator* sim, SimDur delay) {
  co_await sim->delay(delay);
  throw std::runtime_error("escaped a detached process");
}

// A spawned process has no awaiter to receive its exception, so one that
// escapes is a bug in the process: the run stops instead of dropping it.
TEST(SimulatorDeathTest, DetachedExceptionTerminates) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Simulator sim;
        sim.spawn(throw_after(&sim, 5));
        sim.run();
      },
      "");
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  std::vector<SimTime> log;
  sim.spawn(record_at(&sim, 1, &log));
  sim.spawn(record_at(&sim, 2, &log));
  sim.run();
  EXPECT_GE(sim.events_executed(), 2u);
}

Task<void> record_seq(Simulator* sim, SimDur delay, std::size_t seq,
                      std::vector<std::pair<SimTime, std::size_t>>* log) {
  co_await sim->delay(delay);
  log->emplace_back(sim->now(), seq);
}

// Property: over many events with heavy timestamp collisions, execution is
// sorted by time, and equal-time events run in exact spawn (FIFO) order —
// the tie-break the whole replay/trace layer depends on.
TEST(Simulator, EqualTimeFifoProperty) {
  Simulator sim;
  std::vector<std::pair<SimTime, std::size_t>> log;
  constexpr std::size_t kEvents = 500;
  for (std::size_t i = 0; i < kEvents; ++i) {
    // Only 7 distinct timestamps for 500 events: every bucket collides.
    sim.spawn(record_seq(&sim, static_cast<SimDur>((i * 13) % 7), i, &log));
  }
  sim.run();
  ASSERT_EQ(log.size(), kEvents);
  std::vector<std::pair<SimTime, std::size_t>> expected = log;
  // Stable sort by time alone: within a timestamp, spawn order survives.
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  // The log must already be sorted by (time, spawn order) — i.e. equal to
  // its own stable sort by time, with seq strictly increasing per bucket.
  EXPECT_EQ(log, expected);
  for (std::size_t i = 1; i < log.size(); ++i) {
    if (log[i].first == log[i - 1].first) {
      EXPECT_LT(log[i - 1].second, log[i].second);
    }
  }
}

// Property: run_until(D) executes exactly the events due at or before D and
// leaves every later event queued and runnable — nothing is dropped.
TEST(Simulator, RunUntilLeavesPostDeadlineEventsQueued) {
  Simulator sim;
  std::vector<SimTime> log;
  constexpr SimTime kDeadline = 1'000;
  std::size_t due_before = 0;
  std::size_t total = 0;
  for (SimDur d = 100; d <= 2'000; d += 100) {
    sim.spawn(record_at(&sim, d, &log));
    ++total;
    if (d <= kDeadline) ++due_before;
  }
  sim.run_until(kDeadline);
  EXPECT_EQ(log.size(), due_before);
  EXPECT_EQ(sim.now(), kDeadline);
  EXPECT_FALSE(sim.idle());
  EXPECT_EQ(sim.next_event_time(), kDeadline + 100);
  sim.run();
  ASSERT_EQ(log.size(), total);
  EXPECT_TRUE(std::is_sorted(log.begin(), log.end()));
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.next_event_time(), Simulator::kNever);
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulator sim;
    std::vector<SimTime> log;
    for (int i = 0; i < 100; ++i) {
      sim.spawn(record_at(&sim, (i * 37) % 11, &log));
    }
    sim.run();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace hpres::sim
