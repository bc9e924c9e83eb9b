// Event-loop semantics: virtual time, ordering, determinism, task lifetime.
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <cstdint>
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

// --- Cancellable timers ----------------------------------------------------

using Log = std::vector<std::string>;

/// Logs `label@now`, plus " expired" once `timer` has run out.
Task<void> note(Simulator* sim, std::string label, const Timer* timer,
                Log* log) {
  log->push_back(label + "@" + std::to_string(sim->now()) +
                 (timer->expired() ? " expired" : ""));
  co_return;
}

/// Arms `timer` to run note(label) `delay` from now.
void arm_note(Simulator& sim, Timer& timer, SimDur delay, std::string label,
              Log* log) {
  timer.wake(note(&sim, std::move(label), &timer, log).detach());
  sim.arm(&timer, delay);
}

TEST(Timer, TiesWithQueuedEventsBySequence) {
  // The expiry takes the timer's (at, seq) slot between e1 and e2; the
  // handle it schedules then runs after e2, as a delay() sleeper's would.
  Simulator sim;
  Timer timer;
  Log log;
  sim.schedule(note(&sim, "e1", &timer, &log).detach(), 100);
  arm_note(sim, timer, 100, "timer", &log);
  sim.schedule(note(&sim, "e2", &timer, &log).detach(), 100);
  sim.run();
  EXPECT_EQ(log, (Log{"e1@100", "e2@100 expired", "timer@100 expired"}));
  EXPECT_EQ(sim.events_executed(), 4u);  // e1, the expiry, e2, the handle
}

TEST(Timer, DisarmHeadMiddleAndTail) {
  // Armed in deadline order, heap slot i holds timer i: disarming 6, 3
  // and then 0 erases the last leaf, a middle node and the head.
  Simulator sim;
  std::vector<Timer> timers(7);
  Log log;
  for (std::size_t i = 0; i < timers.size(); ++i) {
    const bool cancelled = i == 0 || i == 3 || i == 6;
    if (cancelled) {
      timers[i].wake(std::noop_coroutine());
      sim.arm(&timers[i], static_cast<SimDur>(100 * (i + 1)));
    } else {
      arm_note(sim, timers[i], static_cast<SimDur>(100 * (i + 1)),
               "t" + std::to_string(i), &log);
    }
  }
  for (const std::size_t i : {6u, 3u, 0u}) sim.disarm(&timers[i]);
  sim.disarm(&timers[3]);  // disarming twice is a no-op
  EXPECT_EQ(sim.armed_timers(), 4u);
  EXPECT_EQ(sim.next_event_time(), 200);
  sim.run();
  EXPECT_EQ(log, (Log{"t1@200 expired", "t2@300 expired", "t4@500 expired",
                      "t5@600 expired"}));
  EXPECT_EQ(sim.now(), 600);  // the cancelled tail at 700 left no trace
  EXPECT_FALSE(timers[6].expired());
}

TEST(Timer, DisarmKeepsTheHeapOrdered) {
  // Property: after arbitrary arms and disarms, the survivors expire in
  // (deadline, arm order), and every cancelled timer stays silent.
  Simulator sim;
  constexpr std::size_t kTimers = 200;
  std::vector<Timer> timers(kTimers);
  Log log;
  std::vector<std::pair<SimTime, std::size_t>> survivors;
  std::uint64_t state = 12345;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  std::vector<bool> cancel(kTimers);
  for (std::size_t i = 0; i < kTimers; ++i) {
    const auto delay = static_cast<SimDur>(next() % 50);  // many ties
    cancel[i] = next() % 2 == 0;
    if (cancel[i]) {
      timers[i].wake(std::noop_coroutine());
      sim.arm(&timers[i], delay);
    } else {
      arm_note(sim, timers[i], delay, std::to_string(i), &log);
      survivors.emplace_back(delay, i);
    }
  }
  for (std::size_t i = 0; i < kTimers; ++i) {
    if (cancel[i]) sim.disarm(&timers[i]);
  }
  sim.run();
  std::stable_sort(survivors.begin(), survivors.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  Log expected;
  for (const auto& [at, i] : survivors) {
    expected.push_back(std::to_string(i) + "@" + std::to_string(at) +
                       " expired");
  }
  EXPECT_EQ(log, expected);
}

Task<void> rearm_against_fixed_due(Simulator* sim, std::vector<Timer>* timers,
                                   Log* log) {
  // A long deadline first, then re-arms against one absolute due time with
  // a shrinking duration (the hedged Get loop), then a short one.
  arm_note(*sim, (*timers)[0], 150, "long", log);
  co_await sim->delay(10);
  arm_note(*sim, (*timers)[1], 100 - sim->now(), "due/a", log);
  co_await sim->delay(10);
  arm_note(*sim, (*timers)[2], 100 - sim->now(), "due/b", log);
  co_await sim->delay(10);
  arm_note(*sim, (*timers)[3], 40, "short", log);
}

TEST(Timer, OutOfDurationOrderArmsFireInDeadlineOrder) {
  Simulator sim;
  std::vector<Timer> timers(4);
  Log log;
  sim.spawn(rearm_against_fixed_due(&sim, &timers, &log));
  sim.run();
  EXPECT_EQ(log, (Log{"short@70 expired", "due/a@100 expired",
                      "due/b@100 expired", "long@150 expired"}));
}

TEST(Timer, NextEventTimeAndIdleSeeAnArmedTimer) {
  Simulator sim;
  Timer timer;
  timer.wake(std::noop_coroutine());
  sim.arm(&timer, 500);
  EXPECT_FALSE(sim.idle());  // a deadline alone keeps the loop live
  EXPECT_EQ(sim.next_event_time(), 500);
  sim.schedule(std::noop_coroutine(), 800);
  EXPECT_EQ(sim.next_event_time(), 500);
  sim.disarm(&timer);
  EXPECT_EQ(sim.next_event_time(), 800);
  sim.run();
  EXPECT_TRUE(sim.idle());
  sim.arm(&timer, 100);  // a disarmed timer can be armed again
  EXPECT_EQ(sim.next_event_time(), 900);
  sim.run();
  EXPECT_TRUE(timer.expired());
  EXPECT_EQ(sim.next_event_time(), Simulator::kNever);
}

TEST(Timer, RunBoundsTreatATimerLikeAnEvent) {
  Simulator sim;
  Timer timer;
  timer.wake(std::noop_coroutine());
  sim.arm(&timer, 1'000);
  EXPECT_EQ(sim.run(1'000), 0);  // strict: a timer at the bound stays armed
  EXPECT_TRUE(timer.armed());
  EXPECT_EQ(sim.run_window(1'000), 1'000);  // strict, then the clock moves
  EXPECT_TRUE(timer.armed());
  EXPECT_EQ(sim.run_until(1'000), 1'000);  // inclusive: the timer expires
  EXPECT_TRUE(timer.expired());
  EXPECT_TRUE(sim.idle());  // and the handle it scheduled ran too
  EXPECT_EQ(sim.events_executed(), 2u);
}

// --- Ready queue and callbacks --------------------------------------------

Task<void> log_label(Simulator* sim, std::string label, Log* log) {
  log->push_back(label + "@" + std::to_string(sim->now()));
  co_return;
}

/// Queues log_label(label) `delay` from now.
void queue_label(Simulator& sim, SimDur delay, std::string label, Log* log) {
  sim.schedule(log_label(&sim, std::move(label), log).detach(), delay);
}

Task<void> log_then_queue_now(Simulator* sim, Log* log) {
  log->push_back("first@" + std::to_string(sim->now()));
  queue_label(*sim, 0, "z1", log);
  queue_label(*sim, 0, "z2", log);
  co_return;
}

TEST(ReadyQueue, HeapEventDueNowRunsBeforeLaterDelayZeroEvents) {
  // "heap" was queued at 100 before "first" ran and queued z1 and z2 at
  // delay 0, so its sequence number is lower: it runs first.
  Simulator sim;
  Log log;
  sim.schedule(log_then_queue_now(&sim, &log).detach(), 100);
  queue_label(sim, 100, "heap", &log);
  sim.run();
  EXPECT_EQ(log, (Log{"first@100", "heap@100", "z1@100", "z2@100"}));
}

TEST(ReadyQueue, ZeroDelayTimerExpiresBetweenZeroDelayEvents) {
  Simulator sim;
  Timer timer;
  Log log;
  sim.schedule(note(&sim, "a", &timer, &log).detach(), 0);
  arm_note(sim, timer, 0, "timer", &log);
  sim.schedule(note(&sim, "b", &timer, &log).detach(), 0);
  EXPECT_EQ(sim.next_event_time(), 0);
  sim.run();
  // The expiry takes its slot between a and b; its handle runs after b.
  EXPECT_EQ(log, (Log{"a@0", "b@0 expired", "timer@0 expired"}));
  EXPECT_EQ(sim.events_executed(), 4u);
}

/// A plain event that logs its label each time it runs.
struct LabelCallback : Callback {
  LabelCallback(Simulator* s, std::string l, Log* g)
      : Callback{&fire}, sim(s), label(std::move(l)), log(g) {}

  static void fire(Callback* cb) {
    auto* self = static_cast<LabelCallback*>(cb);
    self->log->push_back(self->label + "@" +
                         std::to_string(self->sim->now()));
  }

  Simulator* sim;
  std::string label;
  Log* log;
};

TEST(ReadyQueue, CallbacksAndCoroutinesInterleaveBySequence) {
  Simulator sim;
  Log log;
  LabelCallback k1(&sim, "k1", &log);
  LabelCallback k2(&sim, "k2", &log);
  queue_label(sim, 0, "c1", &log);
  sim.schedule(&k1, 0);
  queue_label(sim, 100, "c2", &log);
  sim.schedule(&k2, 100);
  queue_label(sim, 0, "c3", &log);
  sim.schedule(&k1, 100);  // a record may run again once it has run
  sim.run();
  EXPECT_EQ(log, (Log{"c1@0", "k1@0", "c3@0", "c2@100", "k2@100", "k1@100"}));
  EXPECT_EQ(sim.events_executed(), 6u);
}

TEST(ReadyQueue, NextEventTimeAndIdleSeeReadyOnlyWork) {
  Simulator sim;
  EXPECT_EQ(sim.run_until(300), 300);
  sim.schedule(std::noop_coroutine(), 0);
  EXPECT_FALSE(sim.idle());
  EXPECT_EQ(sim.next_event_time(), 300);
  sim.schedule(std::noop_coroutine(), 200);  // the heap's top is later
  EXPECT_EQ(sim.next_event_time(), 300);
  EXPECT_EQ(sim.run(sim.now()), 300);  // strict bound: nothing due runs
  EXPECT_EQ(sim.next_event_time(), 300);
  EXPECT_EQ(sim.run(sim.now() + 1), 300);
  EXPECT_EQ(sim.next_event_time(), 500);
  sim.run();
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.next_event_time(), Simulator::kNever);
}

Task<void> chain_link(Simulator* sim, int left, Log* log) {
  log->push_back("link" + std::to_string(left) + "@" +
                 std::to_string(sim->now()));
  if (left > 0) sim->spawn(chain_link(sim, left - 1, log));
  co_return;
}

/// At 10: a chain of three delay-0 spawns; at 100: one last event.
Task<void> chain_then_sleep(Simulator* sim, Log* log) {
  co_await sim->delay(10);
  sim->spawn(chain_link(sim, 2, log));
  co_await sim->delay(90);
  log->push_back("end@" + std::to_string(sim->now()));
}

TEST(ReadyQueue, RunBoundsLeaveNothingReadyWhenTheClockAdvances) {
  enum class Mode { kRun, kRunUntil, kRunWindow };
  for (const Mode mode : {Mode::kRun, Mode::kRunUntil, Mode::kRunWindow}) {
    Simulator sim;
    Log log;
    sim.spawn(chain_then_sleep(&sim, &log));
    switch (mode) {
      case Mode::kRun:
        EXPECT_EQ(sim.run(50), 10);  // the clock stays at the last event
        break;
      case Mode::kRunUntil:
        EXPECT_EQ(sim.run_until(50), 50);
        break;
      case Mode::kRunWindow:
        EXPECT_EQ(sim.run_window(50), 50);
        break;
    }
    // The whole chain ran at 10; only the heap event at 100 is left.
    EXPECT_EQ(log, (Log{"link2@10", "link1@10", "link0@10"}));
    EXPECT_EQ(sim.next_event_time(), 100);
    sim.run();
    EXPECT_EQ(log.back(), "end@100");
  }
}

Task<void> spawn_at_now_then_queue(Simulator* sim, Log* log) {
  log->push_back("x@" + std::to_string(sim->now()));
  sim->spawn_at(sim->now(), log_label(sim, "spawned", log));
  queue_label(*sim, 0, "z", log);
  co_return;
}

TEST(ReadyQueue, SpawnAtNowRunsAfterEventsAlreadyQueuedAtNow) {
  Simulator sim;
  Log log;
  queue_label(sim, 0, "ready", &log);
  sim.schedule(spawn_at_now_then_queue(&sim, &log).detach(), 100);
  queue_label(sim, 100, "y", &log);
  sim.spawn_at(0, log_label(&sim, "at0", &log));
  sim.run();
  EXPECT_EQ(log, (Log{"ready@0", "at0@0", "x@100", "y@100", "spawned@100",
                      "z@100"}));
}

}  // namespace
}  // namespace hpres::sim
