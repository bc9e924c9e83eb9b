// Promise/Future completion semantics (the iset/iget handle machinery) and
// sim::wait_any, the multiplexer behind the erasure Get's fetch machine and
// the one timed wait (an RPC attempt's deadline).
#include "sim/future.h"

#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster.h"

namespace hpres::sim {
namespace {

Task<void> fulfill_after(Simulator* sim, Promise<int> promise, SimDur d,
                         int value) {
  co_await sim->delay(d);
  promise.set_value(value);
}

Task<void> await_future(Simulator* sim, Future<int> future,
                        std::vector<std::pair<int, SimTime>>* log) {
  const int v = co_await future.wait();
  log->push_back({v, sim->now()});
}

TEST(Future, DeliversValueAtFulfillmentTime) {
  Simulator sim;
  Promise<int> p(sim);
  std::vector<std::pair<int, SimTime>> log;
  sim.spawn(await_future(&sim, p.get_future(), &log));
  sim.spawn(fulfill_after(&sim, p, 250, 7));
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].first, 7);
  EXPECT_EQ(log[0].second, 250);
}

TEST(Future, MultipleWaitersAllReceive) {
  Simulator sim;
  Promise<int> p(sim);
  std::vector<std::pair<int, SimTime>> log;
  sim.spawn(await_future(&sim, p.get_future(), &log));
  sim.spawn(await_future(&sim, p.get_future(), &log));
  sim.spawn(fulfill_after(&sim, p, 10, 5));
  sim.run();
  EXPECT_EQ(log.size(), 2u);
}

TEST(Future, WaitAfterFulfillmentIsImmediate) {
  Simulator sim;
  Promise<int> p(sim);
  p.set_value(3);
  std::vector<std::pair<int, SimTime>> log;
  sim.spawn(await_future(&sim, p.get_future(), &log));
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].second, 0);
}

TEST(Future, TryGetPollsWithoutSuspending) {
  Simulator sim;
  Promise<int> p(sim);
  Future<int> f = p.get_future();
  EXPECT_FALSE(f.ready());
  EXPECT_EQ(f.try_get(), nullptr);
  p.set_value(9);
  EXPECT_TRUE(f.ready());
  ASSERT_NE(f.try_get(), nullptr);
  EXPECT_EQ(*f.try_get(), 9);
}

TEST(Future, OutlivesPromise) {
  Simulator sim;
  Future<int> f;
  {
    Promise<int> p(sim);
    f = p.get_future();
    p.set_value(11);
  }  // promise destroyed
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(*f.try_get(), 11);
}

TEST(Future, DefaultConstructedIsInvalid) {
  const Future<int> f;
  EXPECT_FALSE(f.valid());
  EXPECT_FALSE(f.ready());
}

// --- Deadline form of wait_any ---------------------------------------------
// One future and `now + timeout`: the timed wait behind every RPC attempt.
// EventWaitFor covers the race between the shared state's Event and the
// deadline timer; FutureWaitFor covers the value side.

using TimedLog = std::vector<std::pair<std::optional<int>, SimTime>>;

/// Waits on `future` for at most `timeout`, then logs the value (nullopt on
/// timeout) and the wake time.
Task<void> timed_await(Simulator* sim, Future<int> future, SimDur timeout,
                       TimedLog* log) {
  const bool ready = co_await wait_any<int>(
      std::span<const Future<int>>(&future, 1), sim->now() + timeout);
  log->push_back({ready ? std::optional<int>(*future.try_get())
                        : std::nullopt,
                  sim->now()});
}

TEST(EventWaitFor, TimesOutAtExactDeadline) {
  Simulator sim;
  Promise<int> p(sim);  // never fulfilled
  TimedLog log;
  sim.spawn(timed_await(&sim, p.get_future(), 500, &log));
  sim.run();
  EXPECT_EQ(log, (TimedLog{{std::nullopt, 500}}));
}

TEST(EventWaitFor, SignaledBeforeDeadlineReturnsTrue) {
  Simulator sim;
  Promise<int> p(sim);
  TimedLog log;
  sim.spawn(timed_await(&sim, p.get_future(), 500, &log));
  sim.spawn(fulfill_after(&sim, p, 100, 7));
  sim.run();
  EXPECT_EQ(log, (TimedLog{{7, 100}}));
}

TEST(EventWaitFor, AlreadySetCompletesImmediately) {
  Simulator sim;
  Promise<int> p(sim);
  p.set_value(3);
  TimedLog log;
  sim.spawn(timed_await(&sim, p.get_future(), 500, &log));
  sim.run();
  EXPECT_EQ(log, (TimedLog{{3, 0}}));
  EXPECT_EQ(sim.events_executed(), 1u);  // the start: no timer is armed
}

TEST(EventWaitFor, SetAtExactDeadlineInstantWakesOnce) {
  // The deadline timer and the set() land at the same simulated instant;
  // whichever runs first must win exactly once (no double resume).
  Simulator sim;
  Promise<int> p(sim);
  TimedLog log;
  sim.spawn(timed_await(&sim, p.get_future(), 300, &log));
  sim.spawn(fulfill_after(&sim, p, 300, 1));
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].second, 300);
}

TEST(EventWaitFor, MixedTimedAndPlainWaiters) {
  Simulator sim;
  Promise<int> p(sim);
  std::vector<std::pair<int, SimTime>> plain_log;
  TimedLog timed_log;
  sim.spawn(await_future(&sim, p.get_future(), &plain_log));
  sim.spawn(timed_await(&sim, p.get_future(), 50, &timed_log));   // expires
  sim.spawn(timed_await(&sim, p.get_future(), 500, &timed_log));  // fires
  sim.spawn(fulfill_after(&sim, p, 200, 4));
  sim.run();
  EXPECT_EQ(plain_log, (std::vector<std::pair<int, SimTime>>{{4, 200}}));
  EXPECT_EQ(timed_log, (TimedLog{{std::nullopt, 50}, {4, 200}}));
}

TEST(FutureWaitFor, DeliversValueBeforeDeadline) {
  Simulator sim;
  Promise<int> p(sim);
  TimedLog log;
  sim.spawn(timed_await(&sim, p.get_future(), 1'000, &log));
  sim.spawn(fulfill_after(&sim, p, 250, 7));
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  ASSERT_TRUE(log[0].first.has_value());
  EXPECT_EQ(*log[0].first, 7);
  EXPECT_EQ(log[0].second, 250);
}

TEST(FutureWaitFor, NulloptAtExactDeadline) {
  Simulator sim;
  Promise<int> p(sim);
  TimedLog log;
  sim.spawn(timed_await(&sim, p.get_future(), 1'000, &log));
  sim.spawn(fulfill_after(&sim, p, 5'000, 7));  // too late
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_FALSE(log[0].first.has_value());
  EXPECT_EQ(log[0].second, 1'000);
}

TEST(FutureWaitFor, LateFulfillmentStillObservable) {
  Simulator sim;
  Promise<int> p(sim);
  Future<int> f = p.get_future();
  TimedLog log;
  sim.spawn(timed_await(&sim, f, 100, &log));
  sim.spawn(fulfill_after(&sim, p, 700, 42));
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_FALSE(log[0].first.has_value());
  ASSERT_TRUE(f.ready());  // the shared state caught the late value
  EXPECT_EQ(*f.try_get(), 42);
}

TEST(FutureWaitFor, ManyRacingWaitersStress) {
  // Dense race coverage around the deadline: fulfillment lands before, at,
  // and after each waiter's deadline, all at close-packed timestamps.
  Simulator sim;
  TimedLog log;
  std::vector<Promise<int>> promises;
  promises.reserve(64);
  for (int i = 0; i < 64; ++i) {
    promises.emplace_back(sim);
    const SimDur timeout = 10 + (i % 7);
    const SimDur fulfill = 8 + (i % 9);
    sim.spawn(timed_await(&sim, promises[static_cast<std::size_t>(i)]
                                    .get_future(),
                          timeout, &log));
    sim.spawn(fulfill_after(&sim, promises[static_cast<std::size_t>(i)],
                            fulfill, i));
  }
  sim.run();
  EXPECT_EQ(log.size(), 64u);
  for (const auto& [value, at] : log) {
    if (value.has_value()) {
      const int i = *value;
      EXPECT_LE(8 + (i % 9), 10 + (i % 7)) << "value delivered past deadline";
    }
  }
}

// --- wait_any ----------------------------------------------------------------

using WakeLog = std::vector<std::pair<bool, SimTime>>;

/// Waits once on `futures`, logs (result, time), then sleeps 50 ns and logs
/// again: a second, stray resumption would land inside that sleep.
Task<void> any_waiter(Simulator* sim, std::vector<Future<int>> futures,
                      SimTime deadline, WakeLog* log) {
  const bool ready = co_await wait_any<int>(futures, deadline);
  log->push_back({ready, sim->now()});
  co_await sim->delay(50);
  log->push_back({ready, sim->now()});
}

Task<void> fulfill_both_after(Simulator* sim, Promise<int> a, Promise<int> b,
                              SimDur d) {
  co_await sim->delay(d);
  a.set_value(1);
  b.set_value(2);
}

TEST(WaitAny, SimultaneousFulfillmentsWakeOnce) {
  Simulator sim;
  Promise<int> a(sim);
  Promise<int> b(sim);
  WakeLog log;
  // The invalid future is skipped.
  sim.spawn(any_waiter(&sim, {Future<int>{}, a.get_future(), b.get_future()},
                       Simulator::kNever, &log));
  sim.spawn(fulfill_both_after(&sim, a, b, 100));
  sim.run();
  EXPECT_EQ(log, (WakeLog{{true, 100}, {true, 150}}));
  // Two process starts, the fulfiller's delay, ONE wake, the waiter's sleep.
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(WaitAny, ReadyFutureReturnsWithoutSuspending) {
  Simulator sim;
  Promise<int> pending(sim);
  Promise<int> done(sim);
  done.set_value(4);
  WakeLog log;
  sim.spawn(any_waiter(&sim, {pending.get_future(), done.get_future()},
                       Simulator::kNever, &log));
  sim.run();
  EXPECT_EQ(log, (WakeLog{{true, 0}, {true, 50}}));
  EXPECT_EQ(sim.events_executed(), 2u);  // start + sleep: no wake event
}

TEST(WaitAny, NeverResolvingFutureNeverResumesTheMovedOnWaiter) {
  Simulator sim;
  Promise<int> never(sim);  // kept alive, never fulfilled
  Promise<int> late(sim);   // fulfilled long after the waiter moved on
  Promise<int> first(sim);
  WakeLog log;
  sim.spawn(any_waiter(
      &sim, {never.get_future(), late.get_future(), first.get_future()},
      Simulator::kNever, &log));
  sim.spawn(fulfill_after(&sim, first, 10, 1));
  sim.spawn(fulfill_after(&sim, late, 500, 2));
  sim.run();
  EXPECT_EQ(log, (WakeLog{{true, 10}, {true, 60}}));
  // Three starts, two fulfiller delays, one wake, one sleep: the late
  // fulfillment finds the shared waiter fired and schedules nothing.
  EXPECT_EQ(sim.events_executed(), 7u);
  EXPECT_FALSE(never.get_future().ready());
}

TEST(WaitAny, DeadlineFormTimesOut) {
  Simulator sim;
  Promise<int> never(sim);
  Promise<int> soon(sim);
  WakeLog timed_out;
  WakeLog served;
  sim.spawn(any_waiter(&sim, {never.get_future()}, 300, &timed_out));
  sim.spawn(any_waiter(&sim, {soon.get_future()}, 1'000, &served));
  sim.spawn(fulfill_after(&sim, soon, 120, 9));
  // Fulfilled first, the served waiter's deadline is disarmed: the run
  // ends at the last real event, not at 1'000.
  EXPECT_EQ(sim.run(), 350);
  EXPECT_EQ(timed_out, (WakeLog{{false, 300}, {false, 350}}));
  EXPECT_EQ(served, (WakeLog{{true, 120}, {true, 170}}));
  // Three starts; the timed-out waiter's expiry, wake and sleep; the
  // fulfiller's delay and the served waiter's wake and sleep. No deadline
  // costs an event of its own unless it expires.
  EXPECT_EQ(sim.events_executed(), 9u);
  EXPECT_TRUE(sim.idle());
}

Task<void> wait_then_exit(Simulator* sim, std::vector<Future<int>> futures,
                          WakeLog* log) {
  const bool ready = co_await wait_any<int>(futures, sim->now() + 1'000);
  log->push_back({ready, sim->now()});
}  // the frame, with the waiter in it, is freed here

TEST(WaitAny, LaterFulfillmentsNeverTouchTheFreedFrame) {
  // The waiter returns on the first of three futures and its frame is
  // destroyed; the other two are set afterwards. The waiter unlinked from
  // them on return, so their set() finds no link (under ASan, a stale one
  // would be a use after free).
  Simulator sim;
  Promise<int> first(sim);
  Promise<int> second(sim);
  Promise<int> third(sim);
  WakeLog log;
  sim.spawn(wait_then_exit(
      &sim, {first.get_future(), second.get_future(), third.get_future()},
      &log));
  sim.spawn(fulfill_after(&sim, first, 10, 1));
  sim.spawn(fulfill_after(&sim, second, 20, 2));
  sim.spawn(fulfill_after(&sim, third, 20, 3));
  EXPECT_EQ(sim.run(), 20);
  EXPECT_EQ(log, (WakeLog{{true, 10}}));
  EXPECT_TRUE(second.get_future().ready());
  EXPECT_TRUE(third.get_future().ready());
  EXPECT_TRUE(sim.idle());
}

TEST(WaitAny, WaitsOnMoreFuturesThanTheInlineLinks) {
  // Twelve pending futures overflow the eight inline links; the last one
  // to be registered still wakes the waiter, and the rest stay unlinked.
  Simulator sim;
  std::vector<Promise<int>> promises;
  std::vector<Future<int>> futures;
  for (int i = 0; i < 12; ++i) {
    promises.emplace_back(sim);
    futures.push_back(promises.back().get_future());
  }
  WakeLog log;
  sim.spawn(wait_then_exit(&sim, futures, &log));
  sim.spawn(fulfill_after(&sim, promises.back(), 30, 11));
  for (std::size_t i = 0; i + 1 < promises.size(); ++i) {
    sim.spawn(fulfill_after(&sim, promises[i], 40, static_cast<int>(i)));
  }
  sim.run();
  EXPECT_EQ(log, (WakeLog{{true, 30}}));
}

// --- Wake order on one set() ------------------------------------------------

using LabelLog = std::vector<std::string>;

Task<void> plain_waiter(Simulator* sim, Future<int> future, std::string label,
                        LabelLog* log) {
  co_await future.wait();
  log->push_back(label + "@" + std::to_string(sim->now()));
}

Task<void> timed_waiter(Simulator* sim, Future<int> future, SimDur timeout,
                        std::string label, LabelLog* log) {
  const bool fired = co_await wait_any<int>(
      std::span<const Future<int>>(&future, 1), sim->now() + timeout);
  log->push_back(label + (fired ? "@" : " expired@") +
                 std::to_string(sim->now()));
}

Task<void> any_waiter_labelled(Simulator* sim, Future<int> future,
                               std::string label, LabelLog* log) {
  co_await wait_any<int>(std::span<const Future<int>>(&future, 1));
  log->push_back(label + "@" + std::to_string(sim->now()));
}

TEST(WaitAny, OneSetWakesPlainWaitersThenTimedOnesInRegistrationOrder) {
  // Registration order: p1, t1, p2, a1, then a deadline wait that expires
  // first.
  // set() schedules the plain waiters, then the unfired timed waiters (a
  // wait_any waiter is one), each in FIFO order; the expired one is skipped.
  Simulator sim;
  Promise<int> p(sim);
  LabelLog log;
  sim.spawn(plain_waiter(&sim, p.get_future(), "p1", &log));
  sim.spawn(timed_waiter(&sim, p.get_future(), 1'000, "t1", &log));
  sim.spawn(plain_waiter(&sim, p.get_future(), "p2", &log));
  sim.spawn(any_waiter_labelled(&sim, p.get_future(), "a1", &log));
  sim.spawn(timed_waiter(&sim, p.get_future(), 50, "t2", &log));
  sim.spawn(fulfill_after(&sim, p, 200, 1));
  sim.run();
  EXPECT_EQ(log, (LabelLog{"t2 expired@50", "p1@200", "p2@200", "t1@200",
                           "a1@200"}));
}

TEST(WaitAny, CancelResolvedFetchWakesTheWaiter) {
  cluster::Cluster c(
      cluster::ClusterConfig{.num_servers = 1, .num_clients = 1});
  struct Body {
    static Task<void> cancel_at(Simulator* sim, kv::Client* client,
                                std::uint64_t rpc_id, SimDur at) {
      co_await sim->delay(at);
      client->cancel(rpc_id);
    }
    static Task<void> run(cluster::Cluster* cl, WakeLog* log) {
      kv::Client& client = cl->client(0);
      kv::Request req;
      req.verb = kv::Verb::kGet;
      req.key = "k";
      const Future<kv::Response> fetch =
          client.call(cl->server_nodes()[0], std::move(req));
      cl->server(0).fail();  // crash after send: no response ever comes
      cl->sim().spawn(cancel_at(&cl->sim(), &client,
                                client.last_call_id(), 1'000));
      const bool ready = co_await wait_any<kv::Response>(
          std::span<const Future<kv::Response>>(&fetch, 1));
      log->push_back({ready, cl->sim().now()});
      const kv::Response* resp = fetch.try_get();
      EXPECT_TRUE(resp != nullptr && resp->code == StatusCode::kCancelled);
    }
  };
  WakeLog log;
  c.start();
  c.sim().spawn(Body::run(&c, &log));
  c.run();
  EXPECT_EQ(log, (WakeLog{{true, 1'000}}));
}

}  // namespace
}  // namespace hpres::sim
