// Event / Semaphore / Condition / Latch / WorkerPool semantics.
#include "sim/sync.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace hpres::sim {
namespace {

// --- Event -------------------------------------------------------------------

Task<void> wait_and_log(Simulator* sim, Event* ev, std::string label,
                        std::vector<std::string>* log) {
  co_await ev->wait();
  log->push_back(label + "@" + std::to_string(sim->now()));
}

Task<void> set_after(Simulator* sim, Event* ev, SimDur d) {
  co_await sim->delay(d);
  ev->set();
}

TEST(Event, BroadcastWakesAllWaiters) {
  Simulator sim;
  Event ev(sim);
  std::vector<std::string> log;
  sim.spawn(wait_and_log(&sim, &ev, "a", &log));
  sim.spawn(wait_and_log(&sim, &ev, "b", &log));
  sim.spawn(set_after(&sim, &ev, 100));
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"a@100", "b@100"}));
}

TEST(Event, WaitOnSetEventCompletesImmediately) {
  Simulator sim;
  Event ev(sim);
  ev.set();
  std::vector<std::string> log;
  sim.spawn(wait_and_log(&sim, &ev, "x", &log));
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"x@0"}));
}

TEST(Event, DoubleSetIsIdempotent) {
  Simulator sim;
  Event ev(sim);
  ev.set();
  ev.set();
  EXPECT_TRUE(ev.is_set());
}

// --- Semaphore ---------------------------------------------------------------

Task<void> hold_permit(Simulator* sim, Semaphore* sem, SimDur hold,
                       std::vector<SimTime>* acquired) {
  co_await sem->acquire();
  acquired->push_back(sim->now());
  co_await sim->delay(hold);
  sem->release();
}

TEST(Semaphore, SerializesBeyondPermits) {
  Simulator sim;
  Semaphore sem(sim, 2);
  std::vector<SimTime> acquired;
  for (int i = 0; i < 4; ++i) {
    sim.spawn(hold_permit(&sim, &sem, 100, &acquired));
  }
  sim.run();
  // Two run at t=0, the next two at t=100.
  EXPECT_EQ(acquired, (std::vector<SimTime>{0, 0, 100, 100}));
}

Task<void> acquire_and_log(Simulator* sim, Semaphore* sem, SimDur start,
                           std::string label, std::vector<std::string>* log) {
  co_await sim->delay(start);
  co_await sem->acquire();
  log->push_back(label + "@" + std::to_string(sim->now()));
  co_await sim->delay(5);
  sem->release();
}

Task<void> release_then_steal(Simulator* sim, Semaphore* sem) {
  co_await sim->delay(10);
  sem->release();  // wakes the parked waiter...
  EXPECT_TRUE(sem->try_acquire());  // ...but the permit is gone before it runs
  co_await sim->delay(10);
  sem->release();
}

TEST(Semaphore, WokenWaiterBeatenByTryAcquireParksAgainAtTail) {
  Simulator sim;
  Semaphore sem(sim, 0);
  std::vector<std::string> log;
  sim.spawn(acquire_and_log(&sim, &sem, 0, "first", &log));
  sim.spawn(release_then_steal(&sim, &sem));
  // Parks at t=10 after the release, before the woken waiter re-checks.
  sim.spawn(acquire_and_log(&sim, &sem, 10, "later", &log));
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"later@20", "first@25"}));
}

TEST(Semaphore, TryAcquireNonBlocking) {
  Simulator sim;
  Semaphore sem(sim, 1);
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_FALSE(sem.try_acquire());
  sem.release();
  EXPECT_TRUE(sem.try_acquire());
}

// --- Condition ---------------------------------------------------------------

Task<void> cond_wait_and_log(Simulator* sim, Condition* cond,
                             std::string label, std::vector<std::string>* log) {
  co_await cond->wait();
  log->push_back(label + "@" + std::to_string(sim->now()));
}

Task<void> notify_after(Simulator* sim, Condition* cond, SimDur d) {
  co_await sim->delay(d);
  cond->notify_all();
}

TEST(Condition, NotifyAllWakesParkedInFifoOrder) {
  Simulator sim;
  Condition cond(sim);
  std::vector<std::string> log;
  sim.spawn(cond_wait_and_log(&sim, &cond, "a", &log));
  sim.spawn(cond_wait_and_log(&sim, &cond, "b", &log));
  sim.spawn(cond_wait_and_log(&sim, &cond, "c", &log));
  sim.spawn(notify_after(&sim, &cond, 100));
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"a@100", "b@100", "c@100"}));
}

// --- Latch -------------------------------------------------------------------

Task<void> latch_waiter(Simulator* sim, Latch* latch, SimTime* completed_at) {
  co_await latch->wait();
  *completed_at = sim->now();
}

Task<void> latch_worker(Simulator* sim, Latch* latch, SimDur d) {
  co_await sim->delay(d);
  latch->count_down();
}

TEST(Latch, WaitsForAllParties) {
  Simulator sim;
  Latch latch(sim, 3);
  SimTime completed_at = -1;
  sim.spawn(latch_waiter(&sim, &latch, &completed_at));
  sim.spawn(latch_worker(&sim, &latch, 10));
  sim.spawn(latch_worker(&sim, &latch, 200));
  sim.spawn(latch_worker(&sim, &latch, 50));
  sim.run();
  EXPECT_EQ(completed_at, 200);  // slowest party gates completion
}

TEST(Latch, ZeroCountIsImmediatelyOpen) {
  Simulator sim;
  Latch latch(sim, 0);
  SimTime completed_at = -1;
  sim.spawn(latch_waiter(&sim, &latch, &completed_at));
  sim.run();
  EXPECT_EQ(completed_at, 0);
}

// --- WorkerPool ---------------------------------------------------------------

Task<void> submit_job(Simulator* sim, WorkerPool* pool, SimDur d,
                      std::vector<SimTime>* done) {
  co_await pool->execute(d);
  done->push_back(sim->now());
}

TEST(WorkerPool, ParallelismBoundedByWorkerCount) {
  Simulator sim;
  WorkerPool pool(sim, 2);
  std::vector<SimTime> done;
  for (int i = 0; i < 4; ++i) {
    sim.spawn(submit_job(&sim, &pool, 100, &done));
  }
  sim.run();
  // 4 jobs x 100ns on 2 workers: finish at 100,100,200,200.
  EXPECT_EQ(done, (std::vector<SimTime>{100, 100, 200, 200}));
  EXPECT_EQ(pool.busy_time(), 400);
}

TEST(WorkerPool, SingleWorkerSerializesFifo) {
  Simulator sim;
  WorkerPool pool(sim, 1);
  std::vector<SimTime> done;
  sim.spawn(submit_job(&sim, &pool, 10, &done));
  sim.spawn(submit_job(&sim, &pool, 20, &done));
  sim.spawn(submit_job(&sim, &pool, 30, &done));
  sim.run();
  EXPECT_EQ(done, (std::vector<SimTime>{10, 30, 60}));
}

}  // namespace
}  // namespace hpres::sim
