// ARPE window and buffer-pool semantics.
#include "resilience/arpe.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace hpres::resilience {
namespace {

sim::Task<void> op(sim::Simulator* sim, Arpe* arpe, SimDur hold,
                   std::vector<SimTime>* admitted) {
  arpe->submit();
  co_await arpe->admit();
  admitted->push_back(sim->now());
  co_await sim->delay(hold);
  arpe->complete();
}

TEST(Arpe, WindowBoundsInFlightOps) {
  sim::Simulator sim;
  Arpe arpe(sim, ArpeParams{.window = 2, .buffers = 16});
  std::vector<SimTime> admitted;
  for (int i = 0; i < 6; ++i) {
    sim.spawn(op(&sim, &arpe, 100, &admitted));
  }
  sim.run();
  // 6 ops through a window of 2: admission waves at t=0, 100, 200.
  EXPECT_EQ(admitted,
            (std::vector<SimTime>{0, 0, 100, 100, 200, 200}));
  EXPECT_EQ(arpe.stats().submitted, 6u);
  EXPECT_EQ(arpe.stats().admitted, 6u);
  EXPECT_EQ(arpe.stats().window_waits, 4u);
  EXPECT_EQ(arpe.in_flight(), 0u);
  EXPECT_EQ(arpe.pending(), 0u);
}

TEST(Arpe, BufferPoolCanBeTheBottleneck) {
  sim::Simulator sim;
  Arpe arpe(sim, ArpeParams{.window = 16, .buffers = 1});
  std::vector<SimTime> admitted;
  for (int i = 0; i < 3; ++i) {
    sim.spawn(op(&sim, &arpe, 50, &admitted));
  }
  sim.run();
  EXPECT_EQ(admitted, (std::vector<SimTime>{0, 50, 100}));
  EXPECT_EQ(arpe.buffer_stats().backpressure_waits, 2u);
  EXPECT_EQ(arpe.buffer_stats().high_water, 1u);
}

sim::Task<void> drain_then_mark(sim::Simulator* sim, Arpe* arpe,
                                SimTime* drained_at) {
  co_await sim->delay(1);  // let the ops enter the window first
  co_await arpe->drain();
  *drained_at = sim->now();
}

TEST(Arpe, DrainWaitsForAllInFlight) {
  sim::Simulator sim;
  Arpe arpe(sim, ArpeParams{.window = 8, .buffers = 8});
  std::vector<SimTime> admitted;
  sim.spawn(op(&sim, &arpe, 300, &admitted));
  sim.spawn(op(&sim, &arpe, 700, &admitted));
  SimTime drained_at = -1;
  sim.spawn(drain_then_mark(&sim, &arpe, &drained_at));
  sim.run();
  EXPECT_EQ(drained_at, 700);
}

TEST(Arpe, DrainOnIdleEngineReturnsImmediately) {
  sim::Simulator sim;
  Arpe arpe(sim, ArpeParams{});
  SimTime drained_at = -1;
  struct Helper {
    static sim::Task<void> run(sim::Simulator* s, Arpe* a, SimTime* t) {
      co_await a->drain();
      *t = s->now();
    }
  };
  sim.spawn(Helper::run(&sim, &arpe, &drained_at));
  sim.run();
  EXPECT_EQ(drained_at, 0);
}

sim::Task<void> commit_worker(sim::Simulator* sim, Arpe* arpe, SimDur start,
                              SimDur hold, std::vector<SimTime>* got) {
  co_await sim->delay(start);
  co_await arpe->acquire_commit_buffer();
  got->push_back(sim->now());
  co_await sim->delay(hold);
  arpe->release_commit_buffer();
}

sim::Task<void> hedge_probe(sim::Simulator* sim, Arpe* arpe, SimDur at,
                            bool* won, std::uint32_t* in_use_at_probe) {
  co_await sim->delay(at);
  *in_use_at_probe = arpe->buffers_in_use();
  *won = arpe->try_acquire_hedge_buffer();
  if (*won) arpe->release_hedge_buffer();
}

TEST(Arpe, HedgeNeverStealsBufferFromQueuedCommit) {
  // Regression for the group-commit / hedge priority inversion: an op holds
  // the pool's only buffer, two sealed-stripe commits queue behind it, and
  // a hedge probes exactly when the op releases. At that instant a buffer
  // is momentarily free while a commit is still queued — the no-steal rule
  // (BufferPool::try_acquire refuses whenever the pool has waiters) must
  // hand it to the commits, never the hedge.
  sim::Simulator sim;
  Arpe arpe(sim, ArpeParams{.window = 8, .buffers = 1});
  std::vector<SimTime> op_admitted;
  std::vector<SimTime> commits;
  bool hedge_won = true;
  std::uint32_t in_use_at_probe = 99;
  sim.spawn(op(&sim, &arpe, 100, &op_admitted));  // holds the buffer 0..100
  sim.spawn(commit_worker(&sim, &arpe, 1, 10, &commits));
  sim.spawn(commit_worker(&sim, &arpe, 2, 10, &commits));
  sim.spawn(hedge_probe(&sim, &arpe, 100, &hedge_won, &in_use_at_probe));
  sim.run();
  // The probe really saw a free buffer (op released at t=100 first) and
  // still lost it to the queued commits.
  EXPECT_EQ(in_use_at_probe, 0u);
  EXPECT_FALSE(hedge_won);
  EXPECT_EQ(commits, (std::vector<SimTime>{100, 110}));
  EXPECT_EQ(arpe.stats().commit_buffers, 2u);
  EXPECT_EQ(arpe.stats().commit_buffer_waits, 2u);
  EXPECT_EQ(arpe.stats().hedge_denials, 1u);
  EXPECT_EQ(arpe.stats().hedge_buffers, 0u);
}

TEST(Arpe, CommitBufferDoesNotBlockWhenPoolHasSpares) {
  sim::Simulator sim;
  Arpe arpe(sim, ArpeParams{.window = 2, .buffers = 4});
  std::vector<SimTime> admitted;
  std::vector<SimTime> commits;
  sim.spawn(op(&sim, &arpe, 100, &admitted));
  sim.spawn(op(&sim, &arpe, 100, &admitted));
  sim.spawn(commit_worker(&sim, &arpe, 1, 10, &commits));
  sim.run();
  EXPECT_EQ(commits, (std::vector<SimTime>{1}));  // spare buffer, no wait
  EXPECT_EQ(arpe.stats().commit_buffer_waits, 0u);
}

TEST(BufferPool, WatermarkExportsAsGauge) {
  // high_water is a watermark, not an event count: it must export with
  // gauge semantics (a rate over it is meaningless) while the true event
  // counters stay counters.
  sim::Simulator sim;
  BufferPool pool(sim, 4);
  ASSERT_TRUE(pool.try_acquire());
  obs::MetricsRegistry reg;
  pool.stats().register_with(reg, "client0", "pt0");
  reg.capture();
  const std::string out = reg.to_json();
  for (const char* record :
       {"{\"name\":\"bufpool.high_water\",\"component\":\"bufpool\","
        "\"node\":\"client0\",\"op\":\"pt0\",\"type\":\"gauge\"",
        "{\"name\":\"bufpool.acquisitions\",\"component\":\"bufpool\","
        "\"node\":\"client0\",\"op\":\"pt0\",\"type\":\"counter\"",
        "{\"name\":\"bufpool.backpressure_waits\",\"component\":"
        "\"bufpool\",\"node\":\"client0\",\"op\":\"pt0\","
        "\"type\":\"counter\""}) {
    EXPECT_NE(out.find(record), std::string::npos) << record << "\n" << out;
  }
  pool.release();
}

}  // namespace
}  // namespace hpres::resilience
