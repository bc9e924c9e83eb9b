// Waiting on a simulator primitive allocates nothing: a parked coroutine's
// wait-list node lives in its own suspended frame. This file replaces the
// global operator new with a counting one, so it builds as its own test
// executable (test_sim_alloc) and the counter reaches no other suite.
#include <cstddef>
#include <cstdlib>
#include <new>
#include <optional>

#include <gtest/gtest.h>

#include "sim/future.h"
#include "sim/sync.h"

namespace {
std::size_t g_allocations = 0;

void* counted_malloc(std::size_t size) noexcept {
  ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace hpres::sim {
namespace {

/// Keeps `object` observable so the optimizer cannot drop its construction
/// (and with it the allocations under test).
template <typename T>
void escape(T& object) {
  asm volatile("" : : "g"(&object) : "memory");
}

/// Heap allocations made while constructing a T from `args` (the object is
/// destroyed afterwards; frees are not counted).
template <typename T, typename... Args>
std::size_t construct_allocations(Args&... args) {
  const std::size_t before = g_allocations;
  std::optional<T> object;
  object.emplace(args...);
  escape(object);
  return g_allocations - before;
}

TEST(SimAlloc, ConstructingPrimitivesAllocatesNothing) {
  Simulator sim;
  std::uint32_t count = 3;
  EXPECT_EQ(construct_allocations<Event>(sim), 0u);
  EXPECT_EQ(construct_allocations<Latch>(sim, count), 0u);
  EXPECT_EQ(construct_allocations<Semaphore>(sim, count), 0u);
  EXPECT_EQ(construct_allocations<Condition>(sim), 0u);
  // A Promise owns one shared state; its Event adds nothing.
  EXPECT_EQ(construct_allocations<Promise<int>>(sim), 1u);
}

Task<void> wait_on(Event* ev) { co_await ev->wait(); }

TEST(SimAlloc, SetWakingParkedWaitersAllocatesNothing) {
  Simulator sim;
  // Round 0 is the warm-up: it grows the event queue to its capacity.
  for (int round = 0; round < 2; ++round) {
    Event ev(sim);
    for (int i = 0; i < 8; ++i) sim.spawn(wait_on(&ev));
    sim.run();  // all eight park
    const std::size_t before = g_allocations;
    ev.set();
    sim.run();  // all eight resume and finish
    if (round == 1) {
      EXPECT_EQ(g_allocations - before, 0u);
    }
  }
}

Task<void> acquire_once(Semaphore* sem, bool* acquired) {
  co_await sem->acquire();
  *acquired = true;
}

TEST(SimAlloc, SemaphoreHandoffAllocatesNothing) {
  Simulator sim;
  Semaphore sem(sim, 1);
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(sem.try_acquire());
    bool acquired = false;
    sim.spawn(acquire_once(&sem, &acquired));
    sim.run();  // parks: the permit is held
    ASSERT_FALSE(acquired);
    const std::size_t before = g_allocations;
    sem.release();
    sim.run();  // the parked waiter takes the permit
    ASSERT_TRUE(acquired);
    if (round == 1) {
      EXPECT_EQ(g_allocations - before, 0u);
    }
    sem.release();
  }
}

}  // namespace
}  // namespace hpres::sim
