// FramePool: per-thread, size-classed free lists behind every coroutine
// frame and Promise state. A freed block is reused for its size class,
// oversize requests bypass the lists, trim() and an idle Simulator::run()
// hand every cached block back, a block freed on another thread joins that
// thread's lists, and under AddressSanitizer touching a freed frame is
// reported.
#include "sim/frame_pool.h"

#include <gtest/gtest.h>

#include <coroutine>
#include <thread>

#include "sim/simulator.h"

namespace hpres::sim {
namespace {

using detail::FramePool;

TEST(FramePool, FreedBlockIsReusedForItsSizeClass) {
  FramePool::trim();
  void* block = FramePool::allocate(100);
  FramePool::deallocate(block, 100);
  EXPECT_EQ(FramePool::cached_blocks(), 1u);
  // 97..112 bytes share the 112-byte class; 120 does not.
  void* other_class = FramePool::allocate(120);
  EXPECT_NE(other_class, block);
  void* same_class = FramePool::allocate(97);
  EXPECT_EQ(same_class, block);
  EXPECT_EQ(FramePool::cached_blocks(), 0u);
  FramePool::deallocate(same_class, 97);
  FramePool::deallocate(other_class, 120);
  FramePool::trim();
}

TEST(FramePool, OversizeRequestsBypassThePool) {
  FramePool::trim();
  void* block = FramePool::allocate(FramePool::kMaxBytes + 1);
  FramePool::deallocate(block, FramePool::kMaxBytes + 1);
  EXPECT_EQ(FramePool::cached_blocks(), 0u);
  void* largest = FramePool::allocate(FramePool::kMaxBytes);
  FramePool::deallocate(largest, FramePool::kMaxBytes);
  EXPECT_EQ(FramePool::cached_blocks(), 1u);
  FramePool::trim();
}

Task<void> finish_at_once() { co_return; }

TEST(FramePool, TrimReturnsEveryBlock) {
  FramePool::trim();
  void* blocks[6];
  for (std::size_t i = 0; i < 6; ++i) blocks[i] = FramePool::allocate(i * 300);
  for (std::size_t i = 0; i < 6; ++i) FramePool::deallocate(blocks[i], i * 300);
  EXPECT_EQ(FramePool::cached_blocks(), 6u);
  FramePool::trim();
  EXPECT_EQ(FramePool::cached_blocks(), 0u);

  // A run that ends idle trims too; one bounded short of a pending event
  // leaves the finished frame cached.
  Simulator sim;
  Timer pending;
  pending.wake(std::noop_coroutine());
  sim.arm(&pending, 1000);
  sim.spawn(finish_at_once());
  sim.run(500);
  EXPECT_EQ(FramePool::cached_blocks(), 1u);
  sim.run();
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(FramePool::cached_blocks(), 0u);
}

TEST(FramePool, BlockFreedOnAnotherThreadJoinsThatThreadsList) {
  FramePool::trim();
  void* block = FramePool::allocate(64);
  std::size_t cached_there = 0;
  bool reused_there = false;
  std::thread other([&] {
    FramePool::deallocate(block, 64);
    cached_there = FramePool::cached_blocks();
    void* again = FramePool::allocate(64);
    reused_there = again == block;
    FramePool::deallocate(again, 64);
    // The thread exits with the block cached: its lists are emptied then.
  });
  other.join();
  EXPECT_EQ(cached_there, 1u);
  EXPECT_TRUE(reused_there);
  EXPECT_EQ(FramePool::cached_blocks(), 0u);
}

#if defined(__SANITIZE_ADDRESS__)
// Built under AddressSanitizer only: elsewhere the write below would
// silently succeed.

/// Records the address of the awaiting coroutine's frame.
struct FrameAddress {
  void** out;
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> h) const noexcept {
    *out = h.address();
    return false;  // resume at once
  }
  void await_resume() const noexcept {}
};

Task<void> note_frame(void** out) { co_await FrameAddress{out}; }

TEST(FramePool, TouchingAFreedFrameIsReported) {
  EXPECT_DEATH(
      {
        Simulator sim;
        Timer pending;  // keeps the run from going idle and trimming
        pending.wake(std::noop_coroutine());
        sim.arm(&pending, 1000);
        void* frame = nullptr;
        sim.spawn(note_frame(&frame));
        sim.run(500);  // the frame finished and went back to the pool
        static_cast<volatile char*>(frame)[8] = 1;
      },
      "use-after-poison");
}
#endif

}  // namespace
}  // namespace hpres::sim
