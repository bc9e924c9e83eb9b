// Per-thread free lists for coroutine frames and promise states.
//
// Every RPC hop allocates and frees a few small blocks: the frames of the
// coroutines it runs and the shared state of each sim::Promise. Hundreds
// are live at once, more than glibc's per-size thread cache keeps, so
// without a pool most frees would fall through to glibc's slower bins.
// FramePool keeps freed blocks on singly linked lists of the calling
// thread, one per 16-byte size class up to kMaxBytes; a larger request
// goes straight to ::operator new. A block freed on another thread than
// the one that allocated it joins the freeing thread's list: every list is
// touched only by its own thread (each shard runs on its own thread), so
// nothing is locked.
//
// Retention is bounded without a knob: Simulator::run hands every block
// the calling thread has cached back to the heap whenever it returns idle,
// and a thread's blocks go back when the thread exits. Between idle points
// a list holds at most what was live at once. Under AddressSanitizer a
// cached block is poisoned, so touching a frame after it was freed is
// still reported.
#pragma once

#include <cstddef>

namespace hpres::sim::detail {

class FramePool {
 public:
  static constexpr std::size_t kGranule = 16;    ///< size-class width
  static constexpr std::size_t kMaxBytes = 2048;  ///< largest pooled size

  /// A block of at least `bytes`, aligned like ::operator new's.
  [[nodiscard]] static void* allocate(std::size_t bytes);
  /// Returns a block from allocate(`bytes`) (same `bytes`) to the calling
  /// thread's list.
  static void deallocate(void* block, std::size_t bytes) noexcept;
  /// Hands every block the calling thread has cached back to the heap.
  static void trim() noexcept;
  /// Blocks cached by the calling thread (diagnostic).
  [[nodiscard]] static std::size_t cached_blocks() noexcept;
};

/// Allocator over FramePool, for std::allocate_shared.
template <typename T>
struct PoolAllocator {
  using value_type = T;
  static_assert(alignof(T) <= FramePool::kGranule);

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>& /*other*/) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(FramePool::allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    FramePool::deallocate(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const PoolAllocator<U>& /*other*/) const noexcept {
    return true;
  }
};

}  // namespace hpres::sim::detail
