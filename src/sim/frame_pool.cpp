#include "sim/frame_pool.h"

#include <sanitizer/asan_interface.h>

#include <new>

namespace hpres::sim::detail {

namespace {

constexpr std::size_t kClasses = FramePool::kMaxBytes / FramePool::kGranule;

/// A cached block: its first bytes link it to the next one of its class.
struct FreeBlock {
  FreeBlock* next;
};

/// The calling thread's lists. Trivially destructible and zero-initialized,
/// so reaching it needs no guard; the Reaper below empties it at exit.
struct ThreadLists {
  FreeBlock* heads[kClasses];
  std::size_t cached;
  bool reaper_armed;
  bool exited;  ///< the thread is exiting: free blocks straight away
};
thread_local ThreadLists t_lists{};

/// Registered on a thread's first cached block; gives the blocks back when
/// the thread exits.
struct Reaper {
  Reaper() = default;
  Reaper(const Reaper&) = delete;
  Reaper& operator=(const Reaper&) = delete;
  ~Reaper() {
    FramePool::trim();
    t_lists.exited = true;
  }
};

constexpr std::size_t class_of(std::size_t bytes) noexcept {
  return bytes == 0 ? 0 : (bytes - 1) / FramePool::kGranule;
}
constexpr std::size_t class_bytes(std::size_t cls) noexcept {
  return (cls + 1) * FramePool::kGranule;
}

}  // namespace

void* FramePool::allocate(std::size_t bytes) {
  if (bytes > kMaxBytes) return ::operator new(bytes);
  const std::size_t cls = class_of(bytes);
  ThreadLists& lists = t_lists;
  FreeBlock* block = lists.heads[cls];
  if (block == nullptr) return ::operator new(class_bytes(cls));
  ASAN_UNPOISON_MEMORY_REGION(block, class_bytes(cls));
  lists.heads[cls] = block->next;
  --lists.cached;
  return block;
}

void FramePool::deallocate(void* block, std::size_t bytes) noexcept {
  if (block == nullptr) return;
  ThreadLists& lists = t_lists;
  if (bytes > kMaxBytes || lists.exited) {
    ::operator delete(block);
    return;
  }
  if (!lists.reaper_armed) {
    lists.reaper_armed = true;
    static thread_local Reaper reaper;
  }
  const std::size_t cls = class_of(bytes);
  auto* free_block = static_cast<FreeBlock*>(block);
  free_block->next = lists.heads[cls];
  lists.heads[cls] = free_block;
  ++lists.cached;
  ASAN_POISON_MEMORY_REGION(block, class_bytes(cls));
}

void FramePool::trim() noexcept {
  ThreadLists& lists = t_lists;
  if (lists.cached == 0) return;
  for (std::size_t cls = 0; cls < kClasses; ++cls) {
    FreeBlock* block = lists.heads[cls];
    while (block != nullptr) {
      ASAN_UNPOISON_MEMORY_REGION(block, class_bytes(cls));
      FreeBlock* next = block->next;
      ::operator delete(block);
      block = next;
    }
    lists.heads[cls] = nullptr;
  }
  lists.cached = 0;
}

std::size_t FramePool::cached_blocks() noexcept { return t_lists.cached; }

}  // namespace hpres::sim::detail
