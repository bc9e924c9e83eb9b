// Byte-buffer vocabulary types shared across the erasure-coding and KV
// layers. A `Bytes` owns its storage; `ConstByteSpan`/`ByteSpan` are the
// non-owning views used at API boundaries (C++ Core Guidelines I.13).
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace hpres {

using Bytes = std::vector<std::byte>;
using ByteSpan = std::span<std::byte>;
using ConstByteSpan = std::span<const std::byte>;

class SharedBytes;

/// The immutable bytes one SharedBytes names: a reference count, the
/// length and a pointer to the payload. The payload is either a moved-in
/// Bytes the block adopts (make_shared_bytes, no copy) or one buffer left
/// uninitialized for the caller to fill (SharedBytes::uninitialized).
/// Reads are contiguous: `*handle` converts to ConstByteSpan, and
/// Bytes(*handle) copies out.
class ByteBlock {
 public:
  ByteBlock(const ByteBlock&) = delete;
  ByteBlock& operator=(const ByteBlock&) = delete;

  [[nodiscard]] const std::byte* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] const std::byte* begin() const noexcept { return data_; }
  [[nodiscard]] const std::byte* end() const noexcept {
    return data_ + size_;
  }
  /// An owning copy of the bytes.
  explicit operator Bytes() const { return Bytes(begin(), end()); }
  /// Byte-wise equality with any contiguous bytes (another block too).
  friend bool operator==(const ByteBlock& a, ConstByteSpan b) noexcept {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  friend class SharedBytes;
  friend SharedBytes make_shared_bytes(Bytes b);
  struct Adopted;
  enum class Form : std::uint32_t { kBuffer, kAdopted };

  ByteBlock(Form form, std::byte* data, std::size_t size) noexcept
      : form_(form), data_(data), size_(size) {}
  ~ByteBlock() = default;

  std::atomic<std::uint32_t> refs_{1};
  Form form_;
  std::byte* data_;
  std::size_t size_;
};

struct ByteBlock::Adopted : ByteBlock {
  explicit Adopted(Bytes b) noexcept
      : ByteBlock(Form::kAdopted, b.data(), b.size()), bytes(std::move(b)) {}
  Bytes bytes;
};

/// Shared immutable payload: one pointer to a reference-counted ByteBlock,
/// or null. Message fan-out (e.g. replicating one value to F servers)
/// aliases one block instead of copying it per destination. The count is
/// atomic because cross-shard messages carry payloads between threads.
class SharedBytes {
 public:
  constexpr SharedBytes() noexcept = default;
  constexpr SharedBytes(std::nullptr_t) noexcept {}
  SharedBytes(const SharedBytes& other) noexcept : block_(other.block_) {
    if (block_ != nullptr) {
      block_->refs_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  SharedBytes(SharedBytes&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)) {}
  SharedBytes& operator=(SharedBytes other) noexcept {
    std::swap(block_, other.block_);
    return *this;
  }
  ~SharedBytes() { release(); }

  /// A block of `size` bytes left uninitialized: the caller fills them
  /// through writable() before sharing the handle. The bytes are their own
  /// allocation, not inline after the header. Measured on hpres_bench
  /// ycsb-a-64k-bytes: with one allocation per fragment, glibc returned
  /// the freed heap to the OS when a round's cluster was destroyed, and
  /// every setup from the third round on re-faulted about 250 MB (setup_s
  /// about +40%); the small header allocations, which glibc caches per
  /// thread across that teardown, keep the heap mapped.
  [[nodiscard]] static SharedBytes uninitialized(std::size_t size) {
    std::unique_ptr<std::byte[]> bytes(new std::byte[size]);
    auto* block = new ByteBlock(ByteBlock::Form::kBuffer, bytes.get(), size);
    bytes.release();
    return SharedBytes(block);
  }

  /// The bytes of a block this handle alone names, for filling it.
  [[nodiscard]] ByteSpan writable() noexcept {
    assert(use_count() == 1 && block_->form_ == ByteBlock::Form::kBuffer);
    return {block_->data_, block_->size_};
  }

  [[nodiscard]] const ByteBlock& operator*() const noexcept {
    return *block_;
  }
  [[nodiscard]] const ByteBlock* operator->() const noexcept {
    return block_;
  }
  explicit operator bool() const noexcept { return block_ != nullptr; }

  /// The bytes, or an empty span for a null handle.
  [[nodiscard]] ConstByteSpan span() const noexcept {
    return block_ != nullptr ? ConstByteSpan(*block_) : ConstByteSpan{};
  }

  /// Handles naming this block (0 for a null handle).
  [[nodiscard]] std::size_t use_count() const noexcept {
    return block_ != nullptr ? block_->refs_.load(std::memory_order_relaxed)
                             : 0;
  }

  /// True when both name the same block (or both are null).
  friend bool operator==(const SharedBytes& a, const SharedBytes& b) noexcept {
    return a.block_ == b.block_;
  }

 private:
  friend SharedBytes make_shared_bytes(Bytes b);
  explicit SharedBytes(ByteBlock* block) noexcept : block_(block) {}

  void release() noexcept {
    if (block_ == nullptr ||
        block_->refs_.fetch_sub(1, std::memory_order_acq_rel) != 1) {
      return;
    }
    if (block_->form_ == ByteBlock::Form::kAdopted) {
      delete static_cast<ByteBlock::Adopted*>(block_);
    } else {
      delete[] block_->data_;
      delete block_;
    }
  }

  ByteBlock* block_ = nullptr;
};
static_assert(sizeof(SharedBytes) == sizeof(void*), "a handle is one word");

/// Adopts `b` without copying its bytes.
inline SharedBytes make_shared_bytes(Bytes b) {
  return SharedBytes(new ByteBlock::Adopted(std::move(b)));
}

/// Shared zero-filled buffer of a given size, served from a process-wide
/// cache. Benchmarks run "size-only" (DESIGN.md): payload content is
/// irrelevant, so every op can alias one buffer per distinct size instead
/// of allocating per-op — a simulated 100 GB experiment costs megabytes of
/// host memory. Mutex-guarded: workload generators on different shard
/// threads hit this concurrently under the parallel runtime, and the
/// distinct-size count is tiny so the lock never contends meaningfully.
inline SharedBytes zero_bytes(std::size_t size) {
  static std::mutex mu;
  static std::unordered_map<std::size_t, SharedBytes> cache;
  const std::lock_guard<std::mutex> lock(mu);
  auto& slot = cache[size];
  if (!slot) {
    slot = SharedBytes::uninitialized(size);
    const ByteSpan bytes = slot.writable();
    std::fill(bytes.begin(), bytes.end(), std::byte{0});
  }
  return slot;
}

/// Builds an owning buffer from a string literal / std::string payload.
inline Bytes to_bytes(std::string_view s) {
  Bytes out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

/// Renders a byte buffer as a std::string (test/debug convenience).
inline std::string to_string(ConstByteSpan b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

/// Deterministic pseudo-random fill used by workload generators: value
/// content is a function of (seed, position) so any chunk can be re-derived
/// and verified without storing the original.
inline void fill_pattern(ByteSpan out, std::uint64_t seed) {
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL;
  std::size_t i = 0;
  while (i + 8 <= out.size()) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::memcpy(out.data() + i, &x, 8);
    i += 8;
  }
  for (; i < out.size(); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    out[i] = static_cast<std::byte>(x & 0xFF);
  }
}

/// Allocates and fills a patterned buffer (see fill_pattern).
inline Bytes make_pattern(std::size_t size, std::uint64_t seed) {
  Bytes out(size);
  fill_pattern(out, seed);
  return out;
}

}  // namespace hpres
