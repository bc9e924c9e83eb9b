// Packed-stripe record format and sub-slot addressing for the batched
// small-object write path.
//
// A stripe is a flat byte buffer into which multiple (key, value) records
// are appended back to back:
//
//   record := u16 key_len | u32 value_len | key bytes | value bytes
//
// The 6-byte header embeds the key so a stripe is self-describing: the
// locator directory can be rebuilt from stripe contents alone. Writers
// remember each value's {offset, len} within the stripe payload (the
// sub-slot index); readers fetch only the data fragments whose byte ranges
// overlap [offset, offset+len) and splice the value back out — no whole
// stripe decode on the healthy path.
//
// The stripe payload is encoded with the ordinary sequential split
// (ec::split_value): data fragment i holds stripe bytes
// [i*fragment_size, (i+1)*fragment_size), so sub-slot -> fragment-range
// math is plain division.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "ec/chunker.h"

namespace hpres::ec {

/// Bytes of framing prepended to every packed record (u16 keylen + u32
/// vallen). Keys are bounded well below 64 KiB and packed values below the
/// pack threshold, so the narrow fields are safe.
inline constexpr std::size_t kStripeRecordHeader = 6;

/// Total stripe bytes consumed by one (key, value) record.
[[nodiscard]] constexpr std::size_t stripe_record_bytes(
    std::size_t key_size, std::size_t value_size) noexcept {
  return kStripeRecordHeader + key_size + value_size;
}

/// Appends one record to `stripe` and returns the offset of the *value*
/// bytes within the stripe payload (what the locator stores).
std::size_t stripe_append(Bytes& stripe, std::string_view key,
                          ConstByteSpan value);

/// One record parsed back out of a stripe buffer.
struct StripeRecord {
  std::string key;
  std::size_t value_offset = 0;  ///< offset of value bytes in the stripe
  std::size_t value_len = 0;
};

/// Parses every record out of a stripe payload (directory rebuild / test
/// oracle). Fails on truncated framing.
[[nodiscard]] Result<std::vector<StripeRecord>> stripe_parse(
    ConstByteSpan stripe);

/// Copies of a packed record's locator: one at each of the first m+1
/// owners of the record's key, so m failures always leave one.
[[nodiscard]] constexpr std::size_t locator_copies(std::size_t m) noexcept {
  return m + 1;
}

/// Inclusive range of data-fragment slots whose byte ranges overlap
/// [offset, offset+len) under `layout`. Empty ranges (len == 0) pin to the
/// fragment containing `offset` so callers need no special case.
struct FragmentRange {
  std::size_t first = 0;
  std::size_t last = 0;  ///< inclusive

  [[nodiscard]] std::size_t count() const noexcept { return last - first + 1; }
  [[nodiscard]] SlotMask mask() const noexcept {
    return first_slots(last + 1) & ~first_slots(first);
  }
};

[[nodiscard]] FragmentRange owning_fragments(const ChunkLayout& layout,
                                             std::size_t offset,
                                             std::size_t len);

/// Copies the value bytes at [offset, offset+len) out of the data
/// fragments covering that range, appending each byte once; a whole value
/// is [0, original_size) over slots 0..k-1. `fragments[i]` must be the
/// data fragment for slot `range.first + i` (whole fragments,
/// layout.fragment_size each), else kInvalidArgument, as for a range past
/// the k fragments.
[[nodiscard]] Result<Bytes> extract_from_fragments(
    std::span<const ConstByteSpan> fragments, const FragmentRange& range,
    const ChunkLayout& layout, std::size_t offset, std::size_t len);

/// Per-key stored-bytes accounting for the value-size sweep and the fig10
/// footprint assertion. All figures count what the store actually charges:
/// key + payload + kv::Store per-item overhead (+ ChunkInfo when present),
/// plus the locator directory's per-entry bytes for the packed path.
struct StorageFootprint {
  double striped_per_key = 0.0;  ///< per-key striping, n fragments
  double packed_per_key = 0.0;   ///< amortized share of a packed stripe
  double savings_ratio = 0.0;    ///< striped / packed
};

struct FootprintParams {
  std::size_t key_size = 0;
  std::size_t value_size = 0;
  std::size_t k = 0;
  std::size_t m = 0;
  std::size_t alignment = 1;
  std::size_t stripe_capacity = 0;   ///< packed stripe payload budget
  std::size_t stripe_key_size = 0;   ///< synthetic stripe base key bytes
  std::size_t item_overhead = 0;     ///< kv::Store per-item overhead
  std::size_t chunk_info_bytes = 0;  ///< stored ChunkInfo bytes per fragment
  std::size_t locator_entry_overhead = 0;  ///< per directory entry, per copy
};

/// Predicts per-key stored bytes for both paths. Mirrors the simulator's
/// accounting exactly — fig10 asserts measured == predicted on the striped
/// path and the value-size sweep derives its crossover from the ratio.
[[nodiscard]] StorageFootprint predict_footprint(const FootprintParams& p);

}  // namespace hpres::ec
