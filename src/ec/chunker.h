// Value <-> fragment conversion, the one owner of the fragment format:
// splits a key-value pair's value of size D into K equal fragments of size
// ceil(D/K) (zero-padded, aligned for the codec), encodes them (or stands
// in shared zero placeholders in size-only mode), and reassembles values
// from fetched fragments. Reassembly reads the fetched buffers in place:
// a healthy read joins them directly, and a read that misses a data
// fragment it needs decodes just that fragment into a scratch buffer by
// applying the read set's precomputed plan over the sources, which are
// never copied or written. Fragment size and original size travel with
// every fragment so a Get can size its reassembly buffers from any single
// chunk's metadata.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "ec/codec.h"

namespace hpres::ec {

struct ChunkLayout {
  std::size_t original_size = 0;  ///< bytes in the value before padding
  std::size_t fragment_size = 0;  ///< bytes per fragment (padded, aligned)
  std::size_t k = 0;              ///< data fragments

  [[nodiscard]] bool operator==(const ChunkLayout&) const = default;
};

/// Computes the layout for a value of `value_size` split into k fragments,
/// with fragment size rounded up to `alignment` bytes (codec requirement).
/// A zero-size value still yields fragments of one alignment unit so that
/// parity math stays well-defined.
[[nodiscard]] ChunkLayout make_layout(std::size_t value_size, std::size_t k,
                                      std::size_t alignment);

/// Splits `value` into layout.k owned fragments, zero-padding the tail.
[[nodiscard]] std::vector<Bytes> split_value(ConstByteSpan value,
                                             const ChunkLayout& layout);

/// Reassembles the original value from the k data fragments (in index
/// order). Fails if sizes disagree with the layout.
[[nodiscard]] Result<Bytes> join_fragments(
    std::span<const ConstByteSpan> data_fragments, const ChunkLayout& layout);

/// The n fragments of a `size`-byte value by slot, k data then m parity.
/// In size-only mode (`materialize` false) `value` is ignored and every
/// slot aliases one shared zero buffer of the fragment size.
[[nodiscard]] std::vector<SharedBytes> encode_value(const Codec& codec,
                                                    ConstByteSpan value,
                                                    std::size_t size,
                                                    bool materialize);

/// Bytes [offset, offset + len) of a coded object: one record of a packed
/// stripe.
struct ValueSlice {
  std::size_t offset = 0;
  std::size_t len = 0;
};

/// Reusable rebuild buffers, one per engine, server or repair coordinator:
/// filling and consuming them never suspends, so all of an owner's ops
/// share them, and degraded reads stop allocating at steady state. Only
/// wanted slots get a buffer; sources are read where they were fetched.
struct FragmentScratch {
  std::array<Bytes, kMaxSlots> storage;  ///< by slot: rebuilt wanted slots
};

/// The whole object, or `slice` of it, from `fragments` (by slot, null
/// where not fetched) bound on `sources`, the read set the codec selected.
/// Reads straight from the fetched buffers and runs Codec::decode only
/// when a data slot the result needs is not a source. In size-only mode
/// returns a zero buffer of the result size.
[[nodiscard]] Result<Bytes> assemble(const Codec& codec,
                                     std::span<const SharedBytes> fragments,
                                     const ReadSet& sources,
                                     const ChunkLayout& layout,
                                     std::optional<ValueSlice> slice,
                                     bool materialize,
                                     FragmentScratch& scratch);

/// Rebuilds every slot in `want` (data or parity) from `sources` and
/// returns the n fragments by slot, filled for the wanted slots only. In
/// size-only mode they are shared zero placeholders of `fragment_size`.
[[nodiscard]] Result<std::vector<SharedBytes>> rebuild_fragments(
    const Codec& codec, std::span<const SharedBytes> fragments,
    const ReadSet& sources, SlotMask want, std::size_t fragment_size,
    bool materialize, FragmentScratch& scratch);

}  // namespace hpres::ec
