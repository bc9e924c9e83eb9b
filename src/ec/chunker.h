// Value <-> fragment conversion, the one owner of the fragment format:
// splits a key-value pair's value of size D into K equal fragments of size
// ceil(D/K) (zero-padded, aligned for the codec), encodes them (or stands
// in shared zero placeholders in size-only mode), building every fragment
// once in its own shared block, and reassembles values
// from fetched fragments. Reassembly holds no state and reads the fetched
// buffers in place: a healthy read copies the value out of them, and a
// read that misses a data fragment it needs lays the fragments it covers
// side by side in the result buffer, where the read set's precomputed plan
// decodes the missing ones, so the sources are never written and the
// result is the only allocation. Fragment size and original size travel
// with every fragment so a Get can size its reassembly buffers from any
// single chunk's metadata.
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

/// A value's fragments by slot, k data then m parity; slots from the
/// codec's n on are null. One handle per slot the codec can have, so it
/// lives on the stack or in a coroutine frame, never on the heap.
using Fragments = std::array<SharedBytes, kMaxSlots>;
static_assert(sizeof(Fragments) == 128, "kMaxSlots one-word handles");

/// The n fragments of a `size`-byte value. Each is one block built in
/// place: a data fragment copies its share of `value` and zeroes only the
/// tail pad, and parity is encoded into uninitialized blocks. In size-only
/// mode (`materialize` false) `value` is ignored and every slot aliases one
/// shared zero buffer of the fragment size. The fragments keep no view of
/// `value`: a caller that held the value only to encode it can let it go
/// once this returns, so an in-flight Set holds the fragments (n/k of the
/// value) and not the value beside them.
[[nodiscard]] Fragments encode_value(const Codec& codec, ConstByteSpan value,
                                     std::size_t size, bool materialize);

/// Bytes [offset, offset + len) of a coded object: one record of a packed
/// stripe.
struct ValueSlice {
  std::size_t offset = 0;
  std::size_t len = 0;
};

/// The whole object, or `slice` of it, from `fragments` (by slot, null
/// where not fetched) bound on `sources`, the read set the codec selected.
/// When every data slot the result needs is a source, copies it straight
/// out of the fetched buffers (extract_from_fragments). Otherwise the
/// result buffer holds the needed data slots side by side, Codec::decode
/// writes each missing one into its place, and the buffer is trimmed to
/// the result. kInvalidArgument when a fragment it reads is not
/// `layout.fragment_size` bytes. In size-only mode returns a zero buffer
/// of the result size.
[[nodiscard]] Result<Bytes> assemble(const Codec& codec,
                                     std::span<const SharedBytes> fragments,
                                     const ReadSet& sources,
                                     const ChunkLayout& layout,
                                     std::optional<ValueSlice> slice,
                                     bool materialize);

/// Rebuilds every slot in `want` (data or parity) from `sources` and
/// returns them by slot, null where not wanted. A wanted source is shared
/// as fetched; every other wanted slot is decoded straight into a fresh
/// block. In size-only mode they are shared zero placeholders of
/// `fragment_size`.
[[nodiscard]] Result<Fragments> rebuild_fragments(
    const Codec& codec, std::span<const SharedBytes> fragments,
    const ReadSet& sources, SlotMask want, std::size_t fragment_size,
    bool materialize);

}  // namespace hpres::ec
