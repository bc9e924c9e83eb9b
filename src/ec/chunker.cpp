#include "ec/chunker.h"

#include <algorithm>
#include <cassert>

#include "ec/codec.h"
#include "ec/stripe.h"

namespace hpres::ec {

ChunkLayout make_layout(std::size_t value_size, std::size_t k,
                        std::size_t alignment) {
  assert(k >= 1 && alignment >= 1);
  const std::size_t raw = (value_size + k - 1) / k;
  std::size_t frag = (raw + alignment - 1) / alignment * alignment;
  if (frag == 0) frag = alignment;
  return ChunkLayout{value_size, frag, k};
}

std::vector<Bytes> split_value(ConstByteSpan value,
                               const ChunkLayout& layout) {
  assert(value.size() == layout.original_size);
  std::vector<Bytes> out;
  out.reserve(layout.k);
  std::size_t offset = 0;
  for (std::size_t i = 0; i < layout.k; ++i) {
    const std::size_t take =
        offset < value.size()
            ? std::min(layout.fragment_size, value.size() - offset)
            : 0;
    // Each payload byte is written once; only the tail pad is zeroed.
    Bytes frag;
    frag.reserve(layout.fragment_size);
    frag.insert(frag.end(), value.data() + offset,
                value.data() + offset + take);
    frag.resize(layout.fragment_size);
    offset += take;
    out.push_back(std::move(frag));
  }
  return out;
}

Result<Bytes> join_fragments(std::span<const ConstByteSpan> data_fragments,
                             const ChunkLayout& layout) {
  if (data_fragments.size() != layout.k) {
    return Status{StatusCode::kInvalidArgument, "fragment count != k"};
  }
  for (const auto& f : data_fragments) {
    if (f.size() != layout.fragment_size) {
      return Status{StatusCode::kInvalidArgument, "fragment size mismatch"};
    }
  }
  if (layout.original_size > layout.k * layout.fragment_size) {
    return Status{StatusCode::kInvalidArgument, "layout overflows fragments"};
  }
  Bytes out;
  out.reserve(layout.original_size);
  for (std::size_t i = 0; i < layout.k && out.size() < layout.original_size;
       ++i) {
    const std::size_t take =
        std::min(layout.fragment_size, layout.original_size - out.size());
    out.insert(out.end(), data_fragments[i].data(),
               data_fragments[i].data() + take);
  }
  return out;
}

Fragments encode_value(const Codec& codec, ConstByteSpan value,
                       std::size_t size, bool materialize) {
  const ChunkLayout layout = make_layout(size, codec.k(), codec.alignment());
  const std::size_t k = codec.k();
  const std::size_t n = codec.n();
  Fragments out;
  if (!materialize) {
    std::fill_n(out.begin(), n, zero_bytes(layout.fragment_size));
    return out;
  }
  assert(value.size() == size);
  std::array<ConstByteSpan, kMaxSlots> data{};
  std::array<ByteSpan, kMaxSlots> parity{};
  std::size_t offset = 0;
  for (std::size_t slot = 0; slot < n; ++slot) {
    out[slot] = SharedBytes::uninitialized(layout.fragment_size);
    const ByteSpan frag = out[slot].writable();
    if (slot >= k) {
      parity[slot - k] = frag;  // the encode writes every byte
      continue;
    }
    // Each payload byte is written once; only the tail pad is zeroed.
    const std::size_t take = std::min(frag.size(), value.size() - offset);
    std::copy_n(value.begin() + static_cast<std::ptrdiff_t>(offset), take,
                frag.begin());
    std::fill(frag.begin() + static_cast<std::ptrdiff_t>(take), frag.end(),
              std::byte{0});
    offset += take;
    data[slot] = frag;
  }
  codec.encode(std::span(data.data(), k), std::span(parity.data(), n - k));
  return out;
}

namespace {

/// Decodes every wanted slot that is not a source into `outputs` (by
/// slot), reading the sources where they were fetched.
Status decode_into(const Codec& codec, std::span<const SharedBytes> fragments,
                   const ReadSet& sources, SlotMask want,
                   std::span<const ByteSpan> outputs) {
  std::array<ConstByteSpan, kMaxSlots> in{};
  for (const std::size_t s : sources) in[s] = fragments[s].span();
  return codec.decode(sources, std::span(in.data(), codec.n()), want,
                      outputs);
}

/// Rebuilds the wanted non-source slots into `sc`, at `fragment_size`
/// bytes.
Status rebuild_into(const Codec& codec, std::span<const SharedBytes> fragments,
                    const ReadSet& sources, SlotMask want,
                    std::size_t fragment_size, FragmentScratch& sc) {
  const std::size_t n = codec.n();
  std::array<ByteSpan, kMaxSlots> out{};
  for (std::size_t w = 0; w < n; ++w) {
    if (!has_slot(want, w) || sources.contains(w)) continue;
    sc.storage[w].resize(fragment_size);
    out[w] = sc.storage[w];
  }
  return decode_into(codec, fragments, sources, want, std::span(out.data(), n));
}

}  // namespace

Result<Bytes> assemble(const Codec& codec,
                       std::span<const SharedBytes> fragments,
                       const ReadSet& sources, const ChunkLayout& layout,
                       std::optional<ValueSlice> slice, bool materialize,
                       FragmentScratch& scratch) {
  if (!materialize) return Bytes(slice ? slice->len : layout.original_size);
  assert(fragments.size() == codec.n());
  const FragmentRange range =
      slice ? owning_fragments(layout, slice->offset, slice->len)
            : FragmentRange{0, layout.k - 1};
  SlotMask missing = 0;
  for (std::size_t slot = range.first; slot <= range.last; ++slot) {
    if (!sources.contains(slot)) missing |= slot_bit(slot);
  }
  if (missing != 0) {
    const Status s = rebuild_into(codec, fragments, sources, missing,
                                  layout.fragment_size, scratch);
    if (!s.ok()) return s;
  }
  std::array<ConstByteSpan, kMaxSlots> spans{};
  for (std::size_t slot = range.first; slot <= range.last; ++slot) {
    spans[slot - range.first] = has_slot(missing, slot)
                                    ? ConstByteSpan(scratch.storage[slot])
                                    : fragments[slot].span();
  }
  const std::span<const ConstByteSpan> data(spans.data(), range.count());
  if (!slice) return join_fragments(data, layout);
  return extract_from_fragments(data, range, layout, slice->offset,
                                slice->len);
}

Result<Fragments> rebuild_fragments(const Codec& codec,
                                    std::span<const SharedBytes> fragments,
                                    const ReadSet& sources, SlotMask want,
                                    std::size_t fragment_size,
                                    bool materialize) {
  const std::size_t n = codec.n();
  Fragments out;
  if (!materialize) {
    for (std::size_t w = 0; w < n; ++w) {
      if (has_slot(want, w)) out[w] = zero_bytes(fragment_size);
    }
    return out;
  }
  assert(fragments.size() == n);
  std::array<ByteSpan, kMaxSlots> dst{};
  for (std::size_t w = 0; w < n; ++w) {
    if (!has_slot(want, w)) continue;
    if (sources.contains(w)) {
      out[w] = fragments[w];
      continue;
    }
    out[w] = SharedBytes::uninitialized(fragment_size);
    dst[w] = out[w].writable();
  }
  const Status s =
      decode_into(codec, fragments, sources, want, std::span(dst.data(), n));
  if (!s.ok()) return s;
  return out;
}

}  // namespace hpres::ec
