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

std::vector<SharedBytes> encode_value(const Codec& codec, ConstByteSpan value,
                                      std::size_t size, bool materialize) {
  const ChunkLayout layout = make_layout(size, codec.k(), codec.alignment());
  if (!materialize) {
    return std::vector<SharedBytes>(codec.n(),
                                    zero_bytes(layout.fragment_size));
  }
  assert(value.size() == size);
  std::vector<Bytes> data = split_value(value, layout);
  std::vector<ConstByteSpan> data_spans(data.begin(), data.end());
  // The encode overwrites every parity byte; each buffer is built in place
  // rather than copied from a zeroed prototype.
  std::vector<Bytes> parity;
  parity.reserve(codec.m());
  for (std::size_t i = 0; i < codec.m(); ++i) {
    parity.emplace_back(layout.fragment_size);
  }
  std::vector<ByteSpan> parity_spans(parity.begin(), parity.end());
  codec.encode(data_spans, parity_spans);
  std::vector<SharedBytes> out;
  out.reserve(codec.n());
  for (auto& f : data) out.push_back(make_shared_bytes(std::move(f)));
  for (auto& p : parity) out.push_back(make_shared_bytes(std::move(p)));
  return out;
}

namespace {

ConstByteSpan span_of(const SharedBytes& frag) {
  return frag ? ConstByteSpan(*frag) : ConstByteSpan{};
}

/// Rebuilds every wanted slot that is not a source into `sc`, at
/// `fragment_size` bytes, reading the sources where they were fetched.
Status rebuild_into(const Codec& codec, std::span<const SharedBytes> fragments,
                    const ReadSet& sources, SlotMask want,
                    std::size_t fragment_size, FragmentScratch& sc) {
  const std::size_t n = codec.n();
  std::array<ConstByteSpan, kMaxSlots> in{};
  for (const std::size_t s : sources) in[s] = span_of(fragments[s]);
  std::array<ByteSpan, kMaxSlots> out{};
  for (std::size_t w = 0; w < n; ++w) {
    if (!has_slot(want, w) || sources.contains(w)) continue;
    sc.storage[w].resize(fragment_size);
    out[w] = sc.storage[w];
  }
  return codec.decode(sources, std::span(in.data(), n), want,
                      std::span(out.data(), n));
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
                                    : span_of(fragments[slot]);
  }
  const std::span<const ConstByteSpan> data(spans.data(), range.count());
  if (!slice) return join_fragments(data, layout);
  return extract_from_fragments(data, range, layout, slice->offset,
                                slice->len);
}

Result<std::vector<SharedBytes>> rebuild_fragments(
    const Codec& codec, std::span<const SharedBytes> fragments,
    const ReadSet& sources, SlotMask want, std::size_t fragment_size,
    bool materialize, FragmentScratch& scratch) {
  std::vector<SharedBytes> out(codec.n());
  if (!materialize) {
    for (std::size_t w = 0; w < codec.n(); ++w) {
      if (has_slot(want, w)) out[w] = zero_bytes(fragment_size);
    }
    return out;
  }
  assert(fragments.size() == codec.n());
  const Status s =
      rebuild_into(codec, fragments, sources, want, fragment_size, scratch);
  if (!s.ok()) return s;
  for (std::size_t w = 0; w < codec.n(); ++w) {
    if (!has_slot(want, w)) continue;
    out[w] = sources.contains(w)
                 ? fragments[w]
                 : make_shared_bytes(std::move(scratch.storage[w]));
  }
  return out;
}

}  // namespace hpres::ec
