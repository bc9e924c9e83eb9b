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

}  // namespace

Result<Bytes> assemble(const Codec& codec,
                       std::span<const SharedBytes> fragments,
                       const ReadSet& sources, const ChunkLayout& layout,
                       std::optional<ValueSlice> slice, bool materialize) {
  const std::size_t offset = slice ? slice->offset : 0;
  const std::size_t len = slice ? slice->len : layout.original_size;
  if (!materialize) return Bytes(len);
  assert(fragments.size() == codec.n());
  const FragmentRange range = slice ? owning_fragments(layout, offset, len)
                                    : FragmentRange{0, layout.k - 1};
  SlotMask missing = 0;
  std::array<ConstByteSpan, kMaxSlots> spans{};
  for (std::size_t slot = range.first; slot <= range.last; ++slot) {
    if (!sources.contains(slot)) missing |= slot_bit(slot);
    spans[slot - range.first] = fragments[slot].span();
  }
  if (missing == 0) {
    return extract_from_fragments(std::span(spans.data(), range.count()),
                                  range, layout, offset, len);
  }
  // Degraded: the range's fragments side by side, the sources copied in
  // and each missing slot decoded into its place, then trimmed to the
  // result.
  const std::size_t frag = layout.fragment_size;
  if (offset + len > layout.k * frag) {
    return Status{StatusCode::kInvalidArgument, "range overflows stripe"};
  }
  Bytes out;
  // The one allocation: `out` never grows past it, so the spans into it
  // stay valid.
  out.reserve(range.count() * frag);
  std::array<ByteSpan, kMaxSlots> rebuilt{};
  for (std::size_t slot = range.first; slot <= range.last; ++slot) {
    if (has_slot(missing, slot)) {
      out.resize(out.size() + frag);
      rebuilt[slot] = ByteSpan(out).last(frag);
      continue;
    }
    const ConstByteSpan source = spans[slot - range.first];
    if (source.size() != frag) {
      return Status{StatusCode::kInvalidArgument, "fragment size mismatch"};
    }
    out.insert(out.end(), source.begin(), source.end());
  }
  const Status s = decode_into(codec, fragments, sources, missing,
                               std::span(rebuilt.data(), codec.n()));
  if (!s.ok()) return s;
  const auto value_begin =
      out.begin() + static_cast<std::ptrdiff_t>(offset - range.first * frag);
  out.erase(out.begin(), value_begin);
  out.resize(len);
  return out;
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
