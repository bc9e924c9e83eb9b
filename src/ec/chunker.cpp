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

bool contains(std::span<const std::size_t> slots, std::size_t slot) {
  return std::find(slots.begin(), slots.end(), slot) != slots.end();
}

ConstByteSpan span_of(const SharedBytes& frag) {
  return frag ? ConstByteSpan(*frag) : ConstByteSpan{};
}

/// Copies the source fragments into `sc` and rebuilds every wanted slot
/// there, at `fragment_size` bytes.
Status rebuild_into(const Codec& codec, std::span<const SharedBytes> fragments,
                    std::span<const std::size_t> sources,
                    std::span<const std::size_t> want,
                    std::size_t fragment_size, FragmentScratch& sc) {
  const std::size_t n = codec.n();
  sc.storage.resize(n);
  sc.spans.assign(n, ByteSpan{});
  for (const std::size_t s : sources) {
    if (s >= n) continue;  // decode rejects it
    const ConstByteSpan frag = span_of(fragments[s]);
    sc.storage[s].assign(frag.begin(), frag.end());
    sc.spans[s] = sc.storage[s];
  }
  for (const std::size_t w : want) {
    if (w >= n || contains(sources, w)) continue;
    sc.storage[w].resize(fragment_size);
    sc.spans[w] = sc.storage[w];
  }
  return codec.decode(sc.spans, sources, want);
}

}  // namespace

Result<Bytes> assemble(const Codec& codec,
                       std::span<const SharedBytes> fragments,
                       std::span<const std::size_t> sources,
                       const ChunkLayout& layout,
                       std::optional<ValueSlice> slice, bool materialize,
                       FragmentScratch& scratch) {
  if (!materialize) return Bytes(slice ? slice->len : layout.original_size);
  assert(fragments.size() == codec.n());
  const FragmentRange range =
      slice ? owning_fragments(layout, slice->offset, slice->len)
            : FragmentRange{0, layout.k - 1};
  std::vector<std::size_t> missing;
  for (std::size_t slot = range.first; slot <= range.last; ++slot) {
    if (!contains(sources, slot)) missing.push_back(slot);
  }
  if (!missing.empty()) {
    const Status s = rebuild_into(codec, fragments, sources, missing,
                                  layout.fragment_size, scratch);
    if (!s.ok()) return s;
  }
  std::vector<ConstByteSpan> spans;
  for (std::size_t slot = range.first; slot <= range.last; ++slot) {
    spans.push_back(missing.empty() || contains(sources, slot)
                        ? span_of(fragments[slot])
                        : ConstByteSpan(scratch.storage[slot]));
  }
  if (!slice) return join_fragments(spans, layout);
  return extract_from_fragments(spans, range, layout, slice->offset,
                                slice->len);
}

Result<std::vector<SharedBytes>> rebuild_fragments(
    const Codec& codec, std::span<const SharedBytes> fragments,
    std::span<const std::size_t> sources, std::span<const std::size_t> want,
    std::size_t fragment_size, bool materialize, FragmentScratch& scratch) {
  std::vector<SharedBytes> out(codec.n());
  if (!materialize) {
    for (const std::size_t w : want) out[w] = zero_bytes(fragment_size);
    return out;
  }
  assert(fragments.size() == codec.n());
  const Status s =
      rebuild_into(codec, fragments, sources, want, fragment_size, scratch);
  if (!s.ok()) return s;
  for (const std::size_t w : want) {
    out[w] = make_shared_bytes(std::move(scratch.storage[w]));
  }
  return out;
}

}  // namespace hpres::ec
