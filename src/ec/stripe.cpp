#include "ec/stripe.h"

#include <algorithm>
#include <cassert>

namespace hpres::ec {

namespace {

void put_u16(Bytes& out, std::uint16_t v) {
  out.push_back(static_cast<std::byte>(v & 0xFF));
  out.push_back(static_cast<std::byte>((v >> 8) & 0xFF));
}

void put_u32(Bytes& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFF));
  }
}

std::uint16_t get_u16(ConstByteSpan in, std::size_t at) {
  return static_cast<std::uint16_t>(std::to_integer<unsigned>(in[at]) |
                                    (std::to_integer<unsigned>(in[at + 1])
                                     << 8));
}

std::uint32_t get_u32(ConstByteSpan in, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(std::to_integer<unsigned>(in[at + i]))
         << (8 * i);
  }
  return v;
}

}  // namespace

std::size_t stripe_append(Bytes& stripe, std::string_view key,
                          ConstByteSpan value) {
  assert(key.size() <= 0xFFFF);
  assert(value.size() <= 0xFFFFFFFFULL);
  put_u16(stripe, static_cast<std::uint16_t>(key.size()));
  put_u32(stripe, static_cast<std::uint32_t>(value.size()));
  const auto* kb = reinterpret_cast<const std::byte*>(key.data());
  stripe.insert(stripe.end(), kb, kb + key.size());
  const std::size_t value_offset = stripe.size();
  stripe.insert(stripe.end(), value.begin(), value.end());
  return value_offset;
}

Result<std::vector<StripeRecord>> stripe_parse(ConstByteSpan stripe) {
  std::vector<StripeRecord> out;
  std::size_t at = 0;
  while (at < stripe.size()) {
    if (stripe.size() - at < kStripeRecordHeader) {
      return Status{StatusCode::kInvalidArgument, "truncated record header"};
    }
    const std::size_t klen = get_u16(stripe, at);
    const std::size_t vlen = get_u32(stripe, at + 2);
    at += kStripeRecordHeader;
    if (stripe.size() - at < klen + vlen) {
      return Status{StatusCode::kInvalidArgument, "truncated record body"};
    }
    StripeRecord rec;
    rec.key.assign(reinterpret_cast<const char*>(stripe.data() + at), klen);
    rec.value_offset = at + klen;
    rec.value_len = vlen;
    out.push_back(std::move(rec));
    at += klen + vlen;
  }
  return out;
}

FragmentRange owning_fragments(const ChunkLayout& layout, std::size_t offset,
                               std::size_t len) {
  assert(layout.fragment_size > 0);
  FragmentRange r;
  r.first = offset / layout.fragment_size;
  const std::size_t last_byte = len > 0 ? offset + len - 1 : offset;
  r.last = last_byte / layout.fragment_size;
  if (r.last >= layout.k) r.last = layout.k - 1;
  if (r.first > r.last) r.first = r.last;
  return r;
}

Result<Bytes> extract_from_fragments(std::span<const ConstByteSpan> fragments,
                                     const FragmentRange& range,
                                     const ChunkLayout& layout,
                                     std::size_t offset, std::size_t len) {
  if (fragments.size() != range.count()) {
    return Status{StatusCode::kInvalidArgument, "fragment count != range"};
  }
  for (const auto& f : fragments) {
    if (f.size() != layout.fragment_size) {
      return Status{StatusCode::kInvalidArgument, "fragment size mismatch"};
    }
  }
  if (offset + len > layout.k * layout.fragment_size) {
    return Status{StatusCode::kInvalidArgument, "range overflows stripe"};
  }
  // The segments run in order, so each is appended: every byte is
  // written once and nothing is zero-filled first.
  Bytes out;
  out.reserve(len);
  for (std::size_t i = 0; i < fragments.size(); ++i) {
    const std::size_t slot = range.first + i;
    const std::size_t frag_begin = slot * layout.fragment_size;
    const std::size_t seg_begin = std::max(offset, frag_begin);
    const std::size_t seg_end =
        std::min(offset + len, frag_begin + layout.fragment_size);
    if (seg_begin >= seg_end) continue;
    const std::byte* seg = fragments[i].data() + (seg_begin - frag_begin);
    out.insert(out.end(), seg, seg + (seg_end - seg_begin));
  }
  return out;
}

StorageFootprint predict_footprint(const FootprintParams& p) {
  StorageFootprint out;
  const std::size_t n = p.k + p.m;

  // Per-key striping: n fragments, each charged as a key.size()+2 chunk
  // key with its own item overhead and ChunkInfo.
  const ChunkLayout per_key = make_layout(p.value_size, p.k, p.alignment);
  out.striped_per_key =
      static_cast<double>(n) *
      static_cast<double>(p.key_size + 2 + per_key.fragment_size +
                          p.item_overhead + p.chunk_info_bytes);

  // Packed: records share one stripe. Amortize the stripe's n fragments
  // over the records it holds, then add the replicated locator entries.
  const std::size_t record =
      stripe_record_bytes(p.key_size, p.value_size);
  const std::size_t records_per_stripe =
      record > 0 ? std::max<std::size_t>(1, p.stripe_capacity / record) : 1;
  const std::size_t stripe_bytes = records_per_stripe * record;
  const ChunkLayout packed = make_layout(stripe_bytes, p.k, p.alignment);
  const double stripe_stored =
      static_cast<double>(n) *
      static_cast<double>(p.stripe_key_size + 2 + packed.fragment_size +
                          p.item_overhead + p.chunk_info_bytes);
  const double locator =
      static_cast<double>(locator_copies(p.m)) *
      static_cast<double>(p.key_size + p.stripe_key_size +
                          p.locator_entry_overhead);
  out.packed_per_key =
      stripe_stored / static_cast<double>(records_per_stripe) + locator;
  out.savings_ratio =
      out.packed_per_key > 0 ? out.striped_per_key / out.packed_per_key : 0.0;
  return out;
}

}  // namespace hpres::ec
