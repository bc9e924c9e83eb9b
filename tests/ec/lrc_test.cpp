// Locally Repairable Codes: construction guarantees, decodability bounds,
// repair locality, and the local-rebuild path.
#include "ec/lrc.h"

#include <gtest/gtest.h>

#include <bit>

#include "common/bytes.h"
#include "ec/chunker.h"
#include "ec/rs_vandermonde.h"

namespace hpres::ec {
namespace {

struct Encoded {
  ChunkLayout layout;
  std::vector<Bytes> fragments;
};

Encoded encode_value(const Codec& codec, ConstByteSpan value) {
  Encoded out;
  out.layout = make_layout(value.size(), codec.k(), codec.alignment());
  out.fragments = split_value(value, out.layout);
  std::vector<ConstByteSpan> data(out.fragments.begin(), out.fragments.end());
  for (std::size_t p = 0; p < codec.m(); ++p) {
    out.fragments.emplace_back(out.layout.fragment_size);
  }
  std::vector<ByteSpan> parity(
      out.fragments.begin() + static_cast<std::ptrdiff_t>(codec.k()),
      out.fragments.end());
  codec.encode(data, parity);
  return out;
}

/// Decodes `want` into `working` from `sources`, which are read from
/// `working` too.
Status decode_into(const Codec& codec, const ReadSet& sources, SlotMask want,
                   std::vector<Bytes>& working) {
  const std::vector<ConstByteSpan> in(working.begin(), working.end());
  const std::vector<ByteSpan> out(working.begin(), working.end());
  return codec.decode(sources, in, want, out);
}

/// Rebuilds every absent slot as a repair does: select the sources for the
/// lost slots, then decode from exactly those sources.
Status rebuild_absent(const Codec& codec, std::vector<Bytes>& working,
                      SlotMask present) {
  const SlotMask lost = codec.all_slots() & ~present;
  const Result<ReadSet> sources = codec.select(lost, present);
  if (!sources.ok()) return sources.status();
  return decode_into(codec, *sources, lost, working);
}

/// Every slot of an n-slot codec present except `lost`.
SlotMask all_but(std::size_t n, std::size_t lost) {
  return first_slots(n) & ~slot_bit(lost);
}

/// The read set for the single lost slot `slot`.
ReadSet read_set_for(const Codec& codec, std::size_t slot,
                     SlotMask present) {
  const Result<ReadSet> got = codec.select(slot_bit(slot), present);
  EXPECT_TRUE(got.ok()) << got.status();
  return got.ok() ? *got : ReadSet{};
}

/// Its slots, in read order.
std::vector<std::size_t> sources_for(const Codec& codec, std::size_t slot,
                                     SlotMask present) {
  const ReadSet set = read_set_for(codec, slot, present);
  return {set.begin(), set.end()};
}

TEST(Lrc, ShapeAndGroups) {
  const LrcCodec lrc(6, 2, 2);
  EXPECT_EQ(lrc.k(), 6u);
  EXPECT_EQ(lrc.m(), 4u);  // 2 local + 2 global
  EXPECT_EQ(lrc.n(), 10u);
  EXPECT_EQ(lrc.group_size(), 3u);
  EXPECT_EQ(lrc.group_of(0), 0u);
  EXPECT_EQ(lrc.group_of(2), 0u);
  EXPECT_EQ(lrc.group_of(3), 1u);
  EXPECT_EQ(lrc.group_of(6), 0u);  // local parity of group 0
  EXPECT_EQ(lrc.group_of(7), 1u);
  EXPECT_FALSE(lrc.group_of(8).has_value());  // global parity
  EXPECT_FALSE(lrc.group_of(9).has_value());
  EXPECT_EQ(lrc.name(), "lrc");
}

TEST(Lrc, LocalParityIsGroupXor) {
  const LrcCodec lrc(4, 2, 2);
  const Bytes value = make_pattern(4 * 100, 1);
  const Encoded enc = encode_value(lrc, value);
  // Local parity of group 0 = frag0 ^ frag1.
  Bytes expect = enc.fragments[0];
  GF256::xor_region(enc.fragments[1], expect);
  EXPECT_EQ(enc.fragments[4], expect);
  // Group 1.
  expect = enc.fragments[2];
  GF256::xor_region(enc.fragments[3], expect);
  EXPECT_EQ(enc.fragments[5], expect);
}

TEST(Lrc, EveryPatternUpToGPlusOneRecovers) {
  // The construction-time guarantee, revalidated end-to-end with bytes.
  const LrcCodec lrc(4, 2, 2);  // n = 8, tolerates any 3
  const Bytes value = make_pattern(4 * 64 + 9, 2);
  const Encoded golden = encode_value(lrc, value);
  const std::size_t n = lrc.n();
  for (std::uint32_t mask = 1; mask < (1u << n); ++mask) {
    if (std::popcount(mask) > 3) continue;
    std::vector<Bytes> working = golden.fragments;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) {
        std::fill(working[i].begin(), working[i].end(), std::byte{0});
      }
    }
    ASSERT_TRUE(rebuild_absent(lrc, working, lrc.all_slots() & ~mask).ok())
        << "mask " << mask;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(working[i], golden.fragments[i]) << "mask " << mask;
    }
  }
}

TEST(Lrc, SomePatternsBeyondGuaranteeAreUndecodable) {
  // Losing a group's data, its local parity AND one global parity leaves
  // rank < k: the code must refuse rather than fabricate bytes.
  const LrcCodec lrc(4, 2, 2);
  const Encoded enc = encode_value(lrc, make_pattern(400, 3));
  std::vector<Bytes> working = enc.fragments;
  SlotMask present = lrc.all_slots();
  for (const std::size_t slot : {0u, 1u, 4u, 6u}) present &= ~slot_bit(slot);
  EXPECT_EQ(rebuild_absent(lrc, working, present).code(),
            StatusCode::kTooManyFailures);
}

TEST(Lrc, SomeFourFailurePatternsStillDecode) {
  // ...while information-complete 4-loss patterns (spread across groups)
  // decode fine — the rank-based survivor selection finds them.
  const LrcCodec lrc(4, 2, 2);
  const Bytes value = make_pattern(444, 4);
  const Encoded golden = encode_value(lrc, value);
  std::vector<Bytes> working = golden.fragments;
  SlotMask present = lrc.all_slots();
  // One data loss per group + both local parities: globals + survivors
  // still span full rank.
  for (const std::size_t slot : {0u, 2u, 4u, 5u}) {
    present &= ~slot_bit(slot);
    std::fill(working[slot].begin(), working[slot].end(), std::byte{0});
  }
  ASSERT_TRUE(rebuild_absent(lrc, working, present).ok());
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(working[i], golden.fragments[i]);
  }
}

TEST(Lrc, MinimalRepairSourcesAreTheGroup) {
  const LrcCodec lrc(6, 2, 2);
  // Data slot 1 (group 0): peers 0,2 + local parity 6.
  EXPECT_EQ(sources_for(lrc, 1, all_but(10, 1)),
            (std::vector<std::size_t>{0, 2, 6}));
  // Local parity 7 (group 1): data 3,4,5.
  EXPECT_EQ(sources_for(lrc, 7, all_but(10, 7)),
            (std::vector<std::size_t>{3, 4, 5}));
  // Global parity: no locality, the first k slots.
  EXPECT_EQ(sources_for(lrc, 8, all_but(10, 8)),
            (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
  // Second loss in the group: no locality, k independent survivors.
  const SlotMask degraded = all_but(10, 1) & ~slot_bit(2);
  EXPECT_EQ(sources_for(lrc, 1, degraded),
            (std::vector<std::size_t>{0, 3, 4, 5, 6, 8}));
}

TEST(Lrc, RebuildFromSourcesMatchesOriginal) {
  const LrcCodec lrc(6, 2, 2);
  const Bytes value = make_pattern(6 * 128, 5);
  const Encoded enc = encode_value(lrc, value);
  for (std::size_t slot = 0; slot < 8; ++slot) {  // data + local parities
    const ReadSet src = read_set_for(lrc, slot, all_but(10, slot));
    ASSERT_EQ(src.size(), lrc.group_size()) << slot;
    std::vector<Bytes> working(10, Bytes(enc.layout.fragment_size));
    for (const std::size_t s : src) working[s] = enc.fragments[s];
    ASSERT_TRUE(decode_into(lrc, src, slot_bit(slot), working).ok()) << slot;
    EXPECT_EQ(working[slot], enc.fragments[slot]) << slot;
  }
}

TEST(Lrc, RepairLocalityBeatsRsReadCount) {
  // The whole point: single-fragment repair reads group_size fragments
  // instead of k.
  const LrcCodec lrc(6, 2, 2);
  const std::vector<std::size_t> src = sources_for(lrc, 0, all_but(10, 0));
  EXPECT_EQ(src.size(), 3u);  // vs k = 6 for RS
  EXPECT_LT(src.size(), lrc.k());
}

TEST(Lrc, MdsBaseCodecsAdvertiseNoLocality) {
  const RsVandermondeCodec rs(3, 2);
  EXPECT_EQ(sources_for(rs, 0, all_but(5, 0)),
            (std::vector<std::size_t>{1, 2, 3}));
}

TEST(Lrc, SingleGroupDegeneratesGracefully) {
  // l = 1: one local parity over all data (RAID-5-like) + globals.
  const LrcCodec lrc(4, 1, 1);
  EXPECT_EQ(lrc.n(), 6u);
  const Bytes value = make_pattern(777, 6);
  const Encoded golden = encode_value(lrc, value);
  std::vector<Bytes> working = golden.fragments;
  // Data + global: within g+1 = 2.
  const SlotMask present = lrc.all_slots() & ~slot_bit(1) & ~slot_bit(5);
  std::fill(working[1].begin(), working[1].end(), std::byte{0});
  std::fill(working[5].begin(), working[5].end(), std::byte{0});
  ASSERT_TRUE(rebuild_absent(lrc, working, present).ok());
  EXPECT_EQ(working[1], golden.fragments[1]);
}

}  // namespace
}  // namespace hpres::ec
