// Value <-> fragment layout math and round-trips, and the encode /
// assemble / rebuild step every writer and reader shares.
#include "ec/chunker.h"

#include <gtest/gtest.h>

#include <bit>
#include <memory>

#include "common/bytes.h"
#include "ec/codec.h"
#include "ec/lrc.h"

namespace hpres::ec {
namespace {

TEST(Chunker, LayoutDividesEvenly) {
  const ChunkLayout l = make_layout(3000, 3, 1);
  EXPECT_EQ(l.fragment_size, 1000u);
  EXPECT_EQ(l.original_size, 3000u);
}

TEST(Chunker, LayoutRoundsUpToK) {
  const ChunkLayout l = make_layout(3001, 3, 1);
  EXPECT_EQ(l.fragment_size, 1001u);
}

TEST(Chunker, LayoutAlignsFragment) {
  const ChunkLayout l = make_layout(3001, 3, 8);
  EXPECT_EQ(l.fragment_size, 1008u);
  EXPECT_EQ(l.fragment_size % 8, 0u);
}

TEST(Chunker, ZeroSizeValueStillHasNonEmptyFragments) {
  const ChunkLayout l = make_layout(0, 3, 8);
  EXPECT_EQ(l.fragment_size, 8u);
  const std::vector<Bytes> frags = split_value({}, l);
  ASSERT_EQ(frags.size(), 3u);
  for (const auto& f : frags) EXPECT_EQ(f.size(), 8u);
}

TEST(Chunker, ValueSmallerThanAlignmentRoundTrips) {
  // A 3-byte value with k=4, alignment 8: every fragment is one alignment
  // unit and the value lives entirely inside fragment 0.
  const Bytes value = make_pattern(3, 9);
  const ChunkLayout layout = make_layout(3, 4, 8);
  EXPECT_EQ(layout.fragment_size, 8u);
  const std::vector<Bytes> frags = split_value(value, layout);
  ASSERT_EQ(frags.size(), 4u);
  const std::vector<ConstByteSpan> spans(frags.begin(), frags.end());
  const Result<Bytes> joined = join_fragments(spans, layout);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(*joined, value);
}

TEST(Chunker, ValueSmallerThanKBytesRoundTrips) {
  // Fewer bytes than data fragments: with alignment 1 each fragment is a
  // single byte and the trailing ones are pure padding.
  const Bytes value = make_pattern(2, 5);
  const ChunkLayout layout = make_layout(2, 4, 1);
  EXPECT_EQ(layout.fragment_size, 1u);
  const std::vector<Bytes> frags = split_value(value, layout);
  ASSERT_EQ(frags.size(), 4u);
  EXPECT_EQ(frags[2][0], std::byte{0});
  EXPECT_EQ(frags[3][0], std::byte{0});
  const std::vector<ConstByteSpan> spans(frags.begin(), frags.end());
  const Result<Bytes> joined = join_fragments(spans, layout);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(*joined, value);
}

TEST(Chunker, ExactlyKTimesAlignmentHasNoPadding) {
  const ChunkLayout layout = make_layout(4 * 8, 4, 8);
  EXPECT_EQ(layout.fragment_size, 8u);  // no rounding slack
  const Bytes value = make_pattern(32, 2);
  const std::vector<Bytes> frags = split_value(value, layout);
  const std::vector<ConstByteSpan> spans(frags.begin(), frags.end());
  const Result<Bytes> joined = join_fragments(spans, layout);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(*joined, value);
}

TEST(Chunker, SplitJoinRoundTripAcrossSizes) {
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{1024},
        std::size_t{1'000'000}, std::size_t{1'048'576}}) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{5}}) {
      const Bytes value = make_pattern(size, size + k);
      const ChunkLayout layout = make_layout(size, k, 8);
      const std::vector<Bytes> frags = split_value(value, layout);
      ASSERT_EQ(frags.size(), k);
      const std::vector<ConstByteSpan> spans(frags.begin(), frags.end());
      const Result<Bytes> joined = join_fragments(spans, layout);
      ASSERT_TRUE(joined.ok()) << "size=" << size << " k=" << k;
      EXPECT_EQ(*joined, value);
    }
  }
}

TEST(Chunker, TailFragmentIsZeroPadded) {
  const Bytes value = make_pattern(10, 1);
  const ChunkLayout layout = make_layout(10, 3, 8);  // fragment 8, holds 24
  const std::vector<Bytes> frags = split_value(value, layout);
  // value fills fragment 0 (8 bytes) and 2 bytes of fragment 1.
  for (std::size_t i = 2; i < 8; ++i) {
    EXPECT_EQ(frags[1][i], std::byte{0});
  }
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(frags[2][i], std::byte{0});
  }
}

TEST(Chunker, JoinRejectsWrongArity) {
  const ChunkLayout layout = make_layout(100, 3, 1);
  const Bytes frag(layout.fragment_size);
  const std::vector<ConstByteSpan> two{frag, frag};
  EXPECT_EQ(join_fragments(two, layout).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Chunker, JoinRejectsWrongFragmentSize) {
  const ChunkLayout layout = make_layout(100, 2, 1);
  const Bytes good(layout.fragment_size);
  const Bytes bad(layout.fragment_size + 1);
  const std::vector<ConstByteSpan> frags{good, bad};
  EXPECT_EQ(join_fragments(frags, layout).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Chunker, JoinRejectsInconsistentLayout) {
  ChunkLayout layout = make_layout(100, 2, 1);
  layout.original_size = 1000;  // exceeds k * fragment_size
  const Bytes frag(layout.fragment_size);
  const std::vector<ConstByteSpan> frags{frag, frag};
  EXPECT_EQ(join_fragments(frags, layout).status().code(),
            StatusCode::kInvalidArgument);
}

// --- encode_value / assemble / rebuild_fragments -------------------------

/// Every codec family the store runs: RS, CRS, RAID-6 and LRC.
std::vector<std::unique_ptr<Codec>> all_codecs() {
  std::vector<std::unique_ptr<Codec>> out;
  out.push_back(make_codec(Scheme::kRsVandermonde, 3, 2));
  out.push_back(make_codec(Scheme::kCauchyRs, 4, 2));
  out.push_back(make_codec(Scheme::kRaid6, 4, 2));
  out.push_back(std::make_unique<LrcCodec>(4, 2, 1));
  return out;
}

/// The bytes [offset, offset + len) of `value`.
Bytes slice_of(const Bytes& value, std::size_t offset, std::size_t len) {
  const auto first = value.begin() + static_cast<std::ptrdiff_t>(offset);
  return {first, first + static_cast<std::ptrdiff_t>(len)};
}

TEST(FragmentStep, EncodeAssembleRoundTripsEveryErasurePattern) {
  FragmentScratch scratch;
  for (const auto& codec : all_codecs()) {
    const std::size_t n = codec->n();
    const Bytes value = make_pattern(1000 + 13, n);
    const ChunkLayout layout =
        make_layout(value.size(), codec->k(), codec->alignment());
    const std::vector<SharedBytes> encoded =
        encode_value(*codec, value, value.size(), /*materialize=*/true);
    ASSERT_EQ(encoded.size(), n);
    // A slice that straddles the first fragment boundary.
    const ValueSlice slice{layout.fragment_size - 5, 40};
    for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
      if (static_cast<std::size_t>(std::popcount(mask)) > codec->m()) continue;
      std::vector<bool> present(n, true);
      for (std::size_t i = 0; i < n; ++i) {
        if ((mask & (1u << i)) != 0) present[i] = false;
      }
      const Result<std::vector<std::size_t>> sources =
          codec->select_sources(codec->data_slots(), present);
      if (!sources.ok()) {
        // Only LRC has undecodable patterns of at most m erasures.
        EXPECT_EQ(codec->name(), "lrc") << "mask " << mask;
        continue;
      }
      // Only the bound read set is handed over; every other slot is null.
      std::vector<SharedBytes> fetched(n);
      for (const std::size_t s : *sources) fetched[s] = encoded[s];
      const Result<Bytes> whole = assemble(*codec, fetched, *sources, layout,
                                           std::nullopt, true, scratch);
      ASSERT_TRUE(whole.ok()) << codec->name() << " mask " << mask;
      EXPECT_EQ(*whole, value) << codec->name() << " mask " << mask;
      const Result<Bytes> part =
          assemble(*codec, fetched, *sources, layout, slice, true, scratch);
      ASSERT_TRUE(part.ok()) << codec->name() << " mask " << mask;
      EXPECT_EQ(*part, slice_of(value, slice.offset, slice.len))
          << codec->name() << " mask " << mask;
    }
  }
}

TEST(FragmentStep, SizeOnlyEncodeReturnsSharedPlaceholders) {
  for (const auto& codec : all_codecs()) {
    const ChunkLayout layout = make_layout(1000, codec->k(), codec->alignment());
    const std::vector<SharedBytes> frags =
        encode_value(*codec, {}, 1000, /*materialize=*/false);
    ASSERT_EQ(frags.size(), codec->n());
    for (const SharedBytes& f : frags) {
      ASSERT_NE(f, nullptr);
      EXPECT_EQ(f->size(), layout.fragment_size);
      EXPECT_EQ(f, frags[0]);  // one shared buffer, no per-slot allocation
    }
    FragmentScratch scratch;
    const Result<Bytes> value =
        assemble(*codec, frags, codec->data_slots(), layout, std::nullopt,
                 /*materialize=*/false, scratch);
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(value->size(), 1000u);
  }
}

/// Forwards to a real codec and counts decode calls.
class CountingCodec final : public Codec {
 public:
  explicit CountingCodec(const Codec& inner)
      : Codec(inner.k(), inner.m()), inner_(&inner) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  void encode(std::span<const ConstByteSpan> data,
              std::span<ByteSpan> parity) const override {
    inner_->encode(data, parity);
  }
  [[nodiscard]] std::size_t alignment() const noexcept override {
    return inner_->alignment();
  }
  [[nodiscard]] Result<std::vector<std::size_t>> select_sources(
      std::span<const std::size_t> want, const std::vector<bool>& available,
      std::span<const std::size_t> preference) const override {
    return inner_->select_sources(want, available, preference);
  }
  [[nodiscard]] Status decode(std::span<const ByteSpan> fragments,
                              std::span<const std::size_t> sources,
                              std::span<const std::size_t> want) const override {
    ++decodes;
    return inner_->decode(fragments, sources, want);
  }
  mutable int decodes = 0;

 private:
  const Codec* inner_;
};

TEST(FragmentStep, HealthyAssembleWithNullParityNeverDecodes) {
  const auto rs = make_codec(Scheme::kRsVandermonde, 3, 2);
  CountingCodec codec(*rs);
  const Bytes value = make_pattern(3000, 4);
  const ChunkLayout layout = make_layout(value.size(), 3, 1);
  std::vector<SharedBytes> frags = encode_value(codec, value, value.size(), true);
  frags[3] = nullptr;  // parity never fetched
  frags[4] = nullptr;
  FragmentScratch scratch;
  const Result<Bytes> got = assemble(codec, frags, codec.data_slots(), layout,
                                     std::nullopt, true, scratch);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, value);
  EXPECT_EQ(codec.decodes, 0);
  EXPECT_TRUE(scratch.storage.empty());  // nothing copied either

  // A slice whose fragment is a source needs no decode even when another
  // data slot is missing from the read set.
  const std::vector<std::size_t> degraded{1, 2, 3};
  frags[3] = encode_value(codec, value, value.size(), true)[3];
  const Result<Bytes> part = assemble(codec, frags, degraded, layout,
                                      ValueSlice{1500, 200}, true, scratch);
  ASSERT_TRUE(part.ok());
  EXPECT_EQ(*part, slice_of(value, 1500, 200));
  EXPECT_EQ(codec.decodes, 0);
  // The whole value does need slot 0 rebuilt.
  const Result<Bytes> whole = assemble(codec, frags, degraded, layout,
                                       std::nullopt, true, scratch);
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(*whole, value);
  EXPECT_EQ(codec.decodes, 1);
}

TEST(FragmentStep, RebuildFragmentsRestoresDataAndParity) {
  for (const auto& codec : all_codecs()) {
    const Bytes value = make_pattern(777, 8);
    const ChunkLayout layout =
        make_layout(value.size(), codec->k(), codec->alignment());
    const std::vector<SharedBytes> encoded =
        encode_value(*codec, value, value.size(), true);
    // Lose the first data slot and the last parity slot.
    const std::vector<std::size_t> lost{0, codec->n() - 1};
    std::vector<bool> present(codec->n(), true);
    for (const std::size_t s : lost) present[s] = false;
    const Result<std::vector<std::size_t>> sources =
        codec->select_sources(lost, present);
    ASSERT_TRUE(sources.ok()) << codec->name();
    std::vector<SharedBytes> fetched(codec->n());
    for (const std::size_t s : *sources) fetched[s] = encoded[s];
    FragmentScratch scratch;
    const Result<std::vector<SharedBytes>> rebuilt = rebuild_fragments(
        *codec, fetched, *sources, lost, layout.fragment_size, true, scratch);
    ASSERT_TRUE(rebuilt.ok()) << codec->name();
    for (const std::size_t s : lost) {
      ASSERT_NE((*rebuilt)[s], nullptr);
      EXPECT_EQ(*(*rebuilt)[s], *encoded[s]) << codec->name() << " slot " << s;
    }
    const Result<std::vector<SharedBytes>> sized = rebuild_fragments(
        *codec, fetched, *sources, lost, layout.fragment_size, false, scratch);
    ASSERT_TRUE(sized.ok());
    for (const std::size_t s : lost) {
      EXPECT_EQ((*sized)[s]->size(), layout.fragment_size);
    }
  }
}

}  // namespace
}  // namespace hpres::ec
