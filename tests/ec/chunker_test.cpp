// Value <-> fragment layout math and round-trips, and the encode /
// assemble / rebuild step every writer and reader shares.
#include "ec/chunker.h"

#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <optional>

#include "common/bytes.h"
#include "ec/codec.h"
#include "ec/lrc.h"
#include "ec/stripe.h"

namespace hpres::ec {
namespace {

/// The whole value out of its k data fragments, as a healthy Get copies it.
Result<Bytes> join(std::span<const ConstByteSpan> data,
                   const ChunkLayout& layout) {
  return extract_from_fragments(data, FragmentRange{0, layout.k - 1}, layout,
                                0, layout.original_size);
}

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
  const Result<Bytes> joined = join(spans, layout);
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
  const Result<Bytes> joined = join(spans, layout);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(*joined, value);
}

TEST(Chunker, ExactlyKTimesAlignmentHasNoPadding) {
  const ChunkLayout layout = make_layout(4 * 8, 4, 8);
  EXPECT_EQ(layout.fragment_size, 8u);  // no rounding slack
  const Bytes value = make_pattern(32, 2);
  const std::vector<Bytes> frags = split_value(value, layout);
  const std::vector<ConstByteSpan> spans(frags.begin(), frags.end());
  const Result<Bytes> joined = join(spans, layout);
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
      const Result<Bytes> joined = join(spans, layout);
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
  EXPECT_EQ(join(two, layout).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Chunker, JoinRejectsWrongFragmentSize) {
  const ChunkLayout layout = make_layout(100, 2, 1);
  const Bytes good(layout.fragment_size);
  const Bytes bad(layout.fragment_size + 1);
  const std::vector<ConstByteSpan> frags{good, bad};
  EXPECT_EQ(join(frags, layout).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Chunker, JoinRejectsInconsistentLayout) {
  ChunkLayout layout = make_layout(100, 2, 1);
  layout.original_size = 1000;  // exceeds k * fragment_size
  const Bytes frag(layout.fragment_size);
  const std::vector<ConstByteSpan> frags{frag, frag};
  EXPECT_EQ(join(frags, layout).status().code(),
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
  for (const auto& codec : all_codecs()) {
    const std::size_t n = codec->n();
    const Bytes value = make_pattern(1000 + 13, n);
    const ChunkLayout layout =
        make_layout(value.size(), codec->k(), codec->alignment());
    const Fragments encoded =
        encode_value(*codec, value, value.size(), /*materialize=*/true);
    for (std::size_t s = 0; s < kMaxSlots; ++s) {
      ASSERT_EQ(encoded[s] != nullptr, s < n) << codec->name() << " " << s;
    }
    // A slice that straddles the first fragment boundary.
    const ValueSlice slice{layout.fragment_size - 5, 40};
    for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
      if (static_cast<std::size_t>(std::popcount(mask)) > codec->m()) continue;
      const Result<ReadSet> sources =
          codec->select(codec->data_mask(), codec->all_slots() & ~mask);
      if (!sources.ok()) {
        // Only LRC has undecodable patterns of at most m erasures.
        EXPECT_EQ(codec->name(), "lrc") << "mask " << mask;
        continue;
      }
      // Only the bound read set is handed over; every other slot is null.
      std::vector<SharedBytes> fetched(n);
      for (const std::size_t s : *sources) fetched[s] = encoded[s];
      const Result<Bytes> whole =
          assemble(*codec, fetched, *sources, layout, std::nullopt, true);
      ASSERT_TRUE(whole.ok()) << codec->name() << " mask " << mask;
      EXPECT_EQ(*whole, value) << codec->name() << " mask " << mask;
      const Result<Bytes> part =
          assemble(*codec, fetched, *sources, layout, slice, true);
      ASSERT_TRUE(part.ok()) << codec->name() << " mask " << mask;
      EXPECT_EQ(*part, slice_of(value, slice.offset, slice.len))
          << codec->name() << " mask " << mask;
    }
  }
}

TEST(FragmentStep, EncodeBuildsZeroPaddedFragmentsInPlace) {
  // Fragments are filled in uninitialized buffers: the data slots must
  // still hold split_value's zero-padded shares, and parity the codec's
  // encode of them, byte for byte.
  for (const auto& codec : all_codecs()) {
    const std::size_t k = codec->k();
    const Bytes value = make_pattern(1000 + 13, 5);
    const ChunkLayout layout =
        make_layout(value.size(), k, codec->alignment());
    ASSERT_LT(value.size(), k * layout.fragment_size) << codec->name();
    const Fragments encoded =
        encode_value(*codec, value, value.size(), /*materialize=*/true);
    const std::vector<Bytes> data = split_value(value, layout);
    std::vector<Bytes> parity(codec->m(), Bytes(layout.fragment_size));
    const std::vector<ConstByteSpan> in(data.begin(), data.end());
    std::vector<ByteSpan> out(parity.begin(), parity.end());
    codec->encode(in, out);
    for (std::size_t s = 0; s < codec->n(); ++s) {
      EXPECT_EQ(*encoded[s], s < k ? data[s] : parity[s - k])
          << codec->name() << " slot " << s;
    }
  }
}

TEST(FragmentStep, SizeOnlyEncodeReturnsSharedPlaceholders) {
  for (const auto& codec : all_codecs()) {
    const ChunkLayout layout = make_layout(1000, codec->k(), codec->alignment());
    const Fragments all =
        encode_value(*codec, {}, 1000, /*materialize=*/false);
    const std::span<const SharedBytes> frags(all.data(), codec->n());
    for (const SharedBytes& f : frags) {
      ASSERT_NE(f, nullptr);
      EXPECT_EQ(f->size(), layout.fragment_size);
      EXPECT_EQ(f, frags[0]);  // one shared buffer, no per-slot allocation
    }
    EXPECT_EQ(all[codec->n()], nullptr);
    const ReadSet healthy =
        codec->select(codec->data_mask(), codec->data_mask()).value();
    const Result<Bytes> value = assemble(*codec, frags, healthy, layout,
                                         std::nullopt, /*materialize=*/false);
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
  [[nodiscard]] Result<ReadSet> select(
      SlotMask want, SlotMask available,
      std::span<const std::size_t> preference = {}) const override {
    return inner_->select(want, available, preference);
  }
  [[nodiscard]] Status decode(const ReadSet& sources,
                              std::span<const ConstByteSpan> fragments,
                              SlotMask want,
                              std::span<const ByteSpan> outputs) const override {
    ++decodes;
    return inner_->decode(sources, fragments, want, outputs);
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
  Fragments encoded = encode_value(codec, value, value.size(), true);
  const std::span<SharedBytes> frags(encoded.data(), codec.n());
  frags[3] = nullptr;  // parity never fetched
  frags[4] = nullptr;
  const ReadSet healthy =
      codec.select(codec.data_mask(), codec.data_mask()).value();
  const Result<Bytes> got =
      assemble(codec, frags, healthy, layout, std::nullopt, true);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, value);
  EXPECT_EQ(codec.decodes, 0);

  // A slice whose fragment is a source needs no decode even when another
  // data slot is missing from the read set.
  const ReadSet degraded =
      codec.select(codec.data_mask(), codec.all_slots() & ~slot_bit(0))
          .value();
  ASSERT_EQ(degraded.mask(), slot_bit(1) | slot_bit(2) | slot_bit(3));
  frags[3] = encode_value(codec, value, value.size(), true)[3];
  const Result<Bytes> part = assemble(codec, frags, degraded, layout,
                                      ValueSlice{1500, 200}, true);
  ASSERT_TRUE(part.ok());
  EXPECT_EQ(*part, slice_of(value, 1500, 200));
  EXPECT_EQ(codec.decodes, 0);
  // The whole value does need slot 0 rebuilt.
  const Result<Bytes> whole =
      assemble(codec, frags, degraded, layout, std::nullopt, true);
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(*whole, value);
  EXPECT_EQ(codec.decodes, 1);
}

TEST(FragmentStep, AssembleRejectsAWrongLengthSourceOnEveryPath) {
  // A torn write leaves a fragment of another length. Whichever path reads
  // it, copying it out or decoding from it, assemble must refuse it, and
  // read the same fragments fine once the torn one is whole again.
  const auto codec = make_codec(Scheme::kRsVandermonde, 3, 2);
  const Bytes value = make_pattern(3000, 17);
  const ChunkLayout layout = make_layout(value.size(), 3, 1);  // 1000 each
  const Fragments encoded = encode_value(*codec, value, value.size(), true);
  struct Case {
    const char* path;
    SlotMask lost;                     ///< slots the read set avoids
    std::optional<ValueSlice> slice;  ///< nullopt: the whole value
    std::size_t torn;                 ///< a slot the read reads
  };
  const Case cases[] = {
      {"healthy whole", 0, std::nullopt, 1},
      {"healthy slice", 0, ValueSlice{1500, 200}, 1},
      {"degraded whole, torn data source", slot_bit(0), std::nullopt, 2},
      {"degraded whole, torn parity source", slot_bit(0), std::nullopt, 3},
      {"degraded slice, torn source in the slice", slot_bit(0),
       ValueSlice{900, 200}, 1},
      {"degraded slice, torn source outside it", slot_bit(0),
       ValueSlice{100, 200}, 3},
  };
  for (const Case& c : cases) {
    const ReadSet sources =
        codec->select(codec->data_mask(), codec->all_slots() & ~c.lost)
            .value();
    ASSERT_TRUE(sources.contains(c.torn)) << c.path;
    std::vector<SharedBytes> fetched(codec->n());
    for (const std::size_t s : sources) fetched[s] = encoded[s];
    const Bytes whole_fragment(*encoded[c.torn]);
    for (const std::size_t torn_size :
         {layout.fragment_size - 1, layout.fragment_size + 1}) {
      Bytes torn = whole_fragment;
      torn.resize(torn_size);
      fetched[c.torn] = make_shared_bytes(std::move(torn));
      const Result<Bytes> got =
          assemble(*codec, fetched, sources, layout, c.slice, true);
      EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument)
          << c.path << ", " << torn_size << " bytes";
    }
    fetched[c.torn] = encoded[c.torn];
    const Result<Bytes> got =
        assemble(*codec, fetched, sources, layout, c.slice, true);
    ASSERT_TRUE(got.ok()) << c.path;
    EXPECT_EQ(*got, c.slice ? slice_of(value, c.slice->offset, c.slice->len)
                            : value)
        << c.path;
  }
}

TEST(FragmentStep, RebuildFragmentsRestoresDataAndParity) {
  for (const auto& codec : all_codecs()) {
    const Bytes value = make_pattern(777, 8);
    const ChunkLayout layout =
        make_layout(value.size(), codec->k(), codec->alignment());
    const Fragments encoded = encode_value(*codec, value, value.size(), true);
    // Lose the first data slot and the last parity slot.
    const std::vector<std::size_t> lost_slots{0, codec->n() - 1};
    const SlotMask lost = slot_bit(0) | slot_bit(codec->n() - 1);
    const Result<ReadSet> sources =
        codec->select(lost, codec->all_slots() & ~lost);
    ASSERT_TRUE(sources.ok()) << codec->name();
    std::vector<SharedBytes> fetched(codec->n());
    for (const std::size_t s : *sources) fetched[s] = encoded[s];
    const Result<Fragments> rebuilt = rebuild_fragments(
        *codec, fetched, *sources, lost, layout.fragment_size, true);
    ASSERT_TRUE(rebuilt.ok()) << codec->name();
    for (const std::size_t s : lost_slots) {
      ASSERT_NE((*rebuilt)[s], nullptr);
      EXPECT_EQ(*(*rebuilt)[s], *encoded[s]) << codec->name() << " slot " << s;
    }
    const Result<Fragments> sized = rebuild_fragments(
        *codec, fetched, *sources, lost, layout.fragment_size, false);
    ASSERT_TRUE(sized.ok());
    for (const std::size_t s : lost_slots) {
      EXPECT_EQ((*sized)[s]->size(), layout.fragment_size);
    }
  }
}

TEST(Chunker, DegradedReadsSourcesInPlace) {
  for (const auto& codec : all_codecs()) {
    const std::size_t n = codec->n();
    const Bytes value = make_pattern(2000 + 3, 11);
    const ChunkLayout layout =
        make_layout(value.size(), codec->k(), codec->alignment());
    const Fragments encoded =
        encode_value(*codec, value, value.size(), /*materialize=*/true);
    std::vector<Bytes> before(n);
    for (std::size_t s = 0; s < n; ++s) before[s] = Bytes(*encoded[s]);
    // Each read hands over only its read set; the buffers stay shared with
    // `encoded`, so a write or a reallocation would show there.
    const auto fetch = [&](const ReadSet& sources) {
      std::vector<SharedBytes> fetched(n);
      for (const std::size_t s : sources) fetched[s] = encoded[s];
      return fetched;
    };
    const auto expect_sources_untouched = [&](const ReadSet& sources,
                                              const char* step) {
      for (const std::size_t s : sources) {
        EXPECT_EQ(*encoded[s], before[s])
            << codec->name() << " " << step << " slot " << s;
      }
    };

    // A Get that lost data slot 0 reads a parity slot in its place.
    const Result<ReadSet> get =
        codec->select(codec->data_mask(), codec->all_slots() & ~slot_bit(0));
    ASSERT_TRUE(get.ok()) << codec->name();
    ASSERT_FALSE(get->contains(0));
    const Result<Bytes> whole =
        assemble(*codec, fetch(*get), *get, layout, std::nullopt, true);
    ASSERT_TRUE(whole.ok()) << codec->name();
    EXPECT_EQ(*whole, value) << codec->name();
    expect_sources_untouched(*get, "assemble");

    // A repair of data slot 0 and the last parity.
    const SlotMask lost = slot_bit(0) | slot_bit(n - 1);
    const Result<ReadSet> repair =
        codec->select(lost, codec->all_slots() & ~lost);
    ASSERT_TRUE(repair.ok()) << codec->name();
    const Result<Fragments> rebuilt =
        rebuild_fragments(*codec, fetch(*repair), *repair, lost,
                          layout.fragment_size, true);
    ASSERT_TRUE(rebuilt.ok()) << codec->name();
    for (std::size_t s = 0; s < kMaxSlots; ++s) {
      ASSERT_EQ((*rebuilt)[s] != nullptr, has_slot(lost, s)) << s;
      if (has_slot(lost, s)) {
        EXPECT_EQ(*(*rebuilt)[s], before[s]) << s;
        // Decoded straight into a fresh block the caller alone holds.
        EXPECT_EQ((*rebuilt)[s].use_count(), 1u)
            << codec->name() << " rebuild slot " << s;
      }
    }
    expect_sources_untouched(*repair, "rebuild");
  }
}

}  // namespace
}  // namespace hpres::ec
