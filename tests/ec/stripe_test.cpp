// Packed-stripe record framing, sub-slot addressing and footprint math.
#include "ec/stripe.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bytes.h"
#include "kv/protocol.h"

namespace hpres::ec {
namespace {

TEST(Stripe, AppendParseRoundTrip) {
  Bytes stripe;
  const Bytes v1 = make_pattern(100, 1);
  const Bytes v2 = make_pattern(0, 2);  // empty value is legal
  const Bytes v3 = make_pattern(1, 3);
  const std::size_t o1 = stripe_append(stripe, "alpha", v1);
  const std::size_t o2 = stripe_append(stripe, "b", v2);
  const std::size_t o3 = stripe_append(stripe, "gamma-key", v3);
  EXPECT_EQ(o1, kStripeRecordHeader + 5);
  EXPECT_EQ(stripe.size(), stripe_record_bytes(5, 100) +
                               stripe_record_bytes(1, 0) +
                               stripe_record_bytes(9, 1));

  const Result<std::vector<StripeRecord>> parsed = stripe_parse(stripe);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 3u);
  EXPECT_EQ((*parsed)[0].key, "alpha");
  EXPECT_EQ((*parsed)[0].value_offset, o1);
  EXPECT_EQ((*parsed)[0].value_len, 100u);
  EXPECT_EQ((*parsed)[1].key, "b");
  EXPECT_EQ((*parsed)[1].value_offset, o2);
  EXPECT_EQ((*parsed)[1].value_len, 0u);
  EXPECT_EQ((*parsed)[2].key, "gamma-key");
  EXPECT_EQ((*parsed)[2].value_offset, o3);
  // The appended value bytes sit exactly where the offsets claim.
  EXPECT_EQ(Bytes(stripe.begin() + static_cast<std::ptrdiff_t>(o1),
                  stripe.begin() + static_cast<std::ptrdiff_t>(o1 + 100)),
            v1);
}

TEST(Stripe, ParseRejectsTruncatedFraming) {
  Bytes stripe;
  stripe_append(stripe, "key", make_pattern(10, 4));
  Bytes cut_header(stripe.begin(), stripe.begin() + 3);  // mid-header
  EXPECT_FALSE(stripe_parse(cut_header).ok());
  Bytes cut_body(stripe.begin(), stripe.end() - 1);  // body short one byte
  EXPECT_FALSE(stripe_parse(cut_body).ok());
}

TEST(Stripe, OwningFragmentsCoversSubSlotRanges) {
  const ChunkLayout layout = make_layout(400, 4, 1);  // fragment = 100
  // Entirely inside fragment 1.
  FragmentRange r = owning_fragments(layout, 150, 30);
  EXPECT_EQ(r.first, 1u);
  EXPECT_EQ(r.last, 1u);
  EXPECT_EQ(r.count(), 1u);
  // Straddles the 1|2 boundary.
  r = owning_fragments(layout, 190, 20);
  EXPECT_EQ(r.first, 1u);
  EXPECT_EQ(r.last, 2u);
  // Ends exactly on a boundary: byte 199 is the last touched.
  r = owning_fragments(layout, 150, 50);
  EXPECT_EQ(r.last, 1u);
  // Empty range pins to the offset's fragment.
  r = owning_fragments(layout, 200, 0);
  EXPECT_EQ(r.first, 2u);
  EXPECT_EQ(r.last, 2u);
  // Tail of the padded region clamps to the last data slot.
  r = owning_fragments(layout, 399, 1);
  EXPECT_EQ(r.last, 3u);
}

TEST(Stripe, ExtractFromFragmentsSplicesExactBytes) {
  // Build a stripe, split it like the commit path does, then extract each
  // record's value from only its owning fragments.
  Bytes stripe;
  std::vector<std::string> keys;
  std::vector<Bytes> values;
  std::vector<std::size_t> offsets;
  for (int i = 0; i < 12; ++i) {
    keys.push_back("user" + std::to_string(i));
    values.push_back(make_pattern(37 + static_cast<std::size_t>(i) * 11,
                                  static_cast<std::size_t>(i)));
    offsets.push_back(stripe_append(stripe, keys.back(), values.back()));
  }
  const ChunkLayout layout = make_layout(stripe.size(), 4, 1);
  const std::vector<Bytes> frags = split_value(stripe, layout);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const FragmentRange range =
        owning_fragments(layout, offsets[i], values[i].size());
    std::vector<ConstByteSpan> spans;
    for (std::size_t s = range.first; s <= range.last; ++s) {
      spans.emplace_back(frags[s]);
    }
    const Result<Bytes> got = extract_from_fragments(
        spans, range, layout, offsets[i], values[i].size());
    ASSERT_TRUE(got.ok()) << "record " << i;
    EXPECT_EQ(*got, values[i]) << "record " << i;
  }
}

TEST(Stripe, ExtractRejectsWrongFragmentCountOrSize) {
  const ChunkLayout layout = make_layout(400, 4, 1);
  const FragmentRange range{1, 2};
  const Bytes good(layout.fragment_size);
  const Bytes bad(layout.fragment_size - 1);
  {
    const std::vector<ConstByteSpan> one{good};  // range wants two
    EXPECT_FALSE(extract_from_fragments(one, range, layout, 150, 100).ok());
  }
  {
    const std::vector<ConstByteSpan> sized{good, bad};
    EXPECT_FALSE(extract_from_fragments(sized, range, layout, 150, 100).ok());
  }
}

TEST(Stripe, FootprintPackedBeatsStripedForSmallValues) {
  // The ISSUE acceptance point: 128 B values, RS(4,2), 16 KiB stripes.
  FootprintParams p;
  p.key_size = 16;
  p.value_size = 128;
  p.k = 4;
  p.m = 2;
  p.alignment = 1;
  p.stripe_capacity = 16 * 1024;
  p.stripe_key_size = 8;
  p.item_overhead = 56;        // kv::Store kItemOverhead
  p.chunk_info_bytes = 16;     // kv::kChunkInfoBytes
  p.locator_entry_overhead = kv::kLocatorEntryBytes;
  const StorageFootprint f = predict_footprint(p);
  EXPECT_GE(f.savings_ratio, 2.0);
  EXPECT_GT(f.striped_per_key, f.packed_per_key);
}

TEST(Stripe, FootprintConvergesForLargeValues) {
  // Near the pack threshold the padding amortization vanishes and the two
  // paths cost about the same — the crossover the sweep bench looks for.
  FootprintParams p;
  p.key_size = 16;
  p.value_size = 64 * 1024;
  p.k = 4;
  p.m = 2;
  p.alignment = 1;
  p.stripe_capacity = 128 * 1024;
  p.stripe_key_size = 8;
  p.item_overhead = 56;
  p.chunk_info_bytes = 16;
  p.locator_entry_overhead = kv::kLocatorEntryBytes;
  const StorageFootprint f = predict_footprint(p);
  EXPECT_LT(f.savings_ratio, 1.3);
  EXPECT_GT(f.savings_ratio, 0.8);
}

}  // namespace
}  // namespace hpres::ec
