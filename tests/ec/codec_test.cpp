// End-to-end erasure codec properties: encode/erase/reconstruct round-trips
// across schemes, (k, m) shapes, sizes and every erasure pattern.
#include "ec/codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <tuple>

#include "common/bytes.h"
#include "common/rng.h"
#include "ec/cauchy_rs.h"
#include "ec/chunker.h"
#include "ec/lrc.h"
#include "ec/raid6.h"
#include "ec/rs_vandermonde.h"

namespace hpres::ec {
namespace {

struct Encoded {
  ChunkLayout layout;
  std::vector<Bytes> fragments;  // k data then m parity
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

/// Zeroes the erased fragments, reconstructs, and checks byte-exactness of
/// every fragment plus the re-joined value.
void expect_full_recovery(const Codec& codec, ConstByteSpan value,
                          const std::vector<bool>& present) {
  const Encoded golden = encode_value(codec, value);
  std::vector<Bytes> working = golden.fragments;
  for (std::size_t i = 0; i < present.size(); ++i) {
    if (!present[i]) std::fill(working[i].begin(), working[i].end(), std::byte{0});
  }
  std::vector<ByteSpan> spans(working.begin(), working.end());
  ASSERT_TRUE(codec.reconstruct(spans, present).ok());
  for (std::size_t i = 0; i < working.size(); ++i) {
    EXPECT_EQ(working[i], golden.fragments[i]) << "fragment " << i;
  }
  std::vector<ConstByteSpan> data(
      working.begin(), working.begin() + static_cast<std::ptrdiff_t>(codec.k()));
  const Result<Bytes> joined = join_fragments(data, golden.layout);
  ASSERT_TRUE(joined.ok());
  EXPECT_TRUE(std::equal(joined->begin(), joined->end(), value.begin(),
                         value.end()));
}

using Shape = std::tuple<Scheme, std::size_t, std::size_t>;  // scheme, k, m

std::string shape_name(const ::testing::TestParamInfo<Shape>& info) {
  const auto scheme = std::get<0>(info.param);
  return std::string(to_string(scheme)) + "_k" +
         std::to_string(std::get<1>(info.param)) + "m" +
         std::to_string(std::get<2>(info.param));
}

class CodecRoundTrip : public ::testing::TestWithParam<Shape> {
 protected:
  [[nodiscard]] std::unique_ptr<Codec> codec() const {
    const auto [scheme, k, m] = GetParam();
    return make_codec(scheme, k, m);
  }
};

TEST_P(CodecRoundTrip, EveryErasurePatternRecovers) {
  const auto c = codec();
  const Bytes value = make_pattern(4096 + 17, /*seed=*/100);
  const std::size_t n = c->n();
  // All subsets of erased fragments with |erased| <= m.
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    if (static_cast<std::size_t>(std::popcount(mask)) > c->m()) continue;
    std::vector<bool> present(n, true);
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) present[i] = false;
    }
    expect_full_recovery(*c, value, present);
  }
}

TEST_P(CodecRoundTrip, TooManyErasuresRejected) {
  const auto c = codec();
  if (c->m() == c->n()) GTEST_SKIP();
  const Encoded enc = encode_value(*c, make_pattern(1024, 7));
  std::vector<Bytes> working = enc.fragments;
  std::vector<ByteSpan> spans(working.begin(), working.end());
  std::vector<bool> present(c->n(), true);
  for (std::size_t i = 0; i <= c->m(); ++i) present[i % c->n()] = false;
  const Status s = c->reconstruct(spans, present);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kTooManyFailures);
}

TEST_P(CodecRoundTrip, SizesIncludingUnalignedTails) {
  const auto c = codec();
  for (const std::size_t size : {std::size_t{1}, std::size_t{3},
                                 std::size_t{1024}, std::size_t{1025},
                                 std::size_t{65536 + 13}}) {
    const Bytes value = make_pattern(size, size);
    std::vector<bool> present(c->n(), true);
    present[0] = false;  // worst common case: primary data fragment lost
    expect_full_recovery(*c, value, present);
  }
}

TEST_P(CodecRoundTrip, ReconstructDataSkipsParityRepair) {
  const auto c = codec();
  if (c->m() == 0) GTEST_SKIP();
  const Bytes value = make_pattern(2048, 9);
  const Encoded golden = encode_value(*c, value);
  std::vector<Bytes> working = golden.fragments;
  std::vector<bool> present(c->n(), true);
  present[0] = false;
  present[c->k()] = false;  // one data + one parity erased
  if (c->m() < 2) present[c->k()] = true;
  std::fill(working[0].begin(), working[0].end(), std::byte{0});
  std::vector<ByteSpan> spans(working.begin(), working.end());
  ASSERT_TRUE(c->reconstruct_data(spans, present).ok());
  EXPECT_EQ(working[0], golden.fragments[0]);  // data repaired
}

TEST_P(CodecRoundTrip, EncodeIsDeterministic) {
  const auto c = codec();
  const Bytes value = make_pattern(8192, 11);
  const Encoded a = encode_value(*c, value);
  const Encoded b = encode_value(*c, value);
  EXPECT_EQ(a.fragments, b.fragments);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CodecRoundTrip,
    ::testing::Values(
        // The paper's headline configuration: RS(3,2) on a 5-node cluster.
        Shape{Scheme::kRsVandermonde, 3, 2},
        Shape{Scheme::kCauchyRs, 3, 2}, Shape{Scheme::kRaid6, 3, 2},
        // Wider / narrower shapes.
        Shape{Scheme::kRsVandermonde, 1, 1},
        Shape{Scheme::kRsVandermonde, 2, 1},
        Shape{Scheme::kRsVandermonde, 4, 2},
        Shape{Scheme::kRsVandermonde, 6, 3},
        Shape{Scheme::kRsVandermonde, 10, 4},
        Shape{Scheme::kCauchyRs, 2, 2}, Shape{Scheme::kCauchyRs, 6, 3},
        Shape{Scheme::kRaid6, 8, 2}, Shape{Scheme::kRaid6, 4, 1}),
    shape_name);

// --- Cross-scheme agreements ------------------------------------------------

TEST(CodecCross, AllSchemesAreSystematic) {
  // Data fragments pass through unchanged: fragment i of the encoding
  // equals slice i of the (padded) value for every scheme.
  const Bytes value = make_pattern(3000, 5);
  for (const Scheme s :
       {Scheme::kRsVandermonde, Scheme::kCauchyRs, Scheme::kRaid6}) {
    const auto c = make_codec(s, 3, 2);
    const Encoded enc = encode_value(*c, value);
    const std::vector<Bytes> plain = split_value(value, enc.layout);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(enc.fragments[i], plain[i]) << to_string(s) << " frag " << i;
    }
  }
}

TEST(CodecCross, Raid6FirstParityIsXorOfData) {
  const auto c = make_codec(Scheme::kRaid6, 5, 2);
  const Bytes value = make_pattern(5 * 64, 21);
  const Encoded enc = encode_value(*c, value);
  Bytes expect = enc.fragments[0];
  for (std::size_t i = 1; i < 5; ++i) {
    GF256::xor_region(enc.fragments[i], expect);
  }
  EXPECT_EQ(enc.fragments[5], expect);
}

TEST(CodecCross, StorageOverheadMatchesTheory) {
  // RS(3,2) stores N/K = 5/3 of the original data: the paper's memory
  // efficiency argument (vs 3x for replication).
  const auto c = make_codec(Scheme::kRsVandermonde, 3, 2);
  const std::size_t value_size = 3 * 4096;
  const Encoded enc = encode_value(*c, make_pattern(value_size, 3));
  std::size_t stored = 0;
  for (const auto& f : enc.fragments) stored += f.size();
  EXPECT_EQ(stored, value_size * 5 / 3);
}

// --- Read-set selection ------------------------------------------------------

/// Brute-force oracle: the lexicographically first k-subset of the
/// available slots whose generator rows are independent — data slots have
/// the lowest indices, so it prefers data — or nullopt when none decodes.
std::optional<std::vector<std::size_t>> first_decodable_subset(
    const MatrixCodec& c, const std::vector<bool>& available) {
  std::vector<std::size_t> avail;
  for (std::size_t i = 0; i < c.n(); ++i) {
    if (available[i]) avail.push_back(i);
  }
  const std::size_t k = c.k();
  if (avail.size() < k) return std::nullopt;
  std::vector<std::size_t> pick(k);  // indices into avail, increasing
  for (std::size_t i = 0; i < k; ++i) pick[i] = i;
  for (;;) {
    std::vector<std::size_t> subset(k);
    for (std::size_t i = 0; i < k; ++i) subset[i] = avail[pick[i]];
    if (c.generator().select_rows(subset).inverted().ok()) return subset;
    std::size_t i = k;
    while (i > 0 && pick[i - 1] == avail.size() - k + i - 1) --i;
    if (i == 0) return std::nullopt;
    ++pick[i - 1];
    for (std::size_t j = i; j < k; ++j) pick[j] = pick[j - 1] + 1;
  }
}

TEST(SelectReadSet, EmptyPreferenceMatchesFirstDecodableSubset) {
  const RsVandermondeCodec rs32(3, 2);
  const RsVandermondeCodec rs63(6, 3);
  const CauchyRsCodec crs(3, 2);
  const Raid6Codec raid6(4, 2);
  const LrcCodec lrc(6, 2, 2);
  const std::vector<const MatrixCodec*> codecs{&rs32, &rs63, &crs, &raid6,
                                               &lrc};
  for (const MatrixCodec* c : codecs) {
    const std::size_t n = c->n();
    for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
      std::vector<bool> available(n, false);
      for (std::size_t i = 0; i < n; ++i) available[i] = (mask >> i) & 1u;
      const auto expect = first_decodable_subset(*c, available);
      const Result<std::vector<std::size_t>> got =
          c->select_read_set(available);
      if (expect) {
        ASSERT_TRUE(got.ok()) << c->name() << " mask " << mask;
        EXPECT_EQ(*got, *expect) << c->name() << " mask " << mask;
      } else {
        ASSERT_FALSE(got.ok()) << c->name() << " mask " << mask;
        EXPECT_EQ(got.status().code(), StatusCode::kTooManyFailures);
      }
    }
  }
}

TEST(CodecFactory, NamesAreStable) {
  EXPECT_EQ(make_codec(Scheme::kRsVandermonde, 3, 2)->name(), "rs_van");
  EXPECT_EQ(make_codec(Scheme::kCauchyRs, 3, 2)->name(), "crs");
  EXPECT_EQ(make_codec(Scheme::kRaid6, 3, 2)->name(), "raid6");
}

}  // namespace
}  // namespace hpres::ec
