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

/// Rebuilds every absent slot as a repair does: the codec selects the
/// sources for the lost slots, then decodes from exactly those.
Status rebuild_absent(const Codec& codec, std::span<const ByteSpan> spans,
                      const std::vector<bool>& present) {
  std::vector<std::size_t> lost;
  for (std::size_t i = 0; i < present.size(); ++i) {
    if (!present[i]) lost.push_back(i);
  }
  const Result<std::vector<std::size_t>> sources =
      codec.select_sources(lost, present);
  if (!sources.ok()) return sources.status();
  return codec.decode(spans, *sources, lost);
}

/// Zeroes the erased fragments, rebuilds them, and checks byte-exactness of
/// every fragment plus the re-joined value.
void expect_full_recovery(const Codec& codec, ConstByteSpan value,
                          const std::vector<bool>& present) {
  const Encoded golden = encode_value(codec, value);
  std::vector<Bytes> working = golden.fragments;
  for (std::size_t i = 0; i < present.size(); ++i) {
    if (!present[i]) std::fill(working[i].begin(), working[i].end(), std::byte{0});
  }
  std::vector<ByteSpan> spans(working.begin(), working.end());
  ASSERT_TRUE(rebuild_absent(codec, spans, present).ok());
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
  const Status s = rebuild_absent(*c, spans, present);
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
  for (std::size_t i = 0; i < c->n(); ++i) {
    if (!present[i]) {
      std::fill(working[i].begin(), working[i].end(), std::byte{0});
    }
  }
  std::vector<ByteSpan> spans(working.begin(), working.end());
  const Result<std::vector<std::size_t>> sources =
      c->select_sources(c->data_slots(), present);
  ASSERT_TRUE(sources.ok());
  ASSERT_TRUE(c->decode(spans, *sources, c->data_slots()).ok());
  EXPECT_EQ(working[0], golden.fragments[0]);  // data repaired
  if (!present[c->k()]) {
    // The erased parity was not wanted, so decode left it alone.
    EXPECT_EQ(working[c->k()], Bytes(working[c->k()].size()));
  }
}

TEST_P(CodecRoundTrip, EncodeIsDeterministic) {
  const auto c = codec();
  const Bytes value = make_pattern(8192, 11);
  const Encoded a = encode_value(*c, value);
  const Encoded b = encode_value(*c, value);
  EXPECT_EQ(a.fragments, b.fragments);
}

TEST_P(CodecRoundTrip, DecodeRejectsUnequalFragmentLengths) {
  // The shape's codec, and the LRC of the same width (one local group).
  const auto mds = codec();
  const LrcCodec lrc(mds->k(), 1, mds->m() - 1);
  for (const Codec* c : {static_cast<const Codec*>(mds.get()),
                         static_cast<const Codec*>(&lrc)}) {
    const Encoded enc = encode_value(*c, make_pattern(64 * 1024, 12));
    std::vector<Bytes> working = enc.fragments;
    std::vector<bool> present(c->n(), true);
    present[0] = false;
    const Result<std::vector<std::size_t>> sources =
        c->select_sources(c->data_slots(), present);
    ASSERT_TRUE(sources.ok()) << c->name();
    const std::size_t short_len =
        enc.layout.fragment_size - c->alignment();
    // Each short span is a prefix of a full-length buffer, so a decode that
    // ignored lengths would read valid memory and report success.
    std::vector<ByteSpan> spans(working.begin(), working.end());
    spans[sources->back()] = spans[sources->back()].first(short_len);
    EXPECT_EQ(c->decode(spans, *sources, c->data_slots()).code(),
              StatusCode::kInvalidArgument)
        << c->name() << ": short source";
    spans.assign(working.begin(), working.end());
    spans[0] = spans[0].first(short_len);
    EXPECT_EQ(c->decode(spans, *sources, c->data_slots()).code(),
              StatusCode::kInvalidArgument)
        << c->name() << ": short output";
  }
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

// --- Source selection + decode -------------------------------------------

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

/// Rank of the given generator rows, by plain Gauss-Jordan elimination.
std::size_t rank_of(const MatrixCodec& c,
                    const std::vector<std::size_t>& rows) {
  const GF256& gf = GF256::instance();
  GfMatrix m = c.generator().select_rows(rows);
  std::size_t rank = 0;
  for (std::size_t col = 0; col < m.cols() && rank < m.rows(); ++col) {
    std::size_t pivot = rank;
    while (pivot < m.rows() && m.at(pivot, col) == 0) ++pivot;
    if (pivot == m.rows()) continue;
    for (std::size_t j = 0; j < m.cols(); ++j) {
      std::swap(m.at(rank, j), m.at(pivot, j));
    }
    const std::uint8_t inv = gf.inv(m.at(rank, col));
    for (std::size_t j = 0; j < m.cols(); ++j) {
      m.at(rank, j) = gf.mul(m.at(rank, j), inv);
    }
    for (std::size_t r = 0; r < m.rows(); ++r) {
      const std::uint8_t f = m.at(r, col);
      if (r == rank || f == 0) continue;
      for (std::size_t j = 0; j < m.cols(); ++j) {
        m.at(r, j) ^= gf.mul(f, m.at(rank, j));
      }
    }
    ++rank;
  }
  return rank;
}

/// The local group an LRC reads to rebuild `slot` alone (same order as the
/// selector: data peers, then the local parity), or nullopt for a global
/// parity.
std::optional<std::vector<std::size_t>> lrc_group_sources(const LrcCodec& lrc,
                                                          std::size_t slot) {
  const std::optional<std::size_t> group = lrc.group_of(slot);
  if (!group) return std::nullopt;
  std::vector<std::size_t> out;
  for (std::size_t c = *group * lrc.group_size();
       c < (*group + 1) * lrc.group_size(); ++c) {
    if (c != slot) out.push_back(c);
  }
  if (slot != lrc.k() + *group) out.push_back(lrc.k() + *group);
  return out;
}

TEST(SelectReadSet, EmptyPreferenceMatchesFirstDecodableSubset) {
  const RsVandermondeCodec rs32(3, 2);
  const RsVandermondeCodec rs63(6, 3);
  const CauchyRsCodec crs(3, 2);
  const Raid6Codec raid6(4, 2);
  const LrcCodec lrc622(6, 2, 2);
  const LrcCodec lrc421(4, 2, 1);
  const std::vector<const MatrixCodec*> codecs{&rs32,  &rs63,   &crs,
                                               &raid6, &lrc622, &lrc421};
  for (const MatrixCodec* c : codecs) {
    const auto* lrc = dynamic_cast<const LrcCodec*>(c);
    const std::size_t n = c->n();
    const Encoded golden = encode_value(*c, make_pattern(c->k() * 64, n));
    std::vector<std::vector<std::size_t>> wants{
        std::vector<std::size_t>(c->data_slots().begin(),
                                 c->data_slots().end())};
    for (std::size_t slot = 0; slot < n; ++slot) wants.push_back({slot});

    for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
      std::vector<bool> available(n, false);
      std::vector<std::size_t> first_k;
      for (std::size_t i = 0; i < n; ++i) {
        available[i] = (mask >> i) & 1u;
        if (available[i] && first_k.size() < c->k()) first_k.push_back(i);
      }
      const auto decodable = first_decodable_subset(*c, available);
      for (const std::vector<std::size_t>& want : wants) {
        const std::string where = std::string(c->name()) + " mask " +
                                  std::to_string(mask) + " want " +
                                  std::to_string(want[0]) + "/" +
                                  std::to_string(want.size());
        const Result<std::vector<std::size_t>> got =
            c->select_sources(want, available);
        const auto group = (lrc != nullptr && want.size() == 1)
                               ? lrc_group_sources(*lrc, want[0])
                               : std::nullopt;
        const bool group_intact =
            group && std::all_of(group->begin(), group->end(),
                                 [&](std::size_t s) { return available[s]; });
        if (group_intact) {
          // A single loss in an intact group reads exactly the group.
          ASSERT_TRUE(got.ok()) << where;
          EXPECT_EQ(*got, *group) << where;
        } else if (decodable) {
          ASSERT_TRUE(got.ok()) << where;
          EXPECT_EQ(*got, *decodable) << where;
          if (lrc == nullptr) {
            // MDS: the first k candidates, in candidate order.
            EXPECT_EQ(*got, first_k) << where;
          }
        } else {
          ASSERT_FALSE(got.ok()) << where;
          EXPECT_EQ(got.status().code(), StatusCode::kTooManyFailures);
          continue;
        }

        // The answer is available, spans want, and decodes it byte-exactly.
        std::vector<std::size_t> with_want = *got;
        with_want.insert(with_want.end(), want.begin(), want.end());
        for (const std::size_t s : *got) EXPECT_TRUE(available[s]) << where;
        EXPECT_EQ(rank_of(*c, *got), got->size()) << where;
        EXPECT_EQ(rank_of(*c, with_want), got->size()) << where;
        std::vector<Bytes> working(n, Bytes(golden.layout.fragment_size));
        for (const std::size_t s : *got) working[s] = golden.fragments[s];
        std::vector<ByteSpan> spans(working.begin(), working.end());
        ASSERT_TRUE(c->decode(spans, *got, want).ok()) << where;
        for (const std::size_t w : want) {
          EXPECT_EQ(working[w], golden.fragments[w]) << where;
        }
      }
    }
  }
}

TEST(Decode, RejectsSourcesThatDoNotSpanWant) {
  const LrcCodec lrc(4, 2, 1);
  const Encoded golden = encode_value(lrc, make_pattern(4 * 64, 8));
  std::vector<Bytes> working = golden.fragments;
  std::vector<ByteSpan> spans(working.begin(), working.end());
  // Group 0 (slots 0, 1, local parity 4) cannot produce data slot 2.
  const std::vector<std::size_t> group0{0, 4};
  const std::vector<std::size_t> want{2};
  EXPECT_EQ(lrc.decode(spans, group0, want).code(),
            StatusCode::kTooManyFailures);
  // Dependent sources are a caller error, not a decodability verdict.
  const std::vector<std::size_t> dependent{0, 1, 4};
  EXPECT_EQ(lrc.decode(spans, dependent, want).code(),
            StatusCode::kInvalidArgument);
}

TEST(CodecFactory, NamesAreStable) {
  EXPECT_EQ(make_codec(Scheme::kRsVandermonde, 3, 2)->name(), "rs_van");
  EXPECT_EQ(make_codec(Scheme::kCauchyRs, 3, 2)->name(), "crs");
  EXPECT_EQ(make_codec(Scheme::kRaid6, 3, 2)->name(), "raid6");
}

}  // namespace
}  // namespace hpres::ec
