// End-to-end erasure codec properties: encode/erase/reconstruct round-trips
// across schemes, (k, m) shapes, sizes and every erasure pattern.
#include "ec/codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <optional>
#include <string>
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

/// The slots set in `present`.
SlotMask mask_of(const std::vector<bool>& present) {
  SlotMask mask = 0;
  for (std::size_t i = 0; i < present.size(); ++i) {
    if (present[i]) mask |= slot_bit(i);
  }
  return mask;
}

std::vector<std::size_t> slots_of(const ReadSet& set) {
  return {set.begin(), set.end()};
}

/// Decodes `want` into `working` from `sources`, which are read from
/// `working` too.
Status decode_into(const Codec& codec, const ReadSet& sources, SlotMask want,
                   std::vector<Bytes>& working) {
  const std::vector<ConstByteSpan> in(working.begin(), working.end());
  const std::vector<ByteSpan> out(working.begin(), working.end());
  return codec.decode(sources, in, want, out);
}

/// Rebuilds every absent slot as a repair does: the codec selects the
/// sources for the lost slots, then decodes from exactly those.
Status rebuild_absent(const Codec& codec, std::vector<Bytes>& working,
                      const std::vector<bool>& present) {
  const SlotMask available = mask_of(present);
  const SlotMask lost = codec.all_slots() & ~available;
  const Result<ReadSet> sources = codec.select(lost, available);
  if (!sources.ok()) return sources.status();
  return decode_into(codec, *sources, lost, working);
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
  ASSERT_TRUE(rebuild_absent(codec, working, present).ok());
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
  std::vector<bool> present(c->n(), true);
  for (std::size_t i = 0; i <= c->m(); ++i) present[i % c->n()] = false;
  const Status s = rebuild_absent(*c, working, present);
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
  const Result<ReadSet> sources = c->select(c->data_mask(), mask_of(present));
  ASSERT_TRUE(sources.ok());
  ASSERT_TRUE(decode_into(*c, *sources, c->data_mask(), working).ok());
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
    const Result<ReadSet> sources =
        c->select(c->data_mask(), c->all_slots() & ~slot_bit(0));
    ASSERT_TRUE(sources.ok()) << c->name();
    const std::size_t short_len =
        enc.layout.fragment_size - c->alignment();
    // Each short span is a prefix of a full-length buffer, so a decode that
    // ignored lengths would read valid memory and report success.
    std::vector<ConstByteSpan> in(working.begin(), working.end());
    std::vector<ByteSpan> out(working.begin(), working.end());
    const std::size_t last = (*sources)[sources->size() - 1];
    in[last] = in[last].first(short_len);
    EXPECT_EQ(c->decode(*sources, in, c->data_mask(), out).code(),
              StatusCode::kInvalidArgument)
        << c->name() << ": short source";
    in.assign(working.begin(), working.end());
    out[0] = out[0].first(short_len);
    EXPECT_EQ(c->decode(*sources, in, c->data_mask(), out).code(),
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
    std::vector<std::vector<std::size_t>> wants(1);
    for (std::size_t slot = 0; slot < c->k(); ++slot) {
      wants[0].push_back(slot);
    }
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
        SlotMask want_mask = 0;
        for (const std::size_t w : want) want_mask |= slot_bit(w);
        const Result<ReadSet> selected = c->select(want_mask, mask);
        const Result<std::vector<std::size_t>> got =
            selected.ok() ? Result<std::vector<std::size_t>>(
                                slots_of(*selected))
                          : Result<std::vector<std::size_t>>(
                                selected.status());
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
        ASSERT_TRUE(decode_into(*c, *selected, want_mask, working).ok())
            << where;
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
  // Group 0 (slots 0, 1, local parity 4) cannot produce data slot 2.
  const std::vector<std::size_t> group0{0, 4};
  const Result<ReadSet> local = lrc.bind(group0);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(decode_into(lrc, *local, slot_bit(2), working).code(),
            StatusCode::kTooManyFailures);
  // ...but it does produce slot 1.
  EXPECT_TRUE(decode_into(lrc, *local, slot_bit(1), working).ok());
  // Dependent sources are a caller error, not a decodability verdict.
  const std::vector<std::size_t> dependent{0, 1, 4};
  EXPECT_EQ(lrc.bind(dependent).status().code(), StatusCode::kInvalidArgument);
}

// --- Decode plans ----------------------------------------------------------
//
// The reference below is the per-call read-set selection the plan table
// replaced, kept verbatim (a greedy RowBasis pass over ordered candidates,
// LRC's local-group shortcut in front) so the table is checked against it
// pattern by pattern.

namespace reference {

std::vector<std::size_t> ordered_candidates(
    std::size_t n, const std::vector<bool>& available,
    std::span<const std::size_t> preference) {
  std::vector<std::size_t> out;
  out.reserve(n);
  const auto taken = [&out](std::size_t s) {
    return std::find(out.begin(), out.end(), s) != out.end();
  };
  for (const std::size_t s : preference) {
    if (s < available.size() && s < n && available[s] && !taken(s)) {
      out.push_back(s);
    }
  }
  for (std::size_t i = 0; i < n && i < available.size(); ++i) {
    if (available[i] && !taken(i)) out.push_back(i);
  }
  return out;
}

Result<std::vector<std::size_t>> matrix_select_sources(
    const MatrixCodec& c, std::span<const std::size_t> want,
    const std::vector<bool>& available,
    std::span<const std::size_t> preference) {
  if (std::any_of(want.begin(), want.end(),
                  [&c](std::size_t s) { return s >= c.n(); })) {
    return Status{StatusCode::kInvalidArgument, "wanted slot out of range"};
  }
  const std::vector<std::size_t> candidates =
      ordered_candidates(c.n(), available, preference);
  if (candidates.size() < c.k()) {
    return Status{StatusCode::kTooManyFailures,
                  "fewer than k fragments available"};
  }
  const auto top_k = candidates.begin() + static_cast<std::ptrdiff_t>(c.k());
  if (std::all_of(candidates.begin(), top_k,
                  [&c](std::size_t s) { return s < c.k(); })) {
    return std::vector<std::size_t>(candidates.begin(), top_k);
  }
  RowBasis basis(c.generator());
  for (const std::size_t slot : candidates) {
    if (basis.rank() == c.k()) break;
    basis.add(slot);
  }
  if (basis.rank() < c.k()) {
    return Status{StatusCode::kTooManyFailures,
                  "erasure pattern not decodable by this code"};
  }
  return basis.rows();
}

Result<std::vector<std::size_t>> lrc_select_sources(
    const LrcCodec& c, std::span<const std::size_t> want,
    const std::vector<bool>& available,
    std::span<const std::size_t> preference) {
  const std::optional<std::size_t> group =
      want.size() == 1 ? c.group_of(want[0]) : std::nullopt;
  if (!group) return matrix_select_sources(c, want, available, preference);
  const std::size_t slot = want[0];
  std::vector<std::size_t> sources;
  sources.reserve(c.group_size());
  for (std::size_t g = *group * c.group_size();
       g < (*group + 1) * c.group_size(); ++g) {
    if (g != slot) sources.push_back(g);
  }
  const std::size_t local_parity = c.k() + *group;
  if (slot != local_parity) sources.push_back(local_parity);
  for (const std::size_t s : sources) {
    if (s >= available.size() || !available[s]) {
      return matrix_select_sources(c, want, available, preference);
    }
  }
  return sources;
}

Result<std::vector<std::size_t>> select_sources(
    const MatrixCodec& c, std::span<const std::size_t> want,
    const std::vector<bool>& available,
    std::span<const std::size_t> preference) {
  if (const auto* lrc = dynamic_cast<const LrcCodec*>(&c)) {
    return lrc_select_sources(*lrc, want, available, preference);
  }
  return matrix_select_sources(c, want, available, preference);
}

/// The code the per-call decode gave a source list before it looked at
/// the wanted slots: kInvalidArgument for a slot past n, a repeat or a
/// dependent row.
StatusCode source_check(const MatrixCodec& c,
                        std::span<const std::size_t> sources) {
  RowBasis basis(c.generator());
  for (const std::size_t s : sources) {
    if (s >= c.n() || !basis.add(s)) return StatusCode::kInvalidArgument;
  }
  return StatusCode::kOk;
}

}  // namespace reference

/// Every CodecRoundTrip shape plus two LRCs.
std::vector<std::unique_ptr<MatrixCodec>> plan_codecs() {
  std::vector<std::unique_ptr<MatrixCodec>> out;
  const std::vector<Shape> shapes{
      {Scheme::kRsVandermonde, 3, 2}, {Scheme::kCauchyRs, 3, 2},
      {Scheme::kRaid6, 3, 2},         {Scheme::kRsVandermonde, 1, 1},
      {Scheme::kRsVandermonde, 2, 1}, {Scheme::kRsVandermonde, 4, 2},
      {Scheme::kRsVandermonde, 6, 3}, {Scheme::kRsVandermonde, 10, 4},
      {Scheme::kCauchyRs, 2, 2},      {Scheme::kCauchyRs, 6, 3},
      {Scheme::kRaid6, 8, 2},         {Scheme::kRaid6, 4, 1}};
  for (const auto& [scheme, k, m] : shapes) {
    std::unique_ptr<Codec> c = make_codec(scheme, k, m);
    out.emplace_back(static_cast<MatrixCodec*>(c.release()));
  }
  out.push_back(std::make_unique<LrcCodec>(4, 2, 1));
  out.push_back(std::make_unique<LrcCodec>(6, 2, 2));
  return out;
}

/// A seeded preference: a shuffled prefix of the slots, with a repeat and
/// a slot past n mixed in now and then (both are skipped).
std::vector<std::size_t> random_preference(std::size_t n, Xoshiro256& rng) {
  std::vector<std::size_t> slots(n);
  for (std::size_t i = 0; i < n; ++i) slots[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(slots[i - 1], slots[rng.next_below(i)]);
  }
  slots.resize(1 + rng.next_below(n));
  if (rng.next_below(4) == 0) slots.push_back(slots.front());
  if (rng.next_below(4) == 0) slots.insert(slots.begin(), n + 1);
  return slots;
}

TEST(CodecPlan, TableCoversEveryIndependentKSubset) {
  EXPECT_EQ(RsVandermondeCodec(3, 2).plan_count(), 10u);
  EXPECT_EQ(RsVandermondeCodec(10, 4).plan_count(), 1001u);
  EXPECT_EQ(CauchyRsCodec(6, 3).plan_count(), 84u);
  // LRC(4,2,1): every independent 4-subset of 7 slots plus the six local
  // repair sets (two data peers or a local parity per data slot, a group's
  // data per local parity).
  const LrcCodec lrc(4, 2, 1);
  std::size_t independent = 0;
  for (SlotMask set = 0; set < slot_bit(lrc.n()); ++set) {
    if (std::popcount(set) != 4) continue;
    std::vector<std::size_t> rows;
    for (std::size_t s = 0; s < lrc.n(); ++s) {
      if (has_slot(set, s)) rows.push_back(s);
    }
    if (reference::source_check(lrc, rows) == StatusCode::kOk) ++independent;
  }
  EXPECT_EQ(lrc.plan_count(), independent + 6);
}

TEST(CodecPlan, SelectionAndDecodeMatchTheReference) {
  Xoshiro256 rng(20260);
  for (const auto& c : plan_codecs()) {
    const std::size_t n = c->n();
    const Encoded golden = encode_value(*c, make_pattern(c->k() * 64, n));
    // Wide codes get fewer random preferences per mask.
    const std::size_t random_prefs = n <= 10 ? 3 : 1;
    for (SlotMask mask = 0; mask < slot_bit(n); ++mask) {
      std::vector<bool> available(n);
      for (std::size_t i = 0; i < n; ++i) available[i] = has_slot(mask, i);
      const SlotMask lost = c->all_slots() & ~mask;
      std::vector<SlotMask> wants{c->data_mask()};
      for (std::size_t s = 0; s < n; ++s) wants.push_back(slot_bit(s));
      if (std::popcount(lost) >= 2) wants.push_back(lost);
      std::vector<std::vector<std::size_t>> prefs{{}};
      for (std::size_t i = 0; i < random_prefs; ++i) {
        prefs.push_back(random_preference(n, rng));
      }
      for (const SlotMask want : wants) {
        std::vector<std::size_t> want_list;
        for (std::size_t s = 0; s < n; ++s) {
          if (has_slot(want, s)) want_list.push_back(s);
        }
        for (const std::vector<std::size_t>& pref : prefs) {
          const std::string where = std::string(c->name()) + " k" +
                                    std::to_string(c->k()) + " mask " +
                                    std::to_string(mask) + " want " +
                                    std::to_string(want) + " pref " +
                                    std::to_string(pref.size());
          const Result<std::vector<std::size_t>> expected =
              reference::select_sources(*c, want_list, available, pref);
          const Result<ReadSet> got = c->select(want, mask, pref);
          ASSERT_EQ(got.ok(), expected.ok()) << where;
          if (!got.ok()) {
            EXPECT_EQ(got.status().code(), expected.status().code()) << where;
            continue;
          }
          ASSERT_EQ(slots_of(*got), *expected) << where;
          SlotMask expected_mask = 0;
          for (const std::size_t s : *expected) expected_mask |= slot_bit(s);
          EXPECT_EQ(got->mask(), expected_mask) << where;
          ASSERT_NE(got->plan(), nullptr) << where;
          EXPECT_EQ(got->plan()->sources, got->mask()) << where;
          // Only the sources hold bytes; every wanted slot is rebuilt.
          std::vector<Bytes> working(n, Bytes(golden.layout.fragment_size));
          for (const std::size_t s : *got) working[s] = golden.fragments[s];
          const std::vector<Bytes> sources_before = working;
          ASSERT_TRUE(decode_into(*c, *got, want, working).ok()) << where;
          for (std::size_t s = 0; s < n; ++s) {
            if (has_slot(want, s) || got->contains(s)) {
              EXPECT_EQ(working[s], golden.fragments[s]) << where << " slot "
                                                         << s;
            } else {
              EXPECT_EQ(working[s], sources_before[s]) << where << " slot "
                                                       << s;
            }
          }
        }
      }
    }
  }
}

TEST(CodecPlan, BindRejectsWhatThePerCallDecodeRejected) {
  Xoshiro256 rng(7);
  for (const auto& c : plan_codecs()) {
    const std::size_t n = c->n();
    for (int trial = 0; trial < 400; ++trial) {
      // Random lists: any length up to n + 1, slots up to n + 1, repeats.
      std::vector<std::size_t> sources(rng.next_below(n + 2));
      for (std::size_t& s : sources) s = rng.next_below(n + 2);
      const std::string where = std::string(c->name()) + " k" +
                                std::to_string(c->k()) + " trial " +
                                std::to_string(trial);
      const Result<ReadSet> bound = c->bind(sources);
      if (reference::source_check(*c, sources) ==
          StatusCode::kInvalidArgument) {
        ASSERT_FALSE(bound.ok()) << where;
        EXPECT_EQ(bound.status().code(), StatusCode::kInvalidArgument)
            << where;
        continue;
      }
      if (sources.size() == c->k()) {
        // k independent rows produce every slot, in the caller's order.
        ASSERT_TRUE(bound.ok()) << where;
        EXPECT_EQ(slots_of(*bound), sources) << where;
        EXPECT_EQ(bound->plan()->rebuilds, c->all_slots() & ~bound->mask())
            << where;
      } else if (!bound.ok()) {
        // Fewer independent rows than k and no local repair set: the
        // per-call decode could produce nothing beyond them either (for an
        // MDS code), which it reported as kTooManyFailures.
        EXPECT_EQ(bound.status().code(), StatusCode::kTooManyFailures)
            << where;
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
