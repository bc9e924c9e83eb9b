// The benchmark's own inputs: YCSB op streams, record keys and
// self-describing payloads. Everything here depends only on common/ (the
// seeded RNG and byte vocabulary), so a change to src/workload cannot
// silently change what the benchmark feeds the store.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"

namespace hpres::benchmark {

/// Zipfian ranks in [0, items) with P(r) ∝ 1/(r+1)^theta, by Gray et al.'s
/// method (the one YCSB uses), then scrambled by a stateless hash so hot
/// items spread over the key space (YCSB's ScrambledZipfian).
class ScrambledZipf {
 public:
  static constexpr double kTheta = 0.99;

  explicit ScrambledZipf(std::uint64_t items) : items_(items) {
    double zetan = 0.0;
    for (std::uint64_t i = 1; i <= items; ++i) {
      zetan += 1.0 / std::pow(static_cast<double>(i), kTheta);
    }
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, kTheta);
    zetan_ = zetan;
    alpha_ = 1.0 / (1.0 - kTheta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(items), 1.0 - kTheta)) /
           (1.0 - zeta2 / zetan);
    half_pow_ = 1.0 + std::pow(0.5, kTheta);
  }

  [[nodiscard]] std::uint64_t next(Xoshiro256& rng) const {
    __extension__ using Uint128 = unsigned __int128;
    const Uint128 product =
        static_cast<Uint128>(splitmix64(rank(rng))) * items_;
    return static_cast<std::uint64_t>(product >> 64);
  }

 private:
  [[nodiscard]] std::uint64_t rank(Xoshiro256& rng) const {
    const double u = rng.next_double();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < half_pow_) return 1;
    const auto r = static_cast<std::uint64_t>(
        static_cast<double>(items_) *
        std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return r >= items_ ? items_ - 1 : r;
  }

  std::uint64_t items_;
  double zetan_ = 0.0;
  double alpha_ = 0.0;
  double eta_ = 0.0;
  double half_pow_ = 0.0;
};

/// One client operation: a record id and whether it is a Set.
struct Op {
  std::uint32_t key = 0;
  bool is_set = false;
};

/// Per-client op streams plus a digest of every key and op type, so two
/// runs can prove they fed the store identical inputs.
struct OpStreams {
  std::vector<std::vector<Op>> per_client;
  std::uint64_t digest = 0;
};

/// Generates `ops_per_client` ops for each of `clients` closed-loop clients.
/// Shared: every client draws from the whole record space (the paper's
/// YCSB). Partitioned: client c draws only records c, c+clients, ... with
/// its own Zipfian over that slice, so no two in-flight ops ever touch the
/// same key.
inline OpStreams generate_ops(std::uint64_t records, std::size_t clients,
                              std::uint64_t ops_per_client,
                              double read_fraction, std::uint64_t seed,
                              bool partitioned) {
  OpStreams out;
  out.per_client.resize(clients);
  const std::uint64_t slice = partitioned ? records / clients : records;
  const ScrambledZipf zipf(slice);
  std::uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a over (key, type)
  for (std::size_t c = 0; c < clients; ++c) {
    Xoshiro256 rng(splitmix64(seed * 0x100000001B3ULL + c + 1));
    std::vector<Op>& ops = out.per_client[c];
    ops.reserve(ops_per_client);
    for (std::uint64_t i = 0; i < ops_per_client; ++i) {
      std::uint64_t id = zipf.next(rng);
      if (partitioned) id = c + clients * id;
      const bool is_set = rng.next_double() >= read_fraction;
      ops.push_back(Op{static_cast<std::uint32_t>(id), is_set});
      digest = (digest ^ (id << 1 | (is_set ? 1 : 0))) * 0x100000001B3ULL;
    }
  }
  out.digest = digest;
  return out;
}

/// 16-byte YCSB-style record key ("user000000001234").
inline std::string record_key(std::uint64_t id) {
  std::string digits = std::to_string(id);
  std::string out = "user";
  out.append(digits.size() < 12 ? 12 - digits.size() : 0, '0');
  out += digits;
  return out;
}

/// Self-describing values for materialized workloads: a 16-byte header
/// holding the record id and the writer's tag, then a body picked by tag
/// from a pool of pre-built patterns. A Set costs one copy and a verified
/// Get one memcmp. Tag 0 is the preload; client writes use
/// (client + 1) << 32 | op index, so a tag names exactly one Set.
class Payloads {
 public:
  static constexpr std::size_t kHeaderBytes = 16;
  static constexpr std::size_t kPatterns = 64;

  explicit Payloads(std::size_t value_size) : value_size_(value_size) {
    for (std::size_t i = 0; i < kPatterns; ++i) {
      bodies_[i] = make_pattern(value_size - kHeaderBytes, i + 1);
    }
  }

  [[nodiscard]] static std::uint64_t client_tag(std::size_t client,
                                                std::uint64_t op_index) {
    return (static_cast<std::uint64_t>(client) + 1) << 32 | op_index;
  }

  [[nodiscard]] SharedBytes make(std::uint64_t key, std::uint64_t tag) const {
    Bytes v(value_size_);
    std::memcpy(v.data(), &key, 8);
    std::memcpy(v.data() + 8, &tag, 8);
    const Bytes& body = bodies_[tag % kPatterns];
    std::memcpy(v.data() + kHeaderBytes, body.data(), body.size());
    return make_shared_bytes(std::move(v));
  }

  /// The writer tag of `v` when it is an intact value of record `key`;
  /// nullopt for wrong sizes, foreign headers and torn bodies.
  [[nodiscard]] std::optional<std::uint64_t> tag_of(const Bytes& v,
                                                    std::uint64_t key) const {
    if (v.size() != value_size_) return std::nullopt;
    std::uint64_t stored_key = 0;
    std::uint64_t tag = 0;
    std::memcpy(&stored_key, v.data(), 8);
    std::memcpy(&tag, v.data() + 8, 8);
    if (stored_key != key) return std::nullopt;
    const Bytes& body = bodies_[tag % kPatterns];
    if (std::memcmp(v.data() + kHeaderBytes, body.data(), body.size()) != 0) {
      return std::nullopt;
    }
    return tag;
  }

 private:
  std::size_t value_size_;
  std::array<Bytes, kPatterns> bodies_;
};

}  // namespace hpres::benchmark
