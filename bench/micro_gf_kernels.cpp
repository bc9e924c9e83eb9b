// Microbenchmark for the GF(2^8) kernel layer (ec/gf_kernels.h): throughput
// of every runnable ISA variant for each region primitive across region
// sizes, plus the fused single-pass stripe encode against the unfused
// row-by-row sweep it replaced. Prints a MB/s table with speedups vs the
// scalar reference and writes BENCH_gf_kernels.json (override the path with
// --out=FILE). HPRES_BENCH_SCALE scales the per-measurement minimum time
// (default 1.0); HPRES_FORCE_SCALAR_GF affects the "active" dispatch report
// and the read path, since every other variant here is pinned explicitly.
//
// The read_path block times one layer up, on the active kernels: one Get's
// read-set selection plus ec::assemble over already-fetched RS(3,2)
// fragments, in ns per Get, for a healthy read, a read that lost data
// slot 0 (it decodes) and a read whose preference puts parity first.
//
// Standalone on purpose: links hpres_ec only, no cluster/simulator deps.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "ec/chunker.h"
#include "ec/gf_kernels.h"
#include "ec/rs_vandermonde.h"
#include "obs/json.h"

namespace {

using hpres::Bytes;
using hpres::ByteSpan;
using hpres::ConstByteSpan;
using hpres::make_pattern;
using hpres::SharedBytes;
using namespace hpres::ec;

// Fold observable output bytes into a volatile sink after every timed loop
// so the optimizer cannot treat the kernel work as dead stores.
volatile std::uint8_t g_sink = 0;

void sink_bytes(const Bytes& b) {
  if (b.empty()) return;
  g_sink = static_cast<std::uint8_t>(
      g_sink ^ static_cast<std::uint8_t>(b.front()) ^
      static_cast<std::uint8_t>(b.back()));
}

double bench_scale() {
  if (const char* env = std::getenv("HPRES_BENCH_SCALE")) {
    const double v = std::atof(env);
    if (v > 0.0) return v;
  }
  return 1.0;
}

/// Runs `fn` repeatedly until the timed region spans at least `min_seconds`,
/// then returns throughput in MB/s (decimal) for `bytes_per_iter`.
template <typename Fn>
double measure_mb_s(Fn&& fn, std::size_t bytes_per_iter, double min_seconds) {
  using Clock = std::chrono::steady_clock;
  fn();  // warm-up: touch pages, build tables, prime caches
  std::uint64_t iters = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) fn();
    const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
    if (secs >= min_seconds) {
      return static_cast<double>(bytes_per_iter) * static_cast<double>(iters) /
             secs / 1e6;
    }
    if (secs <= min_seconds / 16.0) {
      iters *= 16;
    } else {
      iters = iters * 2 + 1;
    }
  }
}

/// Runs `fn` until the timed region spans at least `min_seconds`, then
/// returns the mean ns per call.
template <typename Fn>
double measure_ns(Fn&& fn, double min_seconds) {
  using Clock = std::chrono::steady_clock;
  fn();
  std::uint64_t iters = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) fn();
    const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
    if (secs >= min_seconds) return secs * 1e9 / static_cast<double>(iters);
    iters = secs <= min_seconds / 16.0 ? iters * 16 : iters * 2 + 1;
  }
}

struct ReadRow {
  std::string pattern;
  std::size_t size = 0;
  double ns_per_get = 0.0;
};

/// One Get's read step over fetched RS(3,2) fragments, per pattern and
/// value size: select the read set, then assemble the value.
std::vector<ReadRow> bench_read_path(double min_secs) {
  const RsVandermondeCodec codec(3, 2);
  struct Pattern {
    const char* name;
    SlotMask available;
    std::vector<std::size_t> preference;
  };
  const std::vector<Pattern> patterns{
      {"healthy", codec.all_slots(), {}},
      {"data_slot_lost", codec.all_slots() & ~slot_bit(0), {}},
      {"parity_preferred", codec.all_slots(), {3, 0, 4, 1, 2}}};
  std::vector<ReadRow> rows;
  for (const std::size_t size : {std::size_t{1024}, std::size_t{16384}}) {
    const Bytes value = make_pattern(size, 60);
    const std::vector<SharedBytes> fragments =
        encode_value(codec, value, size, /*materialize=*/true);
    const ChunkLayout layout = make_layout(size, codec.k(), codec.alignment());
    FragmentScratch scratch;
    for (const Pattern& p : patterns) {
      const double ns = measure_ns(
          [&] {
            const hpres::Result<ReadSet> sources =
                codec.select(codec.data_mask(), p.available, p.preference);
            const hpres::Result<Bytes> got =
                assemble(codec, fragments, *sources, layout, std::nullopt,
                         /*materialize=*/true, scratch);
            sink_bytes(*got);
          },
          min_secs);
      rows.push_back(ReadRow{p.name, size, ns});
    }
  }
  return rows;
}

struct Row {
  std::string op;
  GfKernelVariant variant{};
  std::size_t size = 0;
  double mb_s = 0.0;
};

constexpr std::size_t kSizes[] = {1024,      4096,      16384,
                                  65536,     256 * 1024, 1024 * 1024};
constexpr std::size_t kAcceptanceSize = 65536;  // ISSUE acceptance point

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_gf_kernels.json";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else {
      std::fprintf(stderr, "usage: %s [--out=FILE]\n", argv[0]);
      return 2;
    }
  }

  const double min_secs = 0.02 * bench_scale();
  const std::vector<GfKernelVariant> variants = available_variants();
  std::printf("gf kernel microbench: active=%.*s, min %.0f ms/measurement\n",
              static_cast<int>(to_string(active_variant()).size()),
              to_string(active_variant()).data(), min_secs * 1e3);
  std::printf("%-18s %-8s %10s %12s %10s\n", "op", "variant", "size", "MB/s",
              "vs scalar");

  std::vector<Row> rows;
  auto record = [&rows](std::string op, GfKernelVariant v, std::size_t size,
                        double mb_s) {
    rows.push_back(Row{std::move(op), v, size, mb_s});
  };
  auto scalar_mb_s = [&rows](const std::string& op, std::size_t size) {
    for (const Row& r : rows) {
      if (r.op == op && r.size == size && r.variant == GfKernelVariant::kScalar) {
        return r.mb_s;
      }
    }
    return 0.0;
  };
  auto print_row = [&scalar_mb_s](const Row& r) {
    const double base = scalar_mb_s(r.op, r.size);
    std::printf("%-18s %-8.*s %10zu %12.0f %9.2fx\n", r.op.c_str(),
                static_cast<int>(to_string(r.variant).size()),
                to_string(r.variant).data(), r.size, r.mb_s,
                base > 0.0 ? r.mb_s / base : 1.0);
  };

  // Flat region primitives: one source, one destination region.
  for (const std::size_t size : kSizes) {
    const Bytes src = make_pattern(size, 41);
    Bytes dst = make_pattern(size, 42);
    const auto* s = reinterpret_cast<const std::uint8_t*>(src.data());
    auto* d = reinterpret_cast<std::uint8_t*>(dst.data());
    for (const GfKernelVariant v : variants) {
      const GfKernelOps& ops = *kernels_for(v);
      const double mul =
          measure_mb_s([&] { ops.mul_region(29, s, d, size); }, size, min_secs);
      sink_bytes(dst);
      record("mul_region", v, size, mul);
      const double acc = measure_mb_s(
          [&] { ops.mul_region_acc(29, s, d, size); }, size, min_secs);
      sink_bytes(dst);
      record("mul_region_acc", v, size, acc);
      const double xr =
          measure_mb_s([&] { ops.xor_region(s, d, size); }, size, min_secs);
      sink_bytes(dst);
      record("xor_region", v, size, xr);
    }
  }

  // Stripe encode: RS(6,3)-shaped parity block, fused tile pass vs the
  // unfused m x k full-length sweeps it replaced. Throughput counts source
  // bytes (k * fragment size) so both shapes are directly comparable.
  {
    constexpr std::size_t k = 6, m = 3;
    StripeCoder coder(m, k);
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t c = 0; c < k; ++c) {
        coder.set(r, c, static_cast<std::uint8_t>(2 + 7 * r + 13 * c));
      }
    }
    for (const std::size_t size : kSizes) {
      std::vector<Bytes> src_bufs;
      std::vector<Bytes> out_bufs;
      for (std::size_t c = 0; c < k; ++c) {
        src_bufs.push_back(make_pattern(size, 50 + c));
      }
      for (std::size_t r = 0; r < m; ++r) out_bufs.emplace_back(size);
      std::vector<ConstByteSpan> src(src_bufs.begin(), src_bufs.end());
      std::vector<ByteSpan> out(out_bufs.begin(), out_bufs.end());
      const std::size_t stripe_bytes = k * size;
      for (const GfKernelVariant v : variants) {
        const GfKernelOps& ops = *kernels_for(v);
        const double fused = measure_mb_s(
            [&] { coder.apply_with(ops, src, out); }, stripe_bytes, min_secs);
        for (const Bytes& b : out_bufs) sink_bytes(b);
        record("stripe_fused", v, size, fused);
        const double unfused = measure_mb_s(
            [&] {
              for (std::size_t r = 0; r < m; ++r) {
                auto* d = reinterpret_cast<std::uint8_t*>(out_bufs[r].data());
                for (std::size_t c = 0; c < k; ++c) {
                  const auto* s = reinterpret_cast<const std::uint8_t*>(
                      src_bufs[c].data());
                  if (c == 0) {
                    gf_mul_region(ops, coder.at(r, c), s, d, size);
                  } else {
                    gf_mul_region_acc(ops, coder.at(r, c), s, d, size);
                  }
                }
              }
            },
            stripe_bytes, min_secs);
        for (const Bytes& b : out_bufs) sink_bytes(b);
        record("stripe_unfused", v, size, unfused);
      }
    }
  }

  for (const Row& r : rows) print_row(r);

  const std::vector<ReadRow> read_rows = bench_read_path(min_secs);
  std::printf("%-18s %10s %12s\n", "read_path", "size", "ns/Get");
  for (const ReadRow& r : read_rows) {
    std::printf("%-18s %10zu %12.0f\n", r.pattern.c_str(), r.size,
                r.ns_per_get);
  }
  std::printf("(checksum sink: %u)\n", static_cast<unsigned>(g_sink));

  // JSON report. The acceptance block restates the ISSUE's target numbers:
  // mul_region_acc at 64 KiB, SIMD speedup vs the scalar reference.
  std::string json;
  json += "{\n  \"bench\": \"micro_gf_kernels\",\n  \"active_variant\": ";
  hpres::obs::json::append_string(json, to_string(active_variant()));
  json += ",\n  \"tile_bytes\": ";
  hpres::obs::json::append_u64(json, StripeCoder::kTileBytes);
  json += ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    json += "    {\"op\": ";
    hpres::obs::json::append_string(json, r.op);
    json += ", \"variant\": ";
    hpres::obs::json::append_string(json, to_string(r.variant));
    json += ", \"size\": ";
    hpres::obs::json::append_u64(json, r.size);
    json += ", \"mb_s\": ";
    hpres::obs::json::append_fixed(json, r.mb_s, 1);
    json += i + 1 < rows.size() ? "},\n" : "}\n";
  }
  json += "  ],\n  \"acceptance\": {\"op\": \"mul_region_acc\", \"size\": ";
  hpres::obs::json::append_u64(json, kAcceptanceSize);
  const double base = scalar_mb_s("mul_region_acc", kAcceptanceSize);
  json += ", \"scalar_mb_s\": ";
  hpres::obs::json::append_fixed(json, base, 1);
  for (const GfKernelVariant v :
       {GfKernelVariant::kSsse3, GfKernelVariant::kAvx2}) {
    for (const Row& r : rows) {
      if (r.op == "mul_region_acc" && r.size == kAcceptanceSize &&
          r.variant == v) {
        json += ", \"";
        json += to_string(v);
        json += "_mb_s\": ";
        hpres::obs::json::append_fixed(json, r.mb_s, 1);
        json += ", \"";
        json += to_string(v);
        json += "_speedup_vs_scalar\": ";
        hpres::obs::json::append_fixed(json, base > 0.0 ? r.mb_s / base : 0.0,
                                       2);
      }
    }
  }
  json += "},\n  \"read_path\": {\"codec\": \"rs_van\", \"k\": 3, \"m\": 2, ";
  json += "\"op\": \"select+assemble\", \"rows\": [\n";
  for (std::size_t i = 0; i < read_rows.size(); ++i) {
    const ReadRow& r = read_rows[i];
    json += "    {\"pattern\": ";
    hpres::obs::json::append_string(json, r.pattern);
    json += ", \"size\": ";
    hpres::obs::json::append_u64(json, r.size);
    json += ", \"ns_per_get\": ";
    hpres::obs::json::append_fixed(json, r.ns_per_get, 1);
    json += i + 1 < read_rows.size() ? "},\n" : "}\n";
  }
  json += "  ]}\n}\n";

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
