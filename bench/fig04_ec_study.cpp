// FIG4 — Jerasure library study (paper Figure 4a/4b), measured for real.
//
// Encode and decode (1 and 2 node failures) timings of this repository's
// RS-Vandermonde, Cauchy-RS and RAID-6 codecs at K=3, M=2 for key-value
// pair sizes 1 KB - 1 MB, on the host CPU via google-benchmark.
//
// Expected shape (paper): RS_Van fastest across the KV range for both
// encode and decode; decode with 2 failures costs more than 1 failure.
// Absolute numbers depend on this host; the simulation benches use the
// fitted CostModel instead (see EXPERIMENTS.md).
//
// Throughput is reported by google-benchmark as bytes_per_second (value
// bytes, not fragment bytes). Every series runs on the dispatched GF kernel
// variant — printed up front and recorded in the benchmark context/labels,
// because scalar vs SSSE3 vs AVX2 shifts these curves by roughly an order
// of magnitude (bench/micro_gf_kernels.cpp isolates the kernels).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "ec/chunker.h"
#include "ec/codec.h"
#include "ec/gf_kernels.h"

namespace {

using namespace hpres;      // NOLINT(google-build-using-namespace)
using namespace hpres::ec;  // NOLINT(google-build-using-namespace)

constexpr std::size_t kK = 3;
constexpr std::size_t kM = 2;

Scheme scheme_of(std::int64_t index) {
  switch (index) {
    case 0: return Scheme::kRsVandermonde;
    case 1: return Scheme::kCauchyRs;
    default: return Scheme::kRaid6;
  }
}

struct Workbench {
  std::unique_ptr<Codec> codec;
  ChunkLayout layout;
  std::vector<Bytes> fragments;  // k data + m parity

  Workbench(Scheme scheme, std::size_t value_size)
      : codec(make_codec(scheme, kK, kM)) {
    layout = make_layout(value_size, kK, codec->alignment());
    const Bytes value = make_pattern(value_size, /*seed=*/404);
    fragments = split_value(value, layout);
    for (std::size_t p = 0; p < kM; ++p) {
      fragments.emplace_back(layout.fragment_size);
    }
    std::vector<ConstByteSpan> data(fragments.begin(), fragments.begin() + kK);
    std::vector<ByteSpan> parity(fragments.begin() + kK, fragments.end());
    codec->encode(data, parity);
  }
};

void BM_Encode(benchmark::State& state) {
  const Workbench wb(scheme_of(state.range(0)),
                     static_cast<std::size_t>(state.range(1)));
  std::vector<ConstByteSpan> data(wb.fragments.begin(),
                                  wb.fragments.begin() + kK);
  std::vector<Bytes> out(kM, Bytes(wb.layout.fragment_size));
  std::vector<ByteSpan> parity(out.begin(), out.end());
  for (auto _ : state) {
    wb.codec->encode(data, parity);
    benchmark::DoNotOptimize(out[0].data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(1));
  state.SetLabel(std::string(wb.codec->name()) + "/" +
                 std::string(to_string(active_variant())));
}

void BM_Decode(benchmark::State& state) {
  const Workbench wb(scheme_of(state.range(0)),
                     static_cast<std::size_t>(state.range(1)));
  const auto failures = static_cast<std::size_t>(state.range(2));
  // The first `failures` data slots are lost: they are the outputs.
  const SlotMask lost = first_slots(failures);
  std::vector<ConstByteSpan> in(wb.fragments.begin(), wb.fragments.end());
  std::vector<Bytes> rebuilt(kK + kM, Bytes(wb.layout.fragment_size));
  std::vector<ByteSpan> out(kK + kM);
  for (std::size_t i = 0; i < failures; ++i) out[i] = rebuilt[i];
  // A Get picks its read set before it fetches; the loop times the decode.
  const ReadSet sources =
      wb.codec->select(wb.codec->data_mask(), wb.codec->all_slots() & ~lost)
          .value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        wb.codec->decode(sources, in, wb.codec->data_mask(), out).ok());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(1));
  state.SetLabel(std::string(wb.codec->name()) + "/fail" +
                 std::to_string(failures) + "/" +
                 std::string(to_string(active_variant())));
}

void SizeSweep(benchmark::internal::Benchmark* b, bool with_failures) {
  for (std::int64_t scheme = 0; scheme < 3; ++scheme) {
    for (std::int64_t size = 1024; size <= 1024 * 1024; size *= 4) {
      if (with_failures) {
        b->Args({scheme, size, 1});
        b->Args({scheme, size, 2});
      } else {
        b->Args({scheme, size});
      }
    }
  }
}

}  // namespace

BENCHMARK(BM_Encode)
    ->Apply([](benchmark::internal::Benchmark* b) { SizeSweep(b, false); })
    ->MinTime(0.02);
BENCHMARK(BM_Decode)
    ->Apply([](benchmark::internal::Benchmark* b) { SizeSweep(b, true); })
    ->MinTime(0.02);

int main(int argc, char** argv) {
  const std::string kernel{to_string(active_variant())};
  std::printf("fig04: GF region kernels dispatched to '%s'\n", kernel.c_str());
  benchmark::AddCustomContext("gf_kernel", kernel);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
