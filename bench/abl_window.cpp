// ABL1 — ARPE completion-window sweep (design ablation, Section IV-A).
//
// The send/receive window is the ARPE's central tunable: it bounds how many
// non-blocking operations may overlap, and therefore how much of the
// encode/communication pipeline actually overlaps. Window=1 degenerates to
// blocking behaviour; growing it should saturate once the client CPU or a
// NIC becomes the bottleneck.
#include "bench_util.h"

namespace {

using namespace hpres;         // NOLINT(google-build-using-namespace)
using namespace hpres::bench;  // NOLINT(google-build-using-namespace)

sim::Task<void> pipelined_sets(resilience::Engine* engine, std::uint64_t ops,
                               std::size_t value_size) {
  const SharedBytes value = zero_bytes(value_size);
  for (std::uint64_t i = 0; i < ops; ++i) {
    (void)engine->iset("w" + std::to_string(i), value);
  }
  co_await engine->wait_all();
}

}  // namespace

int main(int argc, char** argv) {
  obs_init(argc, argv);
  require_oracle_shards("abl_window", "its sweep drives every client from shard 0's loop");
  const std::uint64_t ops = scaled(500);
  constexpr std::size_t kValue = 64 * 1024;
  std::printf("ABL1 — ARPE window sweep, Era-CE-CD, RI-QDR, %llu x 64 KB"
              " pipelined sets\n",
              static_cast<unsigned long long>(ops));
  print_header("Aggregate Set throughput vs window",
               {"window", "MiB/s", "avg_us", "window_waits"});
  for (const std::uint32_t window : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
    resilience::ArpeParams arpe;
    arpe.window = window;
    arpe.buffers = 256;
    Testbench bench(cluster::ri_qdr(), 5, 1, resilience::Design::kEraCeCd, 3,
                    2, 3, arpe);
    bench.spawn(pipelined_sets(&bench.engine(), ops, kValue));
    const SimTime makespan = bench.run();
    const double mib =
        static_cast<double>(ops * kValue) / (1024.0 * 1024.0);
    print_cell(std::to_string(window));
    print_cell(mib / units::to_s(makespan));
    print_cell(units::to_us(static_cast<SimDur>(
        bench.engine().stats().set_latency.mean())));
    print_cell(std::to_string(bench.engine().arpe().stats().window_waits));
    end_row();
  }
  return obs_finalize();
}
