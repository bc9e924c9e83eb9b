// ABL4 — Hybrid replication/erasure threshold sweep (the paper's
// future-work scheme, Section VIII).
//
// A bimodal value population (the paper's two workload classes: small
// online query results + large offline I/O chunks) runs against pure
// replication, pure erasure coding, and the hybrid engine at several
// size thresholds. Reports average Set/Get latency and aggregate memory.
//
// Exits 1 (stderr) when an extreme threshold does not route like the pure
// scheme it selects: hybrid<512K replicates every value, so its row must
// equal async-rep's; hybrid<1K erasure codes every value, so its set_us and
// mem_MiB must equal era-ce-cd's (its Gets also probe a replica first).
#include "bench_util.h"
#include "common/rng.h"
#include "resilience/hybrid.h"

namespace {

using namespace hpres;         // NOLINT(google-build-using-namespace)
using namespace hpres::bench;  // NOLINT(google-build-using-namespace)

constexpr std::size_t kSmall = 2 * 1024;     // online query result
constexpr std::size_t kLarge = 256 * 1024;   // offline I/O chunk

struct Point {
  double set_us = 0.0;
  double get_us = 0.0;
  double mem_mib = 0.0;
};

sim::Task<void> mixed_workload(sim::Simulator* sim,
                               resilience::Engine* engine, std::uint64_t ops,
                               Point* out) {
  Xoshiro256 rng(7);
  const SharedBytes small = zero_bytes(kSmall);
  const SharedBytes large = zero_bytes(kLarge);
  SimTime t0 = sim->now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    const bool is_small = rng.next_double() < 0.5;
    (void)co_await engine->set("m" + std::to_string(i),
                               is_small ? small : large);
  }
  out->set_us = units::to_us(sim->now() - t0) / static_cast<double>(ops);
  t0 = sim->now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    (void)co_await engine->get("m" + std::to_string(i));
  }
  out->get_us = units::to_us(sim->now() - t0) / static_cast<double>(ops);
}

/// Runs the mix on client 0 to quiescence, then reads the memory total.
Point run_engine(Testbench& bench, resilience::Engine* engine,
                 std::uint64_t ops) {
  Point point;
  bench.spawn_client(0, mixed_workload(&bench.cluster().sim_for_client(0),
                                       engine, ops, &point));
  bench.run();
  point.mem_mib = static_cast<double>(bench.cluster().total_bytes_used()) /
                  (1024.0 * 1024.0);
  return point;
}

void print_row(const std::string& label, const Point& p) {
  print_cell(label);
  print_cell(p.set_us);
  print_cell(p.get_us);
  print_cell(p.mem_mib);
  end_row();
}

/// Compares one column of a hybrid row against its pure scheme's, exactly.
bool same(const char* hybrid, const char* scheme, const char* column,
          double got, double want) {
  if (got == want) return true;
  std::fprintf(stderr, "error: %s %s %.6f != %s %.6f\n", hybrid, column, got,
               scheme, want);
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  obs_init(argc, argv);
  const std::uint64_t ops = scaled(300);
  std::printf("ABL4 — hybrid threshold sweep: 50/50 mix of 2 KB and 256 KB"
              " values, %llu ops, RS(3,2) / Rep=3, RI-QDR\n",
              static_cast<unsigned long long>(ops));
  print_header("Scheme comparison on a bimodal population",
               {"scheme", "set_us", "get_us", "mem_MiB"});

  // Pure baselines.
  Point rep;
  Point era;
  for (const resilience::Design design :
       {resilience::Design::kAsyncRep, resilience::Design::kEraCeCd}) {
    Testbench bench(cluster::ri_qdr(), 5, 1, design);
    const Point p = run_engine(bench, &bench.engine(), ops);
    (design == resilience::Design::kAsyncRep ? rep : era) = p;
    print_row(std::string(to_string(design)), p);
  }

  // Hybrid thresholds covering the extremes (1 KB routes everything to
  // erasure coding, 512 KB routes everything to replication) plus the
  // between-the-modes setting that splits the population.
  Point all_era;
  Point all_rep;
  for (const std::size_t threshold :
       {std::size_t{1} * 1024, std::size_t{16} * 1024,
        std::size_t{512} * 1024}) {
    Testbench bench(cluster::ri_qdr(), 5, 1,
                    resilience::Design::kAsyncRep);  // context donor only
    ec::RsVandermondeCodec codec(3, 2);
    resilience::HybridEngine hybrid(
        bench.cluster().engine_context(0, /*materialize=*/false), codec,
        ec::CostModel::defaults(ec::Scheme::kRsVandermonde, 3, 2), 3,
        threshold);
    const Point p = run_engine(bench, &hybrid, ops);
    if (threshold <= kSmall) all_era = p;
    if (threshold > kLarge) all_rep = p;
    print_row("hybrid<" + size_label(threshold), p);
  }

  bool ok = same("hybrid<512K", "async-rep", "set_us", all_rep.set_us,
                 rep.set_us);
  ok &= same("hybrid<512K", "async-rep", "get_us", all_rep.get_us,
             rep.get_us);
  ok &= same("hybrid<512K", "async-rep", "mem_MiB", all_rep.mem_mib,
             rep.mem_mib);
  ok &= same("hybrid<1K", "era-ce-cd", "set_us", all_era.set_us, era.set_us);
  ok &= same("hybrid<1K", "era-ce-cd", "mem_MiB", all_era.mem_mib,
             era.mem_mib);
  const int rc = obs_finalize();
  return ok ? rc : 1;
}
