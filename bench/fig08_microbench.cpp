// FIG8 — RDMA-Memcached micro-benchmark latency on RI-QDR (paper Fig 8).
//
//   (a) Set latency, (b) Get latency (no failures), (c) Get latency with
//   two node failures: 5-server cluster, single client, 1K blocking ops per
//   point, value sizes 512 B - 1 MB, key 16 B. Designs: Sync-Rep=3,
//   Async-Rep=3, Era-CE-CD, Era-SE-SD, Era-SE-CD with RS(3,2).
//
// Expected shape (paper): Era-CE-CD improves Set by 1.6-2.8x over Sync-Rep
// and tracks Async-Rep at large values; Era-SE-* wins Sets at >64 KB on the
// idle cluster (single client request). Healthy Gets are comparable across
// designs; under 2 failures the Era designs degrade ~27% vs Async-Rep and
// Era-SE-SD degrades ~2.2x.
#include "bench_util.h"
#include "workload/ohb.h"

namespace {

using namespace hpres;         // NOLINT(google-build-using-namespace)
using namespace hpres::bench;  // NOLINT(google-build-using-namespace)

constexpr std::size_t kSizes[] = {512,       4 * 1024,   16 * 1024,
                                  64 * 1024, 256 * 1024, 1024 * 1024};
constexpr resilience::Design kDesigns[] = {
    resilience::Design::kSyncRep, resilience::Design::kAsyncRep,
    resilience::Design::kEraCeCd, resilience::Design::kEraSeSd,
    resilience::Design::kEraSeCd};

enum class Exp { kSet, kGet, kGetTwoFailures };

sim::Task<void> run_point(sim::Simulator* sim, resilience::Engine* engine,
                          cluster::Cluster* cluster, workload::OhbConfig cfg,
                          Exp exp, workload::OhbResult* result) {
  // Populate (needed for every experiment; Gets read these keys back).
  workload::OhbResult ignore;
  co_await workload::ohb_set_workload(sim, engine, cfg, &ignore);
  switch (exp) {
    case Exp::kSet: {
      // Re-run the measured Set pass on fresh keys.
      workload::OhbConfig cfg2 = cfg;
      cfg2.seed = cfg.seed + 1;
      co_await workload::ohb_set_workload(sim, engine, cfg2, result);
      break;
    }
    case Exp::kGet:
      co_await workload::ohb_get_workload(sim, engine, cfg, result);
      break;
    case Exp::kGetTwoFailures:
      cluster->fail_server(0);
      cluster->fail_server(1);
      co_await workload::ohb_get_workload(sim, engine, cfg, result);
      break;
  }
}

void run_table(const char* title, Exp exp) {
  std::vector<std::string> cols{"value"};
  for (const auto d : kDesigns) cols.emplace_back(to_string(d));
  print_header(title, cols);
  for (const std::size_t size : kSizes) {
    print_cell(size_label(size));
    for (const auto design : kDesigns) {
      Testbench bench(cluster::ri_qdr(), /*servers=*/5, /*clients=*/1,
                      design);
      workload::OhbConfig cfg;
      cfg.operations = scaled(1'000);
      cfg.value_size = size;
      workload::OhbResult result;
      bench.spawn(run_point(&bench.sim(), &bench.engine(), &bench.cluster(),
                            cfg, exp, &result));
      bench.run();
      print_cell(result.avg_latency_us());
    }
    end_row();
  }
}

}  // namespace

int main(int argc, char** argv) {
  obs_init(argc, argv);
  require_oracle_shards("fig08_microbench", "its point drivers all run on shard 0's loop");
  std::printf("FIG8 (paper Fig 8) — OHB Set/Get latency, RI-QDR, 5 servers,"
              " RS(3,2) / Rep=3, avg us per op\n");
  run_table("Fig 8(a): Set latency (us)", Exp::kSet);
  run_table("Fig 8(b): Get latency, no failures (us)", Exp::kGet);
  run_table("Fig 8(c): Get latency, two node failures (us)",
            Exp::kGetTwoFailures);
  return obs_finalize();
}
