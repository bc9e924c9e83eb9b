// FIG10 — Memory efficiency of Era-RS(3,2) vs Async-Rep=3 (paper Fig 10).
//
// 5 servers x 20 GB; 1..40 clients each write 1K key-value pairs of 1 MB.
// Reports the percentage of the aggregate 100 GB used and the data lost to
// eviction pressure.
//
// Expected shape (paper): Era uses ~56% of aggregate memory at 40 clients
// (a ~1.8x saving) while Async-Rep saturates 100% and suffers ~GBs of data
// loss.
#include <cmath>

#include "bench_util.h"
#include "ec/stripe.h"

namespace {

using namespace hpres;         // NOLINT(google-build-using-namespace)
using namespace hpres::bench;  // NOLINT(google-build-using-namespace)

sim::Task<void> writer(resilience::Engine* engine, std::size_t client_id,
                       std::uint64_t pairs, std::size_t value_size,
                       sim::Latch* done) {
  const SharedBytes value = zero_bytes(value_size);
  for (std::uint64_t i = 0; i < pairs; ++i) {
    (void)engine->iset(
        "c" + std::to_string(client_id) + "-" + std::to_string(i), value);
    if ((i + 1) % 32 == 0) co_await engine->wait_all();
  }
  co_await engine->wait_all();
  done->count_down();
}

struct Point {
  double used_pct = 0.0;
  double lost_gib = 0.0;
};

Point run_point(resilience::Design design, std::size_t clients,
                std::uint64_t pairs_per_client) {
  Testbench bench(cluster::ri_qdr(), /*servers=*/5, clients, design);
  sim::Latch done(bench.sim(), static_cast<std::uint32_t>(clients));
  for (std::size_t c = 0; c < clients; ++c) {
    bench.spawn(writer(&bench.engine(c), c, pairs_per_client,
                       1024 * 1024, &done));
  }
  bench.run();
  Point p;
  p.used_pct = 100.0 *
               static_cast<double>(bench.cluster().total_bytes_used()) /
               static_cast<double>(bench.cluster().total_capacity());
  p.lost_gib = static_cast<double>(bench.cluster().total_evicted_bytes()) /
               static_cast<double>(units::kGiB);
  return p;
}

/// Accounting cross-check at an eviction-free point (1 client): the
/// measured per-key stored bytes of the era design must match the
/// ec::predict_footprint striped prediction to the byte. Guards the
/// padding-overhead model the small-value sweep (ext_small_values) derives
/// its packing crossover from.
void check_footprint_accounting(std::uint64_t pairs) {
  Testbench bench(cluster::ri_qdr(), /*servers=*/5, /*clients=*/1,
                  resilience::Design::kEraCeCd);
  sim::Latch done(bench.sim(), 1);
  bench.spawn(writer(&bench.engine(0), 0, pairs, 1024 * 1024, &done));
  bench.run();
  const double measured =
      static_cast<double>(bench.cluster().total_bytes_used());
  ec::FootprintParams p;
  p.value_size = 1024 * 1024;
  p.k = 3;
  p.m = 2;
  p.alignment = 1;
  p.item_overhead = kv::StorageEngine::kItemOverhead;
  p.chunk_info_bytes = sizeof(kv::ChunkInfo);
  double predicted = 0.0;
  for (std::uint64_t i = 0; i < pairs; ++i) {
    p.key_size = ("c0-" + std::to_string(i)).size();
    predicted += ec::predict_footprint(p).striped_per_key;
  }
  if (std::abs(measured - predicted) > 0.5) {
    std::fprintf(stderr,
                 "FOOTPRINT MISMATCH: measured %.0f B != predicted %.0f B\n",
                 measured, predicted);
    std::exit(1);
  }
  std::printf("footprint accounting check: measured == predicted"
              " (%.0f B over %llu keys)\n",
              measured, static_cast<unsigned long long>(pairs));
}

}  // namespace

int main(int argc, char** argv) {
  obs_init(argc, argv);
  require_oracle_shards("fig10_memory", "its loaders all run on shard 0's loop");
  const std::uint64_t pairs = scaled(1'000);
  check_footprint_accounting(pairs);
  std::printf("FIG10 (paper Fig 10) — memory efficiency, 5 servers x 20 GB"
              " (100 GB aggregate), %llu x 1 MB pairs per client\n",
              static_cast<unsigned long long>(pairs));
  print_header("Aggregate memory used (%) and data loss (GiB)",
               {"clients", "rep_used%", "rep_lost", "era_used%", "era_lost"});
  for (const std::size_t clients : {1u, 5u, 10u, 20u, 30u, 40u}) {
    const Point rep =
        run_point(resilience::Design::kAsyncRep, clients, pairs);
    const Point era = run_point(resilience::Design::kEraCeCd, clients, pairs);
    print_cell(std::to_string(clients));
    print_cell(rep.used_pct);
    print_cell(rep.lost_gib);
    print_cell(era.used_pct);
    print_cell(era.lost_gib);
    end_row();
  }
  return obs_finalize();
}
