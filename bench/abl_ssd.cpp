// ABL5 — SSD-assisted overflow tier (the hybrid memory/SSD design of the
// RDMA-Memcached the paper builds on; its Boldio servers are explicitly
// "SSD-assisted").
//
// The Fig 10 overload point (40 clients x 1K x 1 MB into 100 GB aggregate,
// Async-Rep=3 needs 120 GB) loses data in the memory-only configuration.
// With the SSD tier the overflow demotes instead; the price appears as
// device latency on reads of demoted items. Erasure coding needs neither.
#include "bench_util.h"

namespace {

using namespace hpres;         // NOLINT(google-build-using-namespace)
using namespace hpres::bench;  // NOLINT(google-build-using-namespace)

struct Point {
  double lost_gib = 0.0;
  double read_us = 0.0;
  double read_failures = 0.0;
};

sim::Task<void> writer(resilience::Engine* engine, std::size_t client_id,
                       std::uint64_t pairs, sim::Latch* done) {
  const SharedBytes value = zero_bytes(1024 * 1024);
  for (std::uint64_t i = 0; i < pairs; ++i) {
    (void)engine->iset(
        "c" + std::to_string(client_id) + "-" + std::to_string(i), value);
    if ((i + 1) % 32 == 0) co_await engine->wait_all();
  }
  co_await engine->wait_all();
  done->count_down();
}

sim::Task<void> reader(sim::Simulator* sim, resilience::Engine* engine,
                       std::size_t client_id, std::uint64_t pairs,
                       sim::Latch* done, RunningStats* latency,
                       std::uint64_t* failures) {
  for (std::uint64_t i = 0; i < pairs; ++i) {
    const SimTime t0 = sim->now();
    const Result<Bytes> r = co_await engine->get(
        "c" + std::to_string(client_id) + "-" + std::to_string(i));
    latency->record(static_cast<double>(sim->now() - t0));
    if (!r.ok()) ++*failures;
  }
  done->count_down();
}

Point run_point(resilience::Design design, bool with_ssd,
                std::uint64_t pairs) {
  constexpr std::size_t kClients = 40;
  cluster::Testbed bed = cluster::ri_qdr();
  if (with_ssd) bed.server.ssd_bytes = 300ULL * units::kGiB;
  Testbench bench(bed, 5, kClients, design);
  {
    sim::Latch done(bench.sim(), kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
      bench.spawn(writer(&bench.engine(c), c, pairs, &done));
    }
    bench.run();
  }
  Point point;
  point.lost_gib =
      static_cast<double>(bench.cluster().total_evicted_bytes()) /
      static_cast<double>(units::kGiB);
  {
    sim::Latch done(bench.sim(), kClients);
    std::vector<RunningStats> lat(kClients);
    std::vector<std::uint64_t> failures(kClients, 0);
    for (std::size_t c = 0; c < kClients; ++c) {
      bench.spawn(reader(&bench.sim(), &bench.engine(c), c, pairs, &done,
                         &lat[c], &failures[c]));
    }
    bench.run();
    RunningStats all;
    std::uint64_t fail = 0;
    for (std::size_t c = 0; c < kClients; ++c) {
      if (lat[c].count() > 0) all.record(lat[c].mean());
      fail += failures[c];
    }
    point.read_us = units::to_us(static_cast<SimDur>(all.mean()));
    point.read_failures = static_cast<double>(fail);
  }
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  obs_init(argc, argv);
  require_oracle_shards("abl_ssd", "its sweep drives every client from shard 0's loop");
  const std::uint64_t pairs = scaled(1'000);
  std::printf("ABL5 — SSD-assisted tier at the Fig 10 overload point"
              " (40 clients x %llu x 1 MB, 5 x 20 GB servers)\n",
              static_cast<unsigned long long>(pairs));
  print_header("Data loss and read-back cost",
               {"config", "lost_GiB", "read_us", "read_fail"});
  struct Row {
    const char* label;
    resilience::Design design;
    bool ssd;
  };
  for (const Row row :
       {Row{"rep3-mem", resilience::Design::kAsyncRep, false},
        Row{"rep3-ssd", resilience::Design::kAsyncRep, true},
        Row{"era-mem", resilience::Design::kEraCeCd, false}}) {
    const Point p = run_point(row.design, row.ssd, pairs);
    print_cell(row.label);
    print_cell(p.lost_gib);
    print_cell(p.read_us);
    print_cell(p.read_failures);
    end_row();
  }
  std::printf("Replication overflows memory: without the SSD it loses data;"
              " with it, reads of demoted items pay device latency. Erasure"
              " coding simply fits.\n");
  return obs_finalize();
}
