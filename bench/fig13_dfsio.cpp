// FIG13 — TestDFSIO over the Boldio burst buffer vs Lustre-Direct
// (paper Fig 13) plus the Section VI-D memory-efficiency comparison.
//
// 8 DataNode hosts x 4 maps (32 maps) write then read 10-40 GB of files
// through a 5-server Boldio cluster (24 GB each, 120 GB aggregate) over
// RI-QDR; Lustre-Direct runs 48 maps (12 hosts x 4) straight against the
// Lustre model. Boldio variants: Async-Rep=3 (the original Boldio),
// Era-CE-CD and Era-SE-CD.
//
// Expected shape (paper): Boldio reaches ~2.6x Lustre-Direct on writes and
// up to ~5.9x on reads; Boldio_Era-CE-CD matches Boldio_Async-Rep on
// writes and stays within ~9% on reads (Era-SE-CD within 3-11%); the Era
// variants use ~1.84x less aggregate memory.
#include "bench_util.h"
#include "boldio/dfsio.h"

namespace {

using namespace hpres;          // NOLINT(google-build-using-namespace)
using namespace hpres::bench;   // NOLINT(google-build-using-namespace)
using namespace hpres::boldio;  // NOLINT(google-build-using-namespace)

constexpr std::size_t kHosts = 8;
constexpr std::size_t kMapsPerHost = 4;
constexpr std::size_t kDirectMaps = 48;  // 12 hosts x 4 maps

cluster::Testbed boldio_testbed() {
  cluster::Testbed bed = cluster::ri_qdr();
  // 24 GB per server (120 GB aggregate) in the paper; scaled in lock-step
  // with the data volume so the rep-at-40GB memory pressure is preserved.
  bed.server.memory_bytes = static_cast<std::uint64_t>(
      24.0 * static_cast<double>(units::kGiB) * bench_scale() / 8.0);
  return bed;
}

struct BoldioOutcome {
  DfsioResult write;
  DfsioResult read;
  double mem_used_gib = 0.0;
};

BoldioOutcome run_boldio(resilience::Design design, std::uint64_t data_bytes) {
  Testbench bench(boldio_testbed(), /*servers=*/5, /*clients=*/kHosts,
                  design);
  cluster::Cluster& cluster = bench.cluster();
  LustreModel lustre(cluster.sim());
  std::vector<std::unique_ptr<BoldioClient>> clients;
  clients.reserve(kHosts);
  for (std::size_t h = 0; h < kHosts; ++h) {
    clients.push_back(std::make_unique<BoldioClient>(
        cluster.sim_for_client(h), bench.engine(h), &lustre));
  }

  const std::size_t maps = kHosts * kMapsPerHost;
  const std::uint64_t file_bytes = data_bytes / maps;
  BoldioOutcome out;

  struct StopWatch {
    static sim::Task<void> run(sim::Simulator* sim, sim::Latch* latch,
                               SimTime* finished_at) {
      co_await latch->wait();
      *finished_at = sim->now();
    }
  };

  for (const bool write : {true, false}) {
    const SimTime start = cluster.now_quiesced();
    sim::Latch done(cluster.sim(), static_cast<std::uint32_t>(maps));
    std::uint64_t failures = 0;
    SimTime finished_at = start;
    // The job completes when every map finishes; the asynchronous Lustre
    // flush keeps draining afterwards and must not count against the
    // TestDFSIO makespan.
    bench.spawn_client(0, StopWatch::run(&cluster.sim(), &done, &finished_at));
    for (std::size_t m = 0; m < maps; ++m) {
      const std::size_t host = m % kHosts;
      bench.spawn_client(
          host, dfsio_boldio_map(clients[host].get(),
                                 "dfsio/part-" + std::to_string(m),
                                 file_bytes, write, &done, &failures));
    }
    bench.run();
    DfsioResult& r = write ? out.write : out.read;
    r.total_bytes = file_bytes * maps;
    r.makespan_ns = finished_at - start;
    r.failures = failures;
  }
  out.mem_used_gib = static_cast<double>(cluster.total_bytes_used()) /
                     static_cast<double>(units::kGiB);
  return out;
}

BoldioOutcome run_direct(std::uint64_t data_bytes) {
  sim::Simulator sim;
  LustreModel lustre(sim);
  const std::uint64_t file_bytes = data_bytes / kDirectMaps;
  BoldioOutcome out;
  for (const bool write : {true, false}) {
    const SimTime start = sim.now();
    sim::Latch done(sim, kDirectMaps);
    for (std::size_t m = 0; m < kDirectMaps; ++m) {
      sim.spawn(dfsio_direct_map(&lustre, file_bytes, write, &done));
    }
    sim.run();
    DfsioResult& r = write ? out.write : out.read;
    r.total_bytes = file_bytes * kDirectMaps;
    r.makespan_ns = sim.now() - start;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  obs_init(argc, argv);
  // The one oracle-only harness: every map, on every host, queues on the
  // single serial Lustre pipe, so splitting the hosts across shards would
  // change the model rather than parallelize it.
  if (const std::size_t n = ObsSession::instance().effective_shards(); n > 1) {
    std::fprintf(stderr,
                 "error: fig13_dfsio is oracle-only: its Lustre model is one"
                 " serial pipe that all %zu maps share across hosts."
                 " Requested %zu shards; re-run without --shards.\n",
                 kHosts * kMapsPerHost, n);
    return 2;
  }
  std::printf("FIG13 (paper Fig 13) — TestDFSIO throughput, Boldio"
              " (8 hosts x 4 maps, 5 x 24 GB servers) vs Lustre-Direct"
              " (12 hosts x 4 maps)\n");
  print_header(
      "TestDFSIO write/read throughput (MiB/s) + Boldio memory (GiB)",
      {"data", "direct:wr", "direct:rd", "rep:wr", "rep:rd", "rep:mem",
       "era-ce:wr", "era-ce:rd", "era-ce:mem", "era-se:wr", "era-se:rd"});
  // Default scale runs 1/8 of the paper's data volumes (sim op count);
  // HPRES_BENCH_SCALE=8 restores 10-40 GB.
  for (const std::uint64_t gib : {10u, 20u, 30u, 40u}) {
    const std::uint64_t data = scaled(gib * units::kGiB / 8);
    const BoldioOutcome direct = run_direct(data);
    const BoldioOutcome rep =
        run_boldio(resilience::Design::kAsyncRep, data);
    const BoldioOutcome era_ce =
        run_boldio(resilience::Design::kEraCeCd, data);
    const BoldioOutcome era_se =
        run_boldio(resilience::Design::kEraSeCd, data);
    print_cell(std::to_string(gib) + "G*");
    print_cell(direct.write.throughput_mib_s());
    print_cell(direct.read.throughput_mib_s());
    print_cell(rep.write.throughput_mib_s());
    print_cell(rep.read.throughput_mib_s());
    print_cell(rep.mem_used_gib);
    print_cell(era_ce.write.throughput_mib_s());
    print_cell(era_ce.read.throughput_mib_s());
    print_cell(era_ce.mem_used_gib);
    print_cell(era_se.write.throughput_mib_s());
    print_cell(era_se.read.throughput_mib_s());
    end_row();
  }
  std::printf("(*) data column names the paper's job size; the simulated"
              " volume is scaled by HPRES_BENCH_SCALE/8 (see header).\n");
  return obs_finalize();
}
