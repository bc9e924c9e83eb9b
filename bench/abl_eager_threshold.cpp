// ABL2 — Eager/rendezvous threshold sweep (Section VI-C analysis).
//
// The paper attributes part of Era-CE-CD's YCSB win to protocol selection:
// chunking a 16-64 KB value drops each fragment below RDMA-Memcached's
// 16 KB eager threshold, dodging the rendezvous handshake that the full
// value (Async-Rep) must pay. Sweeping the threshold isolates that effect:
// with an enormous threshold (everything eager) or a zero threshold
// (everything rendezvous) the chunking advantage shrinks to the bandwidth
// factor alone.
#include "bench_util.h"
#include "workload/ohb.h"

namespace {

using namespace hpres;         // NOLINT(google-build-using-namespace)
using namespace hpres::bench;  // NOLINT(google-build-using-namespace)

sim::Task<void> run_sets(sim::Simulator* sim, resilience::Engine* engine,
                         workload::OhbConfig cfg,
                         workload::OhbResult* result) {
  co_await workload::ohb_set_workload(sim, engine, cfg, result);
}

double set_latency_us(const cluster::Testbed& bed, resilience::Design design,
                      std::size_t value_size) {
  Testbench bench(bed, 5, 1, design);
  workload::OhbConfig cfg;
  cfg.operations = scaled(400);
  cfg.value_size = value_size;
  workload::OhbResult result;
  bench.spawn(run_sets(&bench.sim(), &bench.engine(), cfg, &result));
  bench.run();
  return result.avg_latency_us();
}

}  // namespace

int main(int argc, char** argv) {
  obs_init(argc, argv);
  require_oracle_shards("abl_eager_threshold", "its sweep drives every client from shard 0's loop");
  std::printf("ABL2 — rendezvous-threshold sweep, RI-QDR, blocking sets\n");
  print_header("Set latency (us): era-ce-cd vs async-rep per threshold",
               {"threshold", "value", "era-ce-cd", "async-rep", "rep/era"});
  for (const std::size_t threshold :
       {std::size_t{0}, std::size_t{4} * 1024, std::size_t{16} * 1024,
        std::size_t{64} * 1024, static_cast<std::size_t>(-1)}) {
    cluster::Testbed bed = cluster::ri_qdr();
    bed.fabric.rendezvous_threshold = threshold;
    for (const std::size_t size :
         {std::size_t{16} * 1024, std::size_t{32} * 1024,
          std::size_t{64} * 1024}) {
      const double era =
          set_latency_us(bed, resilience::Design::kEraCeCd, size);
      const double rep =
          set_latency_us(bed, resilience::Design::kAsyncRep, size);
      print_cell(threshold == 0 ? std::string("rndv-all")
                 : threshold == static_cast<std::size_t>(-1)
                     ? std::string("eager-all")
                     : size_label(threshold));
      print_cell(size_label(size));
      print_cell(era);
      print_cell(rep);
      print_cell(rep / era);
      end_row();
    }
  }
  return obs_finalize();
}
