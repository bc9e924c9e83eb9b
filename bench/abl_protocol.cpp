// ABL1-3 — protocol ablations, printed in order:
//
// ABL1 — ARPE completion-window sweep (design ablation, Section IV-A).
// The send/receive window is the ARPE's central tunable: it bounds how many
// non-blocking operations may overlap, and therefore how much of the
// encode/communication pipeline actually overlaps. Window=1 degenerates to
// blocking behaviour; growing it should saturate once the client CPU or a
// NIC becomes the bottleneck.
//
// ABL2 — Eager/rendezvous threshold sweep (Section VI-C analysis).
// The paper attributes part of Era-CE-CD's YCSB win to protocol selection:
// chunking a 16-64 KB value drops each fragment below RDMA-Memcached's
// 16 KB eager threshold, dodging the rendezvous handshake that the full
// value (Async-Rep) must pay. Sweeping the threshold isolates that effect:
// with an enormous threshold (everything eager) or a zero threshold
// (everything rendezvous) the chunking advantage shrinks to the bandwidth
// factor alone.
//
// ABL3 — RS(K,M) parameter sweep (the trade-off space behind Section III's
// model): storage overhead N/K against Set/Get latency and fault tolerance,
// on a 12-server cluster so wider codes still place each fragment on its
// own node. Explores part of the paper's future-work direction (tuning the
// code to the workload).
#include "bench_util.h"
#include "workload/ohb.h"

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

void window_sweep() {
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
    bench.spawn_client(0, pipelined_sets(&bench.engine(), ops, kValue));
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
}

double set_latency_us(const cluster::Testbed& bed, resilience::Design design,
                      std::size_t value_size) {
  Testbench bench(bed, 5, 1, design);
  workload::OhbConfig cfg;
  cfg.operations = scaled(400);
  cfg.value_size = value_size;
  workload::OhbResult result;
  bench.spawn_client(
      0, workload::ohb_set_workload(&bench.cluster().sim_for_client(0),
                                    &bench.engine(), cfg, &result));
  bench.run();
  return result.avg_latency_us();
}

void eager_threshold_sweep() {
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
}

sim::Task<void> set_then_get(sim::Simulator* sim, resilience::Engine* engine,
                             workload::OhbConfig cfg,
                             workload::OhbResult* set_result,
                             workload::OhbResult* get_result) {
  co_await workload::ohb_set_workload(sim, engine, cfg, set_result);
  co_await workload::ohb_get_workload(sim, engine, cfg, get_result);
}

void rs_params_sweep() {
  constexpr std::size_t kValue = 256 * 1024;
  std::printf("ABL3 — RS(K,M) sweep, Era-CE-CD on 12 servers, 256 KB"
              " values\n");
  print_header("Latency and storage overhead per code",
               {"code", "tolerates", "overhead", "set_us", "get_us"});
  struct Shape {
    std::size_t k;
    std::size_t m;
  };
  for (const Shape shape : {Shape{2, 1}, Shape{3, 2}, Shape{4, 2},
                            Shape{6, 3}, Shape{8, 4}, Shape{10, 2}}) {
    Testbench bench(cluster::ri_qdr(), /*servers=*/12, 1,
                    resilience::Design::kEraCeCd, shape.k, shape.m);
    workload::OhbConfig cfg;
    cfg.operations = scaled(400);
    cfg.value_size = kValue;
    workload::OhbResult set_result;
    workload::OhbResult get_result;
    bench.spawn_client(0, set_then_get(&bench.cluster().sim_for_client(0),
                                       &bench.engine(), cfg, &set_result,
                                       &get_result));
    bench.run();
    print_cell("RS(" + std::to_string(shape.k) + "," +
               std::to_string(shape.m) + ")");
    print_cell(std::to_string(shape.m));
    print_cell(static_cast<double>(shape.k + shape.m) /
               static_cast<double>(shape.k));
    print_cell(set_result.avg_latency_us());
    print_cell(get_result.avg_latency_us());
    end_row();
  }
}

}  // namespace

int main(int argc, char** argv) {
  obs_init(argc, argv);
  window_sweep();
  eager_threshold_sweep();
  rs_params_sweep();
  return obs_finalize();
}
