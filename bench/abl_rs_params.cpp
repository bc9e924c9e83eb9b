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

sim::Task<void> run_point(sim::Simulator* sim, resilience::Engine* engine,
                          workload::OhbConfig cfg,
                          workload::OhbResult* set_result,
                          workload::OhbResult* get_result) {
  co_await workload::ohb_set_workload(sim, engine, cfg, set_result);
  co_await workload::ohb_get_workload(sim, engine, cfg, get_result);
}

}  // namespace

int main(int argc, char** argv) {
  obs_init(argc, argv);
  require_oracle_shards("abl_rs_params", "its sweep drives every client from shard 0's loop");
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
    bench.spawn(run_point(&bench.sim(), &bench.engine(), cfg, &set_result,
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
  return obs_finalize();
}
