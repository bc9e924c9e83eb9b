// EXT1 — Recovery overhead analysis (the paper's declared future work,
// Section VI-D: "recovery overhead is of importance. Hence, we plan to
// undertake detailed recovery overhead analysis").
//
// A node that held one fragment of every key dies and rejoins empty. The
// repair coordinator rebuilds its fragments from the survivors. Reported
// per value size: repair throughput, per-key repair latency, and the
// degraded-read penalty the repair removes (degraded vs healthy Get).
#include "bench_util.h"
#include "resilience/repair.h"

namespace {

using namespace hpres;         // NOLINT(google-build-using-namespace)
using namespace hpres::bench;  // NOLINT(google-build-using-namespace)

struct Point {
  double repair_ms = 0.0;          // total repair_all time
  double repair_mib_s = 0.0;       // rebuilt bytes / time
  double healthy_get_us = 0.0;
  double degraded_get_us = 0.0;
};

sim::Task<void> scenario(sim::Simulator* sim, resilience::Engine* engine,
                         resilience::RepairCoordinator* repair,
                         cluster::Cluster* cluster, std::uint64_t keys,
                         std::size_t value_size, Point* out) {
  const SharedBytes value = zero_bytes(value_size);
  for (std::uint64_t i = 0; i < keys; ++i) {
    (void)engine->iset("obj" + std::to_string(i), value);
    if ((i + 1) % 32 == 0) co_await engine->wait_all();
  }
  co_await engine->wait_all();

  // Healthy read latency.
  SimTime t0 = sim->now();
  for (std::uint64_t i = 0; i < keys; ++i) {
    (void)co_await engine->get("obj" + std::to_string(i));
  }
  out->healthy_get_us =
      units::to_us(sim->now() - t0) / static_cast<double>(keys);

  // Server 0 dies with total state loss, rejoins empty.
  cluster->fail_server(0);
  while (!cluster->server(0).store().keys().empty()) {
    cluster->server(0).store().erase(cluster->server(0).store().keys().front());
  }
  // Degraded read latency (keys whose fragment lived on server 0 decode).
  t0 = sim->now();
  for (std::uint64_t i = 0; i < keys; ++i) {
    (void)co_await engine->get("obj" + std::to_string(i));
  }
  out->degraded_get_us =
      units::to_us(sim->now() - t0) / static_cast<double>(keys);

  cluster->recover_server(0);
  t0 = sim->now();
  (void)co_await repair->repair_all();
  const SimDur repair_ns = sim->now() - t0;
  out->repair_ms = units::to_ms(repair_ns);
  out->repair_mib_s =
      static_cast<double>(repair->stats().bytes_rebuilt) / (1024.0 * 1024.0) /
      units::to_s(repair_ns);
}

}  // namespace

int main(int argc, char** argv) {
  obs_init(argc, argv);
  require_oracle_shards("ext_recovery", "its repair coordinator drives cross-node reads from one loop");
  const std::uint64_t keys = scaled(200);
  std::printf("EXT1 — recovery overhead: node rejoins empty, RS(3,2),"
              " RI-QDR, %llu keys per point\n",
              static_cast<unsigned long long>(keys));
  print_header("Repair cost vs value size",
               {"value", "repair_ms", "repair_MiB/s", "healthy_get",
                "degraded_get", "penalty"});
  for (const std::size_t size :
       {std::size_t{16} * 1024, std::size_t{64} * 1024,
        std::size_t{256} * 1024, std::size_t{1024} * 1024}) {
    Testbench bench(cluster::ri_qdr(), 5, 1, resilience::Design::kEraCeCd);
    resilience::EngineContext ctx;
    ctx.sim = &bench.sim();
    ctx.client = &bench.cluster().client(0);
    ctx.ring = &bench.cluster().ring();
    ctx.membership = &bench.cluster().membership();
    ctx.server_nodes = &bench.cluster().server_nodes();
    ctx.materialize = false;
    ctx.tracer = &ObsSession::instance().tracer();
    ctx.trace_pid = bench.trace_pid();
    ec::RsVandermondeCodec codec(3, 2);
    resilience::RepairCoordinator repair(
        ctx, codec,
        ec::CostModel::defaults(ec::Scheme::kRsVandermonde, 3, 2));
    Point point;
    bench.spawn(scenario(&bench.sim(), &bench.engine(), &repair,
                         &bench.cluster(), keys, size, &point));
    bench.run();
    print_cell(size_label(size));
    print_cell(point.repair_ms);
    print_cell(point.repair_mib_s);
    print_cell(point.healthy_get_us);
    print_cell(point.degraded_get_us);
    print_cell(point.degraded_get_us / point.healthy_get_us);
    end_row();
  }
  return obs_finalize();
}
