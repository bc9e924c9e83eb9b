// EXT1 — Recovery overhead analysis (the paper's declared future work,
// Section VI-D: "recovery overhead is of importance. Hence, we plan to
// undertake detailed recovery overhead analysis").
//
// A node that held one fragment of every key dies and rejoins empty. The
// repair coordinator rebuilds its fragments from the survivors. Reported
// per value size: repair throughput, per-key repair latency, and the
// degraded-read penalty the repair removes (degraded vs healthy Get).
//
// Exits 1 (stderr) unless, at every value size, the repair rebuilt exactly
// one fragment per key with no unrepairable key and no failed scan.
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
  resilience::RepairStats repair;
};

sim::Task<void> populate(resilience::Engine* engine, std::uint64_t keys,
                         std::size_t value_size) {
  const SharedBytes value = zero_bytes(value_size);
  for (std::uint64_t i = 0; i < keys; ++i) {
    (void)engine->iset("obj" + std::to_string(i), value);
    if ((i + 1) % 32 == 0) co_await engine->wait_all();
  }
  co_await engine->wait_all();
}

/// Reads every key back once; average per-Get latency (us) into `*avg_us`.
sim::Task<void> read_all(sim::Simulator* sim, resilience::Engine* engine,
                         std::uint64_t keys, double* avg_us) {
  const SimTime t0 = sim->now();
  for (std::uint64_t i = 0; i < keys; ++i) {
    (void)co_await engine->get("obj" + std::to_string(i));
  }
  *avg_us = units::to_us(sim->now() - t0) / static_cast<double>(keys);
}

sim::Task<void> repair_all(sim::Simulator* sim,
                           resilience::RepairCoordinator* repair,
                           SimDur* repair_ns) {
  const SimTime t0 = sim->now();
  (void)co_await repair->repair_all();
  *repair_ns = sim->now() - t0;
}

/// Each phase runs to quiescence; the crash, wipe and rejoin happen
/// between phases.
Point run_point(std::uint64_t keys, std::size_t value_size) {
  Testbench bench(cluster::ri_qdr(), 5, 1, resilience::Design::kEraCeCd);
  cluster::Cluster& cluster = bench.cluster();
  sim::Simulator* sim = &cluster.sim_for_client(0);
  resilience::Engine* engine = &bench.engine();
  ec::RsVandermondeCodec codec(3, 2);
  resilience::RepairCoordinator repair(
      cluster.engine_context(0, /*materialize=*/false), codec,
      ec::CostModel::defaults(ec::Scheme::kRsVandermonde, 3, 2));
  Point out;
  bench.spawn_client(0, populate(engine, keys, value_size));
  bench.run();
  // Healthy read latency.
  bench.spawn_client(0, read_all(sim, engine, keys, &out.healthy_get_us));
  bench.run();
  // Server 0 dies with total state loss, rejoins empty. Degraded read
  // latency first (keys whose fragment lived on server 0 decode).
  cluster.fail_server(0);
  cluster.server(0).store().clear();
  bench.spawn_client(0, read_all(sim, engine, keys, &out.degraded_get_us));
  bench.run();
  cluster.recover_server(0);
  SimDur repair_ns = 0;
  bench.spawn_client(0, repair_all(sim, &repair, &repair_ns));
  bench.run();
  out.repair_ms = units::to_ms(repair_ns);
  out.repair = repair.stats();
  out.repair_mib_s =
      static_cast<double>(repair.stats().bytes_rebuilt) / (1024.0 * 1024.0) /
      units::to_s(repair_ns);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  obs_init(argc, argv);
  const std::uint64_t keys = scaled(200);
  std::printf("EXT1 — recovery overhead: node rejoins empty, RS(3,2),"
              " RI-QDR, %llu keys per point\n",
              static_cast<unsigned long long>(keys));
  print_header("Repair cost vs value size",
               {"value", "repair_ms", "repair_MiB/s", "healthy_get",
                "degraded_get", "penalty"});
  bool ok = true;
  for (const std::size_t size :
       {std::size_t{16} * 1024, std::size_t{64} * 1024,
        std::size_t{256} * 1024, std::size_t{1024} * 1024}) {
    const Point point = run_point(keys, size);
    const resilience::RepairStats& r = point.repair;
    if (r.fragments_rebuilt != keys || r.unrepairable_keys != 0 ||
        r.scan_failures != 0) {
      std::fprintf(stderr,
                   "error: %s rebuilt %llu fragments for %llu keys, %llu "
                   "unrepairable, %llu failed scans\n",
                   size_label(size).c_str(),
                   static_cast<unsigned long long>(r.fragments_rebuilt),
                   static_cast<unsigned long long>(keys),
                   static_cast<unsigned long long>(r.unrepairable_keys),
                   static_cast<unsigned long long>(r.scan_failures));
      ok = false;
    }
    print_cell(size_label(size));
    print_cell(point.repair_ms);
    print_cell(point.repair_mib_s);
    print_cell(point.healthy_get_us);
    print_cell(point.degraded_get_us);
    print_cell(point.degraded_get_us / point.healthy_get_us);
    end_row();
  }
  const int rc = obs_finalize();
  return ok ? rc : 1;
}
