// EXT2 — Repair locality: RS vs LRC (the paper's future-work comparison,
// Section VIII: "optimized erasure codes such as locally repairable
// codes ... with the goal of maximizing overall performance and storage
// efficiency").
//
// A node that held one fragment of every key rejoins empty; the repair
// coordinator rebuilds its fragments. RS(6,3) must read k=6 fragments per
// repair; LRC(6,2,2) reads only its local group (3 + the local parity when
// applicable). Reported: repair time, network bytes read per key, local
// repair ratio, and the storage overhead each code pays.
//
// Exits non-zero (diagnostic on stderr) when a key is unrepairable, when
// the fragments rebuilt differ from the fragments the node lost, or when
// the MDS code reports a local repair.
#include "bench_util.h"
#include "ec/lrc.h"
#include "resilience/repair.h"

namespace {

using namespace hpres;         // NOLINT(google-build-using-namespace)
using namespace hpres::bench;  // NOLINT(google-build-using-namespace)

struct Point {
  double repair_ms = 0.0;
  double read_mib = 0.0;
  double frags_per_key = 0.0;
  double local_ratio = 0.0;
  double overhead = 0.0;
  std::uint64_t lost_fragments = 0;
  std::uint64_t rebuilt_fragments = 0;
  std::uint64_t unrepairable_keys = 0;
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

sim::Task<void> repair_all(sim::Simulator* sim,
                           resilience::RepairCoordinator* repair,
                           SimDur* repair_ns) {
  const SimTime t0 = sim->now();
  (void)co_await repair->repair_all();
  *repair_ns = sim->now() - t0;
}

Point run_code(const ec::Codec& codec, std::uint64_t keys,
               std::size_t value_size) {
  ObsSession& obs = ObsSession::instance();
  // 12 servers hosts both codes' fragment counts (9 and 10) with room.
  cluster::ClusterConfig cfg = cluster::make_config(cluster::ri_qdr(), 12, 1);
  cfg.shards = obs.effective_shards();
  cluster::Cluster cl(cfg);
  const auto cost = ec::CostModel::defaults(ec::Scheme::kRsVandermonde,
                                            codec.k(), codec.m());
  cl.enable_server_ec(codec, cost, false);
  cl.set_tracer(&obs.tracer(),
                obs.tracer().declare_process(std::string(codec.name())));
  const resilience::EngineContext ctx =
      cl.engine_context(0, /*materialize=*/false);
  const auto engine = resilience::make_engine(resilience::Design::kEraCeCd,
                                              ctx, 3, &codec, cost);
  resilience::RepairCoordinator repair(ctx, codec, cost);
  cl.start();
  sim::Simulator* sim = &cl.sim_for_client(0);
  sim->spawn(populate(engine.get(), keys, value_size));
  cl.run();

  // Server 0 rejoins empty: every fragment it held is lost.
  Point point;
  point.overhead = static_cast<double>(codec.n()) /
                   static_cast<double>(codec.k());
  cl.fail_server(0);
  point.lost_fragments = cl.server(0).store().items();
  cl.server(0).store().clear();
  cl.recover_server(0);

  SimDur repair_ns = 0;
  sim->spawn(repair_all(sim, &repair, &repair_ns));
  cl.run();
  obs.add_sim_events(cl.runtime().events_executed());

  const auto& stats = repair.stats();
  point.rebuilt_fragments = stats.fragments_rebuilt;
  point.unrepairable_keys = stats.unrepairable_keys;
  point.repair_ms = units::to_ms(repair_ns);
  point.read_mib = static_cast<double>(stats.bytes_read) / (1024.0 * 1024.0);
  point.frags_per_key =
      stats.keys_repaired == 0
          ? 0.0
          : static_cast<double>(stats.fragments_read) /
                static_cast<double>(stats.keys_repaired);
  point.local_ratio =
      stats.keys_repaired == 0
          ? 0.0
          : static_cast<double>(stats.local_repairs) /
                static_cast<double>(stats.keys_repaired);
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  obs_init(argc, argv);
  const std::uint64_t keys = scaled(150);
  constexpr std::size_t kValue = 256 * 1024;
  std::printf("EXT2 — repair locality, node rejoin with %llu x 256 KB keys,"
              " 12 servers, RI-QDR\n",
              static_cast<unsigned long long>(keys));
  print_header("RS(6,3) vs LRC(6,2,2) repair",
               {"code", "overhead", "repair_ms", "read_MiB", "frags/key",
                "local%"});
  const ec::RsVandermondeCodec rs(6, 3);
  const ec::LrcCodec lrc(6, 2, 2);
  struct Row {
    const char* label;
    const ec::Codec* codec;
  };
  bool ok = true;
  for (const Row row : {Row{"RS(6,3)", &rs}, Row{"LRC(6,2,2)", &lrc}}) {
    const Point p = run_code(*row.codec, keys, kValue);
    if (p.unrepairable_keys != 0) {
      std::fprintf(stderr, "error: %s left %llu keys unrepairable\n",
                   row.label,
                   static_cast<unsigned long long>(p.unrepairable_keys));
      ok = false;
    }
    if (p.rebuilt_fragments != p.lost_fragments) {
      std::fprintf(stderr, "error: %s rebuilt %llu of %llu lost fragments\n",
                   row.label,
                   static_cast<unsigned long long>(p.rebuilt_fragments),
                   static_cast<unsigned long long>(p.lost_fragments));
      ok = false;
    }
    if (row.codec == &rs && p.local_ratio != 0.0) {
      std::fprintf(stderr, "error: %s reports local repairs\n", row.label);
      ok = false;
    }
    print_cell(row.label);
    print_cell(p.overhead);
    print_cell(p.repair_ms);
    print_cell(p.read_mib);
    print_cell(p.frags_per_key);
    print_cell(100.0 * p.local_ratio);
    end_row();
  }
  std::printf("LRC buys its repair savings with storage overhead"
              " (10/6 vs 9/6) — the trade the paper's future work"
              " anticipates.\n");
  const int rc = obs_finalize();
  return ok ? rc : 1;
}
