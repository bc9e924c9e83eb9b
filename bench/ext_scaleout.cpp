// EXT7 — elastic scale-out/in under load (beyond the paper): a 4-active
// Era-CE-CD cluster runs YCSB-A while the placement plane adds a fifth
// server mid-run and then gracefully drains another. Measures what elastic
// resharding costs the workload: availability (must stay 100% — stale-epoch
// writes bounce and retry, transition reads fall back to the previous
// placement), throughput/p99 versus a static baseline, and how many bytes
// the migration actually moved (bounded: only fragments whose owner
// changed, roughly delta_active/active of the data set, not a full
// reshuffle).
//
// The elastic pass must finish with zero failed client ops; any failure
// exits nonzero so CI can gate on it. A post-run sweep re-reads every
// record and a host-side audit cross-checks the moved-key set against
// HashRing::moved_ranges on the before/after rings.
//
// Runs at any shard count (byte-identical replays; CI diffs two same-seed
// runs at one shard): the cutover rides the placement manager's quiesce
// hook.
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/fault_schedule.h"
#include "cluster/placement.h"
#include "ec/rs_vandermonde.h"
#include "resilience/factory.h"
#include "ycsb_runner.h"

namespace hpres::bench {
namespace {

constexpr std::size_t kProvisioned = 6;     // racked servers
constexpr std::size_t kInitialActive = 4;   // serving at t=0
constexpr std::size_t kClients = 8;         // workload clients
constexpr std::size_t kJoiner = 4;          // joins mid-run
constexpr std::size_t kLeaver = 1;          // drains after the join
constexpr int kK = 2;
constexpr int kM = 2;

struct RunOut {
  workload::YcsbResult merged;
  SimDur makespan_ns = 0;
  cluster::PlacementStats placement;
  std::uint64_t fragments_rebuilt = 0;  ///< repair-path rebuilds during moves
  std::uint64_t wrong_epoch_retries = 0;
  std::uint64_t fallback_gets = 0;
  std::uint64_t readback_failures = 0;  ///< post-run full sweep
  std::uint64_t epoch = 0;
  std::uint64_t events_fired = 0;
  std::uint64_t sim_events = 0;

  [[nodiscard]] double availability() const {
    const double issued =
        static_cast<double>(merged.reads + merged.writes);
    if (issued <= 0.0) return 1.0;
    return 1.0 - static_cast<double>(merged.failures) / issued;
  }
};

// Self-assembled harness (not Testbench): elastic runs need a partially
// active ring and a second, previous-epoch engine per client for the
// transition read fallback, which the shared bench ctor does not wire.
struct ScaleoutBench {
  ScaleoutBench(const cluster::Testbed& bed, std::size_t shards,
                const char* label)
      : codec(kK, kM),
        cost(ec::CostModel::defaults(ec::Scheme::kRsVandermonde, kK, kM,
                                     bed.cpu_factor)),
        cl([&] {
          cluster::ClusterConfig cfg =
              cluster::make_config(bed, kProvisioned, kClients + 1);
          cfg.initial_active_servers = kInitialActive;
          cfg.shards = shards;
          return cfg;
        }()) {
    ObsSession& obs = ObsSession::instance();
    trace_pid = obs.tracer().declare_process(label);
    cl.set_tracer(&obs.tracer(), trace_pid);
    cl.enable_server_ec(codec, cost, /*materialize=*/false);
    // The last client is the placement coordinator's RPC identity.
    manager = std::make_unique<cluster::PlacementManager>(
        cl, codec, cost, context(kClients, &cl.ring()));
    cl.set_placement_view(manager->view());
    for (std::size_t c = 0; c < kClients; ++c) {
      engines.push_back(resilience::make_engine(
          resilience::Design::kEraCeCd, context(c, &cl.ring()), 3, &codec,
          cost));
      prev_engines.push_back(resilience::make_engine(
          resilience::Design::kEraCeCd, context(c, &manager->prev_ring()),
          3, &codec, cost));
      engines[c]->attach_placement(manager->view());
      engines[c]->set_prev_engine(prev_engines[c].get());
    }
    cl.start();
    if (obs.metrics_enabled()) {
      cl.register_metrics(obs.registry(), label);
      manager->register_metrics(obs.registry(), label);
      for (std::size_t c = 0; c < kClients; ++c) {
        engines[c]->stats().register_with(
            obs.registry(), "client" + std::to_string(c), label);
      }
    }
  }

  resilience::EngineContext context(std::size_t client,
                                    const kv::HashRing* ring) {
    resilience::EngineContext ctx;
    ctx.sim = &cl.sim_for_client(client);
    ctx.client = &cl.client(client);
    ctx.ring = ring;
    ctx.membership = &cl.membership();
    ctx.server_nodes = &cl.server_nodes();
    ctx.materialize = false;
    ctx.tracer = cl.tracer_for_client(client);
    ctx.trace_pid = trace_pid;
    return ctx;
  }

  ec::RsVandermondeCodec codec;
  ec::CostModel cost;
  cluster::Cluster cl;
  std::uint32_t trace_pid = 0;
  std::vector<std::unique_ptr<resilience::Engine>> engines;
  std::vector<std::unique_ptr<resilience::Engine>> prev_engines;
  std::unique_ptr<cluster::PlacementManager> manager;
};

sim::Task<void> sweep_proc(sim::Simulator* sim, resilience::Engine* engine,
                           workload::YcsbConfig cfg, std::uint64_t first,
                           std::uint64_t last, std::uint64_t* failures) {
  (void)sim;
  for (std::uint64_t i = first; i < last; ++i) {
    Result<Bytes> got =
        co_await engine->get(workload::ycsb_key(i, cfg.key_size));
    if (!got.ok()) ++*failures;
  }
}

RunOut run_once(const cluster::Testbed& bed, std::size_t shards,
                workload::YcsbConfig cfg, bool elastic,
                SimDur base_makespan, const char* label) {
  ScaleoutBench b(bed, shards, label);

  // Preload, partitioned across the workload clients' own shards.
  {
    const std::uint64_t stride =
        (cfg.record_count + kClients - 1) / kClients;
    for (std::size_t l = 0; l < kClients; ++l) {
      const std::uint64_t first = static_cast<std::uint64_t>(l) * stride;
      const std::uint64_t last =
          std::min<std::uint64_t>(first + stride, cfg.record_count);
      if (first >= last) continue;
      b.cl.sim_for_client(l).spawn(detail::loader_proc(
          &b.cl.sim_for_client(l), b.engines[l].get(), cfg, first, last));
    }
    b.cl.run();
  }

  const SimTime start = b.cl.now_quiesced();
  std::optional<cluster::FaultSchedule> schedule;
  if (elastic) {
    // Join lands ~40% into the (baseline-calibrated) run, the drain ~70%
    // in, so both migrations overlap live traffic.
    schedule.emplace(b.cl);
    schedule->set_placement_manager(b.manager.get());
    schedule->add_join(start + (base_makespan * 2) / 5, kJoiner);
    schedule->add_leave(start + (base_makespan * 7) / 10, kLeaver);
    schedule->arm();
  }
  RunOut out;
  std::vector<workload::YcsbResult> results(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    b.cl.sim_for_client(c).spawn(detail::client_proc(
        &b.cl.sim_for_client(c), b.engines[c].get(), cfg,
        cfg.seed + 1000 + c, &results[c]));
  }
  b.cl.run();
  out.makespan_ns = b.cl.now_quiesced() - start;
  for (const auto& r : results) out.merged.merge(r);
  out.placement = b.manager->stats();
  out.fragments_rebuilt = b.manager->stats().fragments_rebuilt;
  for (std::size_t c = 0; c < kClients; ++c) {
    out.wrong_epoch_retries += b.engines[c]->stats().wrong_epoch_retries;
    out.fallback_gets += b.engines[c]->stats().placement_fallback_gets;
  }
  out.epoch = b.cl.ring().epoch();
  out.events_fired = elastic ? schedule->fired() : 0;

  // Post-run sweep: every record must still resolve under the final
  // placement (migration done, transition closed, leaver drained).
  {
    const std::uint64_t stride =
        (cfg.record_count + kClients - 1) / kClients;
    for (std::size_t l = 0; l < kClients; ++l) {
      const std::uint64_t first = static_cast<std::uint64_t>(l) * stride;
      const std::uint64_t last =
          std::min<std::uint64_t>(first + stride, cfg.record_count);
      if (first >= last) continue;
      b.cl.sim_for_client(l).spawn(
          sweep_proc(&b.cl.sim_for_client(l), b.engines[l].get(), cfg,
                     first, last, &out.readback_failures));
    }
    b.cl.run();
  }
  out.sim_events = b.cl.runtime().events_executed();
  ObsSession::instance().add_sim_events(out.sim_events);
  ObsSession::instance().add_profile_point(label, b.cl.runtime().profile());

  // Host-side audit (elastic pass): the set of records whose primary
  // changed must agree with the HashRing::moved_ranges diff of the
  // before/after rings. PrimaryCache memoizes the final-ring owners.
  if (elastic) {
    const kv::HashRing before(kProvisioned, 128, 0x5eed, kInitialActive);
    const auto ranges =
        kv::HashRing::moved_ranges(before, b.cl.ring());
    PrimaryCache cache(&b.cl.ring());
    std::uint64_t moved = 0;
    std::uint64_t disagree = 0;
    for (std::uint64_t i = 0; i < cfg.record_count; ++i) {
      const std::string key = workload::ycsb_key(i, cfg.key_size);
      const bool primary_moved =
          before.primary_index(key) != cache.primary_index(key);
      // Re-resolve through the cache so the hit counter shows the memo
      // actually engaging on the second pass over the same keys.
      (void)cache.primary_index(key);
      if (primary_moved) ++moved;
      if (primary_moved !=
          kv::HashRing::any_covers(ranges, kv::HashRing::hash_key(key))) {
        ++disagree;
      }
    }
    std::printf(
        "audit: %llu/%llu primaries moved, %llu moved_ranges disagreements"
        " (want 0), ring diff covers %.1f%% of hash space, "
        "primary-cache hits %llu/%llu\n",
        static_cast<unsigned long long>(moved),
        static_cast<unsigned long long>(cfg.record_count),
        static_cast<unsigned long long>(disagree),
        100.0 * kv::HashRing::moved_fraction(ranges),
        static_cast<unsigned long long>(cache.hits()),
        static_cast<unsigned long long>(cache.lookups()));
    if (disagree != 0) out.readback_failures += disagree;
  }
  // Teardown contract (mirrors Testbench's destructor): fold per-shard
  // observability domains into the process instruments, then freeze bound
  // metrics before this run's stats structs are destroyed.
  b.cl.merge_obs_domains();
  if (ObsSession::instance().metrics_enabled()) {
    ObsSession::instance().registry().capture();
  }
  return out;
}

void print_run(const char* label, const RunOut& run) {
  print_cell(label);
  print_cell(run.merged.throughput_ops_per_s(run.makespan_ns));
  print_cell(
      units::to_us(static_cast<SimDur>(run.merged.read_latency.mean())));
  print_cell(units::to_us(run.merged.read_latency.p99()));
  print_cell(units::to_us(run.merged.write_latency.p99()));
  print_cell(100.0 * run.availability());
  print_cell(static_cast<double>(run.merged.failures));
  end_row();
}

int main_impl(int argc, char** argv) {
  obs_init(argc, argv);
  const std::size_t shards = ObsSession::instance().effective_shards();
  const cluster::Testbed bed = cluster::ri_qdr();

  workload::YcsbConfig cfg = workload::YcsbConfig::workload_a();
  cfg.record_count = static_cast<std::uint64_t>(
      arg_int(argc, argv, "--records=",
              static_cast<std::int64_t>(scaled(300))));
  cfg.ops_per_client = static_cast<std::uint64_t>(
      arg_int(argc, argv, "--ops=",
              static_cast<std::int64_t>(scaled(400))));
  cfg.seed = static_cast<std::uint64_t>(
      arg_int(argc, argv, "--seed=", 0xCC5B));

  std::printf(
      "ext_scaleout: %zu clients x %llu ops YCSB-A, %llu records x %s, "
      "RS(%d,%d), %zu->%zu->%zu active of %zu provisioned\n",
      kClients, static_cast<unsigned long long>(cfg.ops_per_client),
      static_cast<unsigned long long>(cfg.record_count),
      size_label(cfg.value_size).c_str(), kK, kM, kInitialActive,
      kInitialActive + 1, kInitialActive, kProvisioned);

  // Baseline calibrates the event times; elastic replays the same workload
  // with a join at 40% and a graceful leave at 70% of that makespan.
  const RunOut baseline =
      run_once(bed, shards, cfg, false, 0, "static");
  const RunOut elastic =
      run_once(bed, shards, cfg, true, baseline.makespan_ns, "elastic");

  print_header("YCSB-A: static vs elastic (join + drain mid-run)",
               {"run", "ops_s", "read_us", "rd_p99_us", "wr_p99_us",
                "avail_pct", "failed_ops"});
  print_run("static", baseline);
  print_run("join+drain", elastic);

  const cluster::PlacementStats& ps = elastic.placement;
  const double moved_mib =
      static_cast<double>(ps.moved_bytes) / (1024.0 * 1024.0);
  const double per_key =
      ps.keys_moved == 0
          ? 0.0
          : static_cast<double>(ps.moved_bytes) /
                static_cast<double>(ps.keys_moved) / 1024.0;
  print_header("migration cost (elastic run)",
               {"epochs", "keys_moved", "frags_moved", "moved_MiB",
                "KiB_per_key", "locators", "cleanups"});
  print_cell(static_cast<double>(ps.changes));
  print_cell(static_cast<double>(ps.keys_moved));
  print_cell(static_cast<double>(ps.fragments_moved));
  print_cell(moved_mib);
  print_cell(per_key);
  print_cell(static_cast<double>(ps.locators_moved));
  print_cell(static_cast<double>(ps.cleanup_deletes));
  end_row();

  print_header("epoch plane (elastic run)",
               {"final_epoch", "epoch_acks", "wrong_epoch", "fallback_gets",
                "rebuilt", "sweep_fail"});
  print_cell(static_cast<double>(elastic.epoch));
  print_cell(static_cast<double>(ps.epoch_acks));
  print_cell(static_cast<double>(elastic.wrong_epoch_retries));
  print_cell(static_cast<double>(elastic.fallback_gets));
  print_cell(static_cast<double>(elastic.fragments_rebuilt));
  print_cell(static_cast<double>(elastic.readback_failures));
  end_row();

  // CI gates: resharding must be invisible to clients (no failed ops, no
  // lost records) and both placement changes must actually have run.
  bool ok = true;
  if (elastic.merged.failures != 0) {
    std::fprintf(stderr, "FAIL: %llu client ops failed during resharding\n",
                 static_cast<unsigned long long>(elastic.merged.failures));
    ok = false;
  }
  if (elastic.readback_failures != 0) {
    std::fprintf(stderr, "FAIL: %llu records unreadable after resharding\n",
                 static_cast<unsigned long long>(elastic.readback_failures));
    ok = false;
  }
  if (elastic.events_fired != 2 || ps.changes != 2) {
    std::fprintf(stderr, "FAIL: expected join+leave to run (fired=%llu "
                         "changes=%llu)\n",
                 static_cast<unsigned long long>(elastic.events_fired),
                 static_cast<unsigned long long>(ps.changes));
    ok = false;
  }
  if (baseline.merged.failures != 0 || baseline.readback_failures != 0) {
    std::fprintf(stderr, "FAIL: static baseline saw failures\n");
    ok = false;
  }
  const int obs_rc = obs_finalize();
  return ok ? obs_rc : 1;
}

}  // namespace
}  // namespace hpres::bench

int main(int argc, char** argv) {
  return hpres::bench::main_impl(argc, argv);
}
