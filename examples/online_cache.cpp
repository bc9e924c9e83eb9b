// Online data-processing scenario (the paper's introduction): a Memcached
// tier caching database query results for application servers. Compares
// resilient caching via 3-way asynchronous replication against online
// erasure coding under a skewed (Zipfian) read/write mix, and reports
// latency plus the memory footprint of each scheme. Exits 1 if any op of
// the mix fails.
//
//   $ ./examples/online_cache
#include <cstdio>

#include "cluster/testbeds.h"
#include "ec/rs_vandermonde.h"
#include "obs/latency.h"
#include "resilience/factory.h"
#include "workload/ycsb.h"

using namespace hpres;  // NOLINT(google-build-using-namespace)

namespace {

struct Setup {
  cluster::Cluster cluster;
  ec::RsVandermondeCodec codec{3, 2};
  ec::CostModel cost;
  obs::LatencyRecorder recorder;  ///< every op's latency; outlives engine
  std::unique_ptr<resilience::Engine> engine;

  Setup(resilience::Design design, std::size_t clients)
      : cluster(cluster::make_config(cluster::sdsc_comet(), 5, clients)),
        cost(ec::CostModel::defaults(ec::Scheme::kRsVandermonde, 3, 2,
                                     /*cpu=*/1.8)) {
    cluster.enable_server_ec(codec, cost, /*materialize=*/false);
    resilience::EngineContext ctx;
    ctx.sim = &cluster.sim();
    ctx.client = &cluster.client(0);
    ctx.ring = &cluster.ring();
    ctx.membership = &cluster.membership();
    ctx.server_nodes = &cluster.server_nodes();
    ctx.materialize = false;
    ctx.recorder = &recorder;
    engine = resilience::make_engine(design, ctx, 3, &codec, cost);
    cluster.start();
  }
};

/// Preloads the cache, drops the preload's latencies, then runs the mix.
sim::Task<void> run_mix(sim::Simulator* sim, resilience::Engine* engine,
                        obs::LatencyRecorder* recorder,
                        workload::YcsbConfig cfg,
                        workload::YcsbResult* result) {
  co_await workload::ycsb_load(sim, engine, cfg, 0, cfg.record_count);
  recorder->clear();
  co_await workload::ycsb_client(sim, engine, cfg, /*seed=*/7, result);
}

/// Runs the mix under `design` and prints its row; false if any op failed.
bool report(const char* label, resilience::Design design) {
  Setup setup(design, 1);
  workload::YcsbConfig cfg;           // update-heavy online mix (YCSB-A)
  cfg.record_count = 2'000;           // cached query results
  cfg.ops_per_client = 2'000;
  cfg.value_size = 32 * 1024;         // large cached query pages
  workload::YcsbResult result;
  setup.cluster.sim().spawn(run_mix(&setup.cluster.sim(), setup.engine.get(),
                                    &setup.recorder, cfg, &result));
  setup.cluster.run();
  const LatencyHistogram reads = setup.recorder.pooled("get");
  const LatencyHistogram writes = setup.recorder.pooled("set");

  std::printf(
      "%-12s reads: avg %6.1f us p99 %6.1f us | writes: avg %6.1f us p99"
      " %6.1f us | cache memory %5.1f MiB\n",
      label,
      units::to_us(static_cast<SimDur>(reads.mean())),
      units::to_us(reads.p99()),
      units::to_us(static_cast<SimDur>(writes.mean())),
      units::to_us(writes.p99()),
      static_cast<double>(setup.cluster.total_bytes_used()) /
          (1024.0 * 1024.0));
  return result.failures == 0;
}

}  // namespace

int main() {
  std::printf("Online analytics cache: 2000 x 32 KB query results, 50:50"
              " Zipfian read/write mix, 5-node SDSC-Comet-like cluster\n\n");
  bool ok = report("async-rep=3", resilience::Design::kAsyncRep);
  ok = report("era-ce-cd", resilience::Design::kEraCeCd) && ok;
  ok = report("era-se-cd", resilience::Design::kEraSeCd) && ok;
  std::printf("\nBoth erasure designs tolerate the same two node failures"
              " as 3-way replication at ~55%% of its memory cost.\n");
  if (!ok) {
    std::fprintf(stderr, "online_cache: an op of the mix failed\n");
    return 1;
  }
  return 0;
}
