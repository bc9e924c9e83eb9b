// Failure-recovery walkthrough: stores a value with real erasure coding,
// kills the two servers holding its first data fragments, and shows the
// degraded Get reconstructing the exact original bytes from the surviving
// data + parity fragments — the paper's Figure 3(b) path, end to end.
// Exits 1 if the Set fails, either Get misses the original bytes, or a
// Get beyond M=2 failures succeeds.
//
//   $ ./examples/failure_recovery
#include <cstdio>

#include "cluster/cluster.h"
#include "common/bytes.h"
#include "ec/rs_vandermonde.h"
#include "resilience/factory.h"

using namespace hpres;  // NOLINT(google-build-using-namespace)

namespace {

/// Client-side decode time so far: the total of the engine's
/// "get/decode" spans.
long long decode_ns(const obs::Tracer& tracer, std::uint32_t pid) {
  return static_cast<long long>(tracer.total_ns(pid, "get/decode"));
}

sim::Task<void> walkthrough(cluster::Cluster* cl, resilience::Engine* engine,
                            const obs::Tracer* tracer, std::uint32_t pid,
                            bool* ok) {
  const Bytes original = make_pattern(200'000, /*seed=*/99);
  const Status stored = co_await engine->set(
      "dataset/block-17", make_shared_bytes(Bytes(original)));
  std::printf("stored 200000 B as 3 data + 2 parity fragments\n");

  // Which server holds which fragment?
  for (std::size_t slot = 0; slot < 5; ++slot) {
    std::printf("  slot %zu (%s) -> server %zu\n", slot,
                slot < 3 ? "data" : "parity",
                cl->ring().slot_index("dataset/block-17", slot));
  }

  // Healthy read: no decoding needed (systematic code).
  Result<Bytes> healthy = co_await engine->get("dataset/block-17");
  std::printf("\nhealthy get: %s (decode work: %lld ns)\n",
              healthy.ok() && *healthy == original ? "bytes intact"
                                                   : "MISMATCH",
              decode_ns(*tracer, pid));

  // Kill the owners of data fragments 0 and 1 — the worst tolerable case.
  const std::size_t dead0 = cl->ring().slot_index("dataset/block-17", 0);
  const std::size_t dead1 = cl->ring().slot_index("dataset/block-17", 1);
  cl->fail_server(dead0);
  cl->fail_server(dead1);
  std::printf("\nfailed servers %zu and %zu (both hold DATA fragments)\n",
              dead0, dead1);

  Result<Bytes> degraded = co_await engine->get("dataset/block-17");
  std::printf("degraded get: %s — reconstructed from 1 data + 2 parity"
              " fragments (decode work: %lld ns, degraded gets: %llu)\n",
              degraded.ok() && *degraded == original ? "bytes intact"
                                                     : "MISMATCH",
              decode_ns(*tracer, pid),
              static_cast<unsigned long long>(
                  engine->stats().degraded_gets));

  // One more failure exceeds M=2 and must be detected, not mis-served.
  cl->fail_server(cl->ring().slot_index("dataset/block-17", 2));
  Result<Bytes> beyond = co_await engine->get("dataset/block-17");
  std::printf("\nthird failure: get -> %s (only 2 of 3 required fragments"
              " survive)\n",
              beyond.status().to_string().c_str());
  *ok = stored.ok() && healthy.ok() && *healthy == original &&
        degraded.ok() && *degraded == original && !beyond.ok();
}

}  // namespace

int main() {
  // The span tracer records where each op's time went (decode included);
  // it must outlive the cluster.
  obs::Tracer tracer(/*enabled=*/true);
  const std::uint32_t pid = tracer.declare_process("failure-recovery");
  cluster::Cluster cl(
      cluster::ClusterConfig{.num_servers = 5, .num_clients = 1});
  ec::RsVandermondeCodec codec(3, 2);
  const ec::CostModel cost =
      ec::CostModel::defaults(ec::Scheme::kRsVandermonde, 3, 2);
  cl.enable_server_ec(codec, cost, /*materialize=*/true);
  cl.set_tracer(&tracer, pid);

  // Real bytes: the reconstruction is genuine.
  const resilience::EngineContext ctx =
      cl.engine_context(0, /*materialize=*/true);
  const auto engine = resilience::make_engine(resilience::Design::kEraCeCd,
                                              ctx, 3, &codec, cost);

  cl.start();
  bool ok = false;
  cl.sim().spawn(walkthrough(&cl, engine.get(), &tracer, pid, &ok));
  cl.run();
  if (!ok) {
    std::fprintf(stderr, "failure_recovery: recovery check failed\n");
    return 1;
  }
  return 0;
}
