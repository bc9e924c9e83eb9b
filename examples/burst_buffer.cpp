// Offline Big-Data I/O scenario (the paper's Section V): a Boldio-style
// burst buffer in front of Lustre. Map tasks write job output into the
// resilient KV cache at fabric speed; the data drains to the parallel
// filesystem in the background; a later job reads it back from the cache —
// even after two storage servers die. Exits 1 if a write fails or fewer
// than all files read back intact.
//
//   $ ./examples/burst_buffer
#include <cstdio>

#include "boldio/boldio_client.h"
#include "cluster/testbeds.h"
#include "ec/rs_vandermonde.h"
#include "resilience/factory.h"

using namespace hpres;  // NOLINT(google-build-using-namespace)

namespace {

constexpr std::uint64_t kFileBytes = 64ULL * 1024 * 1024;
constexpr std::size_t kFiles = 4;

sim::Task<void> job(cluster::Cluster* cl, boldio::BoldioClient* client,
                    boldio::LustreModel* lustre, bool* all_ok) {
  // Phase 1: the "map" job writes its output through the burst buffer.
  SimTime t0 = cl->sim().now();
  std::size_t written = 0;
  for (std::size_t f = 0; f < kFiles; ++f) {
    const Status s = co_await client->write_file(
        "job-7/part-" + std::to_string(f), kFileBytes);
    if (s.ok()) ++written;
    std::printf("  wrote job-7/part-%zu (%llu MiB): %s\n", f,
                static_cast<unsigned long long>(kFileBytes >> 20),
                s.to_string().c_str());
  }
  const double write_s = units::to_s(cl->sim().now() - t0);
  std::printf("write phase: %.0f MiB in %.3f s (%.0f MiB/s into the burst"
              " buffer)\n\n",
              static_cast<double>(kFiles * kFileBytes) / (1 << 20), write_s,
              static_cast<double>(kFiles * kFileBytes) / (1 << 20) / write_s);

  // Phase 2: disaster strikes — two of five burst-buffer servers die.
  co_await cl->sim().delay(units::kMillisecond);  // quiesce distribution
  cl->fail_server(1);
  cl->fail_server(3);
  std::printf("servers 1 and 3 failed; RS(3,2) tolerates both\n\n");

  // Phase 3: the next job reads its input straight from the cache.
  t0 = cl->sim().now();
  std::size_t ok = 0;
  for (std::size_t f = 0; f < kFiles; ++f) {
    const Status s = co_await client->read_file(
        "job-7/part-" + std::to_string(f), kFileBytes);
    if (s.ok()) ++ok;
  }
  const double read_s = units::to_s(cl->sim().now() - t0);
  std::printf("read phase: %zu/%zu files intact, %.0f MiB in %.3f s"
              " (%.0f MiB/s from the degraded cache)\n",
              ok, kFiles,
              static_cast<double>(kFiles * kFileBytes) / (1 << 20), read_s,
              static_cast<double>(kFiles * kFileBytes) / (1 << 20) / read_s);
  std::printf("background Lustre persistence: %llu MiB drained\n",
              static_cast<unsigned long long>(
                  lustre->stats().bytes_written >> 20));
  *all_ok = written == kFiles && ok == kFiles;
}

}  // namespace

int main() {
  std::printf("Boldio-style burst buffer over Lustre, resilient via online"
              " erasure coding (Era-CE-CD, RS(3,2))\n\n");
  cluster::Testbed bed = cluster::ri_qdr();
  cluster::Cluster cl(cluster::make_config(bed, 5, 1));
  ec::RsVandermondeCodec codec(3, 2);
  const ec::CostModel cost =
      ec::CostModel::defaults(ec::Scheme::kRsVandermonde, 3, 2);
  cl.enable_server_ec(codec, cost, /*materialize=*/false);

  resilience::EngineContext ctx;
  ctx.sim = &cl.sim();
  ctx.client = &cl.client(0);
  ctx.ring = &cl.ring();
  ctx.membership = &cl.membership();
  ctx.server_nodes = &cl.server_nodes();
  ctx.materialize = false;
  const auto engine = resilience::make_engine(resilience::Design::kEraCeCd,
                                              ctx, 3, &codec, cost);

  boldio::LustreModel lustre(cl.sim());
  boldio::BoldioClient client(cl.sim(), *engine, &lustre);

  cl.start();
  bool ok = false;
  cl.sim().spawn(job(&cl, &client, &lustre, &ok));
  cl.run();
  if (!ok) {
    std::fprintf(stderr, "burst_buffer: a file was not written or read"
                 " back intact\n");
    return 1;
  }
  return 0;
}
