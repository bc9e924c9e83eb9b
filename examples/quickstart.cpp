// Quickstart: stand up a simulated 5-node RDMA cluster, store a value with
// online erasure coding (RS(3,2), the paper's headline configuration), read
// it back, and inspect what landed on each server. Exits 1 if the Set or
// Get fails or the bytes read back differ.
//
//   $ ./examples/quickstart
#include <cstdio>
#include <string>

#include "cluster/cluster.h"
#include "common/bytes.h"
#include "ec/rs_vandermonde.h"
#include "resilience/factory.h"

using namespace hpres;  // NOLINT(google-build-using-namespace)

namespace {

sim::Task<void> demo(cluster::Cluster* cl, resilience::Engine* engine,
                     bool* ok) {
  // A 100 KB "database page" cached under one key.
  const Bytes page = make_pattern(100'000, /*seed=*/2017);

  const Status stored =
      co_await engine->set("db:page:42", make_shared_bytes(Bytes(page)));
  std::printf("SET db:page:42 (100000 B)  -> %s  [t=%.1f us]\n",
              stored.to_string().c_str(), units::to_us(cl->sim().now()));

  const Result<Bytes> loaded = co_await engine->get("db:page:42");
  std::printf("GET db:page:42            -> %s, %zu B, %s  [t=%.1f us]\n",
              loaded.status().to_string().c_str(),
              loaded.ok() ? loaded->size() : 0,
              loaded.ok() && *loaded == page ? "bytes intact" : "MISMATCH",
              units::to_us(cl->sim().now()));
  *ok = stored.ok() && loaded.ok() && *loaded == page;

  std::printf("\nFragment placement (K=3 data + M=2 parity, one per"
              " server):\n");
  for (std::size_t s = 0; s < cl->num_servers(); ++s) {
    const auto& store = cl->server(s).store();
    std::printf("  server %zu: %zu item(s), %llu B used\n", s, store.items(),
                static_cast<unsigned long long>(store.bytes_used()));
  }
  std::printf("\nStorage overhead: %.2fx (vs 3.00x for 3-way"
              " replication)\n",
              5.0 / 3.0);
}

}  // namespace

int main() {
  // 5 servers + 1 client on the paper's RI-QDR-like fabric.
  cluster::Cluster cl(
      cluster::ClusterConfig{.num_servers = 5, .num_clients = 1});

  // The paper's chosen codec: Reed-Solomon (Vandermonde), K=3, M=2.
  ec::RsVandermondeCodec codec(3, 2);
  const ec::CostModel cost =
      ec::CostModel::defaults(ec::Scheme::kRsVandermonde, 3, 2);
  cl.enable_server_ec(codec, cost, /*materialize=*/true);

  resilience::EngineContext ctx;
  ctx.sim = &cl.sim();
  ctx.client = &cl.client(0);
  ctx.ring = &cl.ring();
  ctx.membership = &cl.membership();
  ctx.server_nodes = &cl.server_nodes();
  ctx.materialize = true;  // real bytes, real encoding
  const auto engine = resilience::make_engine(
      resilience::Design::kEraCeCd, ctx, 3, &codec, cost);

  cl.start();
  bool ok = false;
  cl.sim().spawn(demo(&cl, engine.get(), &ok));
  cl.run();
  if (!ok) {
    std::fprintf(stderr, "quickstart: round trip failed\n");
    return 1;
  }
  return 0;
}
