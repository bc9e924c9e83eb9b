#include "cluster/testbeds.h"

namespace hpres::cluster {

Testbed ri_qdr() {
  // 2.53 GHz Westmere: the calibration reference (factor 1.0). Storage
  // nodes run with 20 GB Memcached and 8 workers (Section VI-B).
  return Testbed{.name = "RI-QDR",
                 .fabric = net::FabricParams::rdma_qdr(),
                 .cpu_factor = 1.0,
                 .server = {.workers = 8,
                            .memory_bytes = 20ULL * units::kGiB}};
}

Testbed ri_qdr_ipoib() {
  Testbed bed = ri_qdr();
  bed.name = "RI-QDR-IPoIB";
  bed.fabric = net::FabricParams::ipoib_qdr();
  return bed;
}

Testbed sdsc_comet() {
  // Dual 12-core Haswell, FDR; YCSB experiments use 64 GB per server.
  return Testbed{.name = "SDSC-Comet",
                 .fabric = net::FabricParams::rdma_fdr(),
                 .cpu_factor = 1.8,
                 .server = {.workers = 12,
                            .memory_bytes = 64ULL * units::kGiB}};
}

Testbed ri2_edr() {
  // Dual 14-core Broadwell, EDR.
  return Testbed{.name = "RI2-EDR",
                 .fabric = net::FabricParams::rdma_edr(),
                 .cpu_factor = 2.2,
                 .server = {.workers = 14,
                            .memory_bytes = 64ULL * units::kGiB}};
}

ClusterConfig make_config(const Testbed& bed, std::size_t servers,
                          std::size_t clients) {
  ClusterConfig cfg;
  cfg.num_servers = servers;
  cfg.num_clients = clients;
  cfg.fabric = bed.fabric;
  cfg.server = bed.server;
  return cfg;
}

}  // namespace hpres::cluster
