// FIG12 — YCSB aggregated throughput (paper Fig 12).
//
//   (a) 50:50 and (b) 95:5 on SDSC-Comet over value sizes 1 KB - 32 KB;
//   (c) both mixes on RI2-EDR at the large-value end.
//
// Baselines: Memc-IPoIB-NoRep (kernel TCP, synchronous, no resilience),
// Memc-RDMA-NoRep (upper bound), Async-Rep=3, Era-CE-CD, Era-SE-CD.
//
// Expected shape (paper): Era-CE-CD reaches 1.9-3x the IPoIB baseline; for
// update-heavy 50:50 at >16 KB it beats Async-Rep by ~1.34x (Comet) /
// ~1.59x (EDR); for read-heavy 95:5 it is on par with Async-Rep; the NoRep
// RDMA configuration bounds everything from above.
#include "ycsb_runner.h"

namespace {

using namespace hpres;         // NOLINT(google-build-using-namespace)
using namespace hpres::bench;  // NOLINT(google-build-using-namespace)

struct DesignRow {
  const char* label;
  resilience::Design design;
  std::uint32_t rep_factor;
  bool ipoib;
};

constexpr DesignRow kRows[] = {
    {"ipoib-norep", resilience::Design::kSyncRep, 1, true},
    {"rdma-norep", resilience::Design::kNoRep, 1, false},
    {"async-rep3", resilience::Design::kAsyncRep, 3, false},
    {"era-ce-cd", resilience::Design::kEraCeCd, 3, false},
    {"era-se-cd", resilience::Design::kEraSeCd, 3, false},
};

void run_cluster(const cluster::Testbed& bed,
                 std::initializer_list<std::size_t> sizes) {
  for (const double read_fraction : {0.5, 0.95}) {
    std::string title = std::string(bed.name) + " — YCSB-" +
                        (read_fraction == 0.5 ? "A (50:50)" : "B (95:5)") +
                        " throughput (ops/s)";
    std::vector<std::string> cols{"value"};
    for (const auto& row : kRows) cols.emplace_back(row.label);
    print_header(title, cols);
    for (const std::size_t size : sizes) {
      print_cell(size_label(size));
      for (const auto& row : kRows) {
        workload::YcsbConfig cfg;
        cfg.read_fraction = read_fraction;
        cfg.record_count = scaled(4'000);
        cfg.ops_per_client = scaled(60);
        cfg.value_size = size;
        const cluster::Testbed actual = row.ipoib ? with_ipoib(bed) : bed;
        YcsbRunOpts opts;
        opts.rep_factor = row.rep_factor;
        const YcsbRun run = run_ycsb(actual, row.design, cfg, opts);
        print_cell(run.throughput_ops_s());
      }
      end_row();
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  obs_init(argc, argv);
  std::printf("FIG12 (paper Fig 12) — YCSB aggregated throughput,"
              " 150 clients, 5 servers, RS(3,2) / Rep=3\n");
  run_cluster(cluster::sdsc_comet(), {1024, 4096, 16 * 1024, 32 * 1024});
  run_cluster(cluster::ri2_edr(), {16 * 1024, 32 * 1024});
  return obs_finalize();
}
