// FIG11 — YCSB average read/write latencies (paper Fig 11).
//
//   (a) SDSC-Comet (FDR): YCSB-A (50:50) and YCSB-B (95:5), 150 clients,
//       value sizes 1 KB - 32 KB.
//   (b) RI2-EDR (EDR): same at the large-value end.
//
// Designs: Async-Rep=3 vs Era-CE-CD vs Era-SE-CD (the two finalists of the
// micro-benchmarks) with RS(3,2).
//
// Expected shape (paper): Era-CE-CD up to 2.3x (Comet) / 2.6x (EDR) better
// average latency than Async-Rep for >16 KB values; similar below.
#include "ycsb_runner.h"

namespace {

using namespace hpres;         // NOLINT(google-build-using-namespace)
using namespace hpres::bench;  // NOLINT(google-build-using-namespace)

constexpr resilience::Design kDesigns[] = {resilience::Design::kAsyncRep,
                                           resilience::Design::kEraCeCd,
                                           resilience::Design::kEraSeCd};

void run_cluster(const cluster::Testbed& bed,
                 std::initializer_list<std::size_t> sizes) {
  for (const double read_fraction : {0.5, 0.95}) {
    std::string title = std::string(bed.name) + " — YCSB-" +
                        (read_fraction == 0.5 ? "A (50:50)" : "B (95:5)") +
                        " avg latency (us)";
    std::vector<std::string> cols{"value"};
    for (const auto d : kDesigns) {
      cols.push_back(std::string(to_string(d)) + ":rd");
      cols.push_back(std::string(to_string(d)) + ":wr");
    }
    print_header(title, cols);
    std::vector<std::pair<std::string, std::vector<obs::LatencyRow>>> pct;
    for (const std::size_t size : sizes) {
      print_cell(size_label(size));
      for (const auto design : kDesigns) {
        workload::YcsbConfig cfg;
        cfg.read_fraction = read_fraction;
        cfg.record_count = scaled(4'000);
        cfg.ops_per_client = scaled(60);
        cfg.value_size = size;
        YcsbRun run = run_ycsb(bed, design, cfg, YcsbRunOpts{});
        print_cell(run.avg_read_us());
        print_cell(run.avg_write_us());
        pct.emplace_back(std::string(to_string(design)) + "/" +
                             size_label(size),
                         std::move(run.latency));
      }
      end_row();
    }
    // Per-op percentile rows from the always-on LatencyRecorder (identical
    // with or without tracing; the recorder never touches the simulation).
    for (const auto& [point, rows] : pct) {
      print_latency_rows(title + " — percentiles, " + point, rows);
    }
  }
}

// Hedged-read extension: YCSB-B on Era-CE-CD with one gray-slow server
// (compute x8 via FaultSchedule, fabric and membership untouched). With
// RS(3,2) on 5 servers, 3 of every 5 key read-sets include the straggler,
// so its latency lands squarely in the unhedged tail. Hedging (k+Δ
// late-binding fetches plus load-aware read-set selection) should pull p99
// back toward healthy while costing at most a few percent at p50 — the
// wasted-fetch bytes quantify the price.
void run_hedged_section(int argc, char** argv) {
  const auto delta = static_cast<std::uint32_t>(
      arg_int(argc, argv, "--hedge-delta=", 1));
  const SimDur delay_ns = arg_int(argc, argv, "--hedge-delay-us=", 0) * 1'000;
  constexpr double kSlowFactor = 8.0;
  constexpr std::size_t kSlowServer = 1;

  workload::YcsbConfig cfg;
  cfg.read_fraction = 0.95;
  cfg.record_count = scaled(4'000);
  cfg.ops_per_client = scaled(60);
  cfg.value_size = 16 * 1024;

  YcsbRunOpts opts;
  opts.slow_factor = kSlowFactor;
  opts.slow_server = kSlowServer;

  const std::string bed_name(cluster::sdsc_comet().name);
  std::printf("\nhedged-read extension: YCSB-B 16K, Era-CE-CD, %s, server %zu"
              " gray-slow x%.0f,\nhedge delta=%u delay=%.0f us"
              " (--hedge-delta=N / --hedge-delay-us=N)\n",
              bed_name.c_str(), kSlowServer, kSlowFactor, delta,
              units::to_us(delay_ns));

  opts.point_label = "fig11-unhedged";
  const YcsbRun plain =
      run_ycsb(cluster::sdsc_comet(), resilience::Design::kEraCeCd, cfg, opts);

  opts.hedge.delta = delta;
  opts.hedge.delay_ns = delay_ns;
  opts.point_label = "fig11-hedged";
  const YcsbRun hedged =
      run_ycsb(cluster::sdsc_comet(), resilience::Design::kEraCeCd, cfg, opts);

  print_header("read latency under one gray-slow server (us)",
               {"run", "p50_us", "p95_us", "p99_us", "p999_us", "hedged",
                "fired", "wins", "wasted_KB"});
  const auto row = [](const char* label, const YcsbRun& run) {
    print_cell(label);
    print_cell(units::to_us(run.get_latency.p50()));
    print_cell(units::to_us(run.get_latency.p95()));
    print_cell(units::to_us(run.get_latency.p99()));
    print_cell(units::to_us(run.get_latency.quantile(0.999)));
    print_cell(static_cast<double>(run.hedged_gets));
    print_cell(static_cast<double>(run.hedges_fired));
    print_cell(static_cast<double>(run.hedge_wins));
    print_cell(static_cast<double>(run.hedge_wasted_bytes) / 1024.0);
    end_row();
  };
  row("unhedged", plain);
  row("hedged", hedged);

  const double p99_plain = units::to_us(plain.get_latency.p99());
  const double p99_hedged = units::to_us(hedged.get_latency.p99());
  const double p50_plain = units::to_us(plain.get_latency.p50());
  const double p50_hedged = units::to_us(hedged.get_latency.p50());
  if (p99_plain > 0.0 && p50_plain > 0.0) {
    std::printf("\nhedging: p99 %+.1f%%, p50 %+.1f%% vs unhedged"
                " (negative = faster); suppressed=%llu failover=%llu\n",
                100.0 * (p99_hedged - p99_plain) / p99_plain,
                100.0 * (p50_hedged - p50_plain) / p50_plain,
                static_cast<unsigned long long>(hedged.hedges_suppressed),
                static_cast<unsigned long long>(hedged.failover_fetches));
  }
  print_latency_rows("percentiles, unhedged + slow server", plain.latency);
  print_latency_rows("percentiles, hedged + slow server", hedged.latency);
}

}  // namespace

int main(int argc, char** argv) {
  obs_init(argc, argv);
  std::printf("FIG11 (paper Fig 11) — YCSB read/write latency, 150 clients,"
              " 5 servers, RS(3,2) / Rep=3\n");
  run_cluster(cluster::sdsc_comet(), {1024, 4096, 16 * 1024, 32 * 1024});
  run_cluster(cluster::ri2_edr(), {16 * 1024, 32 * 1024});
  run_hedged_section(argc, argv);
  return obs_finalize();
}
