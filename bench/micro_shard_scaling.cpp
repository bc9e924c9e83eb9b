// MICRO — shard-runtime scaling: one YCSB-A point (32 servers, 64 clients,
// era-ce-cd) run at shard counts {1, 2, 4, 8}, timing the wall clock of each
// run and gating statistical equivalence against the shards=1 oracle.
//
// Also prints a per-shard imbalance table (events, barrier-stall %, lane
// traffic) for the largest point and embeds each point's runtime profile
// in the JSON under "profile".
//
// Writes BENCH_shard_scaling.json (override with --out=FILE). Flags:
//   --out=FILE        JSON path (default BENCH_shard_scaling.json)
//   --max-shards=N    largest shard count swept (default 8)
// HPRES_BENCH_SCALE scales record/op counts (default 1.0).
//
// Equivalence gates (exit 1 on violation):
//   * op counts (reads/writes/failures) identical to the oracle run — the
//     client RNG streams are seed-derived, so any divergence is a runtime
//     bug, not noise;
//   * fabric conservation per run: messages/bytes sent == delivered +
//     dropped at quiescence (cross-shard handoff lost nothing);
//   * fabric bytes_sent/bytes_delivered identical to the oracle (no faults,
//     no hedging => the message set is timing-independent);
//   * makespan within 15% and read p99 within 30% of the oracle (rx-NIC
//     claim order differs across shard counts; magnitudes must not).
//
// Speedup is reported, never gated here: a 1-hw-thread container serializes
// the shard threads and honestly reports hw_threads=1. CI runs the sweep on
// multi-core runners where the parallel win is visible.

#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "ycsb_runner.h"

namespace {

using namespace hpres;
using namespace hpres::bench;

struct Point {
  std::size_t shards = 0;
  double wall_ms = 0.0;
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
  double speedup = 0.0;
  YcsbRun run;
};

[[nodiscard]] std::int64_t read_p99_ns(const YcsbRun& run) {
  std::int64_t p99 = 0;
  for (const obs::LatencyRow& row : run.latency) {
    if (row.key.op == "get" && !row.key.degraded) p99 = row.p99_ns;
  }
  return p99;
}

[[nodiscard]] bool conserved(const net::FabricStats& f) {
  return f.messages_sent == f.messages_delivered + f.messages_dropped &&
         f.bytes_sent == f.bytes_delivered + f.bytes_dropped;
}

[[nodiscard]] bool within(double v, double ref, double tol) {
  if (ref == 0.0) return v == 0.0;
  const double rel = v / ref;
  return rel >= 1.0 - tol && rel <= 1.0 + tol;
}

}  // namespace

int main(int argc, char** argv) {
  obs_init(argc, argv);
  std::string out_path = "BENCH_shard_scaling.json";
  std::size_t max_shards = 8;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--out=")) out_path = std::string(arg.substr(6));
  }
  max_shards = static_cast<std::size_t>(
      arg_int(argc, argv, "--max-shards=", static_cast<long>(max_shards)));

  constexpr std::size_t kServers = 32;
  constexpr std::size_t kClients = 64;
  workload::YcsbConfig cfg = workload::YcsbConfig::workload_a();
  cfg.record_count = scaled(8'000);
  cfg.ops_per_client = scaled(400);
  cfg.value_size = 4 * 1024;

  YcsbRunOpts opts;
  opts.servers = kServers;
  opts.clients = kClients;
  const cluster::Testbed bed = cluster::ri2_edr();

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("MICRO — shard scaling, %zu servers, %zu clients, YCSB-A, "
              "era-ce-cd, %llu records, %llu ops/client, hw_threads=%u\n",
              kServers, kClients,
              static_cast<unsigned long long>(cfg.record_count),
              static_cast<unsigned long long>(cfg.ops_per_client), hw);
  print_header("Wall-clock scaling over shard counts",
               {"shards", "wall_ms", "Mevents/s", "speedup", "ops",
                "mksp_ms", "p99_us"});

  std::vector<Point> points;
  for (std::size_t s = 1; s <= max_shards; s *= 2) {
    Point p;
    p.shards = s;
    opts.shards = s;
    opts.point_label = "shards" + std::to_string(s);
    const auto t0 = std::chrono::steady_clock::now();
    p.run = run_ycsb(bed, resilience::Design::kEraCeCd, cfg, opts);
    const auto t1 = std::chrono::steady_clock::now();
    p.wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    p.events = p.run.sim_events;
    p.events_per_sec =
        p.wall_ms > 0.0 ? static_cast<double>(p.events) / (p.wall_ms / 1e3)
                        : 0.0;
    p.speedup = points.empty() ? 1.0 : points.front().wall_ms / p.wall_ms;
    points.push_back(std::move(p));
    const Point& r = points.back();
    print_cell(std::to_string(r.shards));
    print_cell(r.wall_ms);
    print_cell(r.events_per_sec / 1e6);
    print_cell(r.speedup);
    print_cell(std::to_string(r.run.merged.reads + r.run.merged.writes));
    print_cell(units::to_ms(r.run.makespan_ns));
    print_cell(units::to_us(read_p99_ns(r.run)));
    end_row();
  }

  // Per-shard runtime profile for the largest sweep point: where wall time
  // went (busy vs barrier stall) and how balanced the partition is.
  {
    const Point& last = points.back();
    const sim::RuntimeProfile& prof = last.run.profile;
    print_header("Per-shard profile at shards=" +
                     std::to_string(last.shards) +
                     " (rounds=" + std::to_string(prof.rounds) + ")",
                 {"shard", "events", "stall_pct", "msgs_out", "msgs_in",
                  "lane_hw"});
    for (std::size_t s = 0; s < prof.per_shard.size(); ++s) {
      const sim::ShardProfile& sp = prof.per_shard[s];
      print_cell(std::to_string(s));
      print_cell(std::to_string(sp.events));
      print_cell(sim::RuntimeProfile::stall_fraction(sp) * 100.0);
      print_cell(std::to_string(sp.msgs_out));
      print_cell(std::to_string(sp.msgs_in));
      print_cell(std::to_string(sp.lane_occupancy_hw));
      end_row();
    }
  }

  // Equivalence gates against the oracle point.
  const Point& oracle = points.front();
  bool equivalent = true;
  auto fail = [&equivalent](const char* what, std::size_t shards) {
    std::fprintf(stderr, "EQUIVALENCE FAIL: %s at shards=%zu\n", what,
                 shards);
    equivalent = false;
  };
  for (const Point& p : points) {
    if (!conserved(p.run.fabric)) fail("fabric conservation", p.shards);
    if (p.shards == oracle.shards) continue;
    if (p.run.merged.reads != oracle.run.merged.reads ||
        p.run.merged.writes != oracle.run.merged.writes ||
        p.run.merged.failures != oracle.run.merged.failures) {
      fail("op counts", p.shards);
    }
    if (p.run.fabric.bytes_sent != oracle.run.fabric.bytes_sent ||
        p.run.fabric.bytes_delivered != oracle.run.fabric.bytes_delivered) {
      fail("fabric byte totals", p.shards);
    }
    if (!within(static_cast<double>(p.run.makespan_ns),
                static_cast<double>(oracle.run.makespan_ns), 0.15)) {
      fail("makespan tolerance (15%)", p.shards);
    }
    if (!within(static_cast<double>(read_p99_ns(p.run)),
                static_cast<double>(read_p99_ns(oracle.run)), 0.30)) {
      fail("read p99 tolerance (30%)", p.shards);
    }
  }
  std::printf("\nequivalence vs oracle: %s\n",
              equivalent ? "PASS" : "FAIL");

  std::string json;
  json += "{\n  \"bench\": \"micro_shard_scaling\",\n  \"servers\": ";
  obs::json::append_u64(json, kServers);
  json += ", \"clients\": ";
  obs::json::append_u64(json, kClients);
  json += ", \"records\": ";
  obs::json::append_u64(json, cfg.record_count);
  json += ", \"ops_per_client\": ";
  obs::json::append_u64(json, cfg.ops_per_client);
  json += ", \"hw_threads\": ";
  obs::json::append_u64(json, hw);
  json += ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    json += "    {\"shards\": ";
    obs::json::append_u64(json, p.shards);
    json += ", \"wall_ms\": ";
    obs::json::append_fixed(json, p.wall_ms, 3);
    json += ", \"events\": ";
    obs::json::append_u64(json, p.events);
    json += ", \"events_per_sec\": ";
    obs::json::append_fixed(json, p.events_per_sec, 1);
    json += ", \"speedup_vs_1\": ";
    obs::json::append_fixed(json, p.speedup, 3);
    json += ", \"ops\": ";
    obs::json::append_u64(json, p.run.merged.reads + p.run.merged.writes);
    json += ", \"failures\": ";
    obs::json::append_u64(json, p.run.merged.failures);
    json += ", \"makespan_ns\": ";
    obs::json::append_i64(json, p.run.makespan_ns);
    json += ", \"read_p99_ns\": ";
    obs::json::append_i64(json, read_p99_ns(p.run));
    json += ", \"bytes_sent\": ";
    obs::json::append_u64(json, p.run.fabric.bytes_sent);
    json += ", \"bytes_delivered\": ";
    obs::json::append_u64(json, p.run.fabric.bytes_delivered);
    json += ", \"conserved\": ";
    json += conserved(p.run.fabric) ? "true" : "false";
    const sim::RuntimeProfile& prof = p.run.profile;
    json += ",\n     \"profile\": {\"rounds\": ";
    obs::json::append_u64(json, prof.rounds);
    json += ", \"mean_advance_ns\": ";
    obs::json::append_fixed(json, prof.mean_advance_ns, 1);
    json += ", \"per_shard\": [";
    for (std::size_t s = 0; s < prof.per_shard.size(); ++s) {
      const sim::ShardProfile& sp = prof.per_shard[s];
      if (s != 0) json += ", ";
      json += "{\"events\": ";
      obs::json::append_u64(json, sp.events);
      json += ", \"stall_fraction\": ";
      obs::json::append_fixed(json, sim::RuntimeProfile::stall_fraction(sp),
                              4);
      json += ", \"msgs_out\": ";
      obs::json::append_u64(json, sp.msgs_out);
      json += ", \"msgs_in\": ";
      obs::json::append_u64(json, sp.msgs_in);
      json += ", \"lane_occupancy_hw\": ";
      obs::json::append_u64(json, sp.lane_occupancy_hw);
      json += "}";
    }
    json += "]}";
    json += i + 1 < points.size() ? "},\n" : "}\n";
  }
  json += "  ],\n  \"acceptance\": {\"equivalent\": ";
  json += equivalent ? "true" : "false";
  json += ", \"speedup_at_max\": ";
  obs::json::append_fixed(json, points.back().speedup, 3);
  json += ", \"max_shards\": ";
  obs::json::append_u64(json, points.back().shards);
  json += "}\n}\n";

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  const int rc = obs_finalize();
  return equivalent ? rc : 1;
}
