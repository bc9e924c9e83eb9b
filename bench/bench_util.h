// Shared scaffolding for the figure-reproduction harnesses: cluster +
// per-client engine assembly on a named testbed, table formatting, and an
// environment scale knob.
//
// Benchmarks run "size-only": payloads alias shared zero buffers and the
// codec cost model charges simulated compute time (DESIGN.md §5). All
// numbers printed are simulated-time figures; shapes and ratios — not
// absolute microseconds — are the reproduction target (EXPERIMENTS.md).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/testbeds.h"
#include "ec/rs_vandermonde.h"
#include "obs/flight_recorder.h"
#include "obs/latency.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "resilience/factory.h"
#include "sim/shard_runtime.h"
#include "workload/ycsb.h"

namespace hpres::bench {

/// HPRES_BENCH_SCALE scales op counts (default 1.0; raise for more
/// statistical weight, lower for smoke runs).
inline double bench_scale() {
  const char* env = std::getenv("HPRES_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double v = std::atof(env);
  return v > 0.0 ? v : 1.0;
}

inline std::uint64_t scaled(std::uint64_t ops) {
  const double v = static_cast<double>(ops) * bench_scale();
  return v < 1.0 ? 1 : static_cast<std::uint64_t>(v);
}

/// Parses an `--flag=N` integer harness argument; `fallback` when absent.
/// Exits with code 2 on a malformed value. The observability flags below
/// parse through it too.
inline std::int64_t arg_int(int argc, char** argv, std::string_view prefix,
                            std::int64_t fallback) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with(prefix)) continue;
    const std::string value(arg.substr(prefix.size()));
    try {
      return std::stoll(value);
    } catch (const std::exception&) {
      std::fprintf(stderr, "error: %.*s expects an integer, got \"%s\"\n",
                   static_cast<int>(prefix.size() - 1), prefix.data(),
                   value.c_str());
      std::exit(2);
    }
  }
  return fallback;
}

// --- Observability session ----------------------------------------------------
//
// One per process: holds the span tracer, metrics registry and latency
// recorder every Testbench registers into. Enabled by harness flags:
//   --trace-out=FILE          Chrome trace_event JSON (Perfetto-loadable)
//   --metrics-out=FILE        metrics snapshot JSON (the one metrics export;
//                             histograms carry p50/p95/p99/p999)
//   --sample-interval-us=N    periodic gauge sampling (0 disables; defaults
//                             to 100 us when tracing is on)
//   --trace-tail-us=N         tail sampling: keep full span detail only for
//                             ops slower than N microseconds
//   --trace-tail-keep=N       tail sampling: always keep the slowest N ops
//                             per {op, scheme, degraded} label
//   --flight-out=FILE         flight-recorder dump target; enables the
//                             always-on ring recorder (crash / timeout-burst
//                             dumps overwrite FILE, freshest wins, and each
//                             Testbench teardown writes a "finalize" dump)
//   --shards=N                event-loop shards for every Testbench point
//                             (fig13_dfsio refuses N > 1; micro_shard_scaling
//                             sweeps its own counts). 1 = the deterministic
//                             oracle mode (the default). The whole
//                             observability stack works at any shard
//                             count: parallel runs record into per-shard
//                             domains merged deterministically at
//                             quiescence, so exports are bit-reproducible
//                             for a fixed (seed, shard count) and
//                             byte-identical to oracle output at N <= 1.
// With no flags everything is off and benchmarks run exactly as before —
// observation never touches simulation state, so results are identical
// either way. The latency recorder itself is always on (O(1) memory per
// label, no simulation effects), so percentile tables print regardless.
class ObsSession {
 public:
  static ObsSession& instance() {
    static ObsSession session;
    return session;
  }

  /// Parses the observability flags; unknown arguments are ignored.
  void init(int argc, char** argv) {
    wall_start_ = std::chrono::steady_clock::now();
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg.starts_with("--metrics-out=")) {
        metrics_out_ = std::string(arg.substr(14));
      } else if (arg.starts_with("--trace-out=")) {
        trace_out_ = std::string(arg.substr(12));
      } else if (arg.starts_with("--flight-out=")) {
        flight_out_ = std::string(arg.substr(13));
      }
    }
    sample_interval_ns_ =
        arg_int(argc, argv, "--sample-interval-us=", 0) * 1'000;
    tail_.threshold_ns = arg_int(argc, argv, "--trace-tail-us=", 0) * 1'000;
    tail_.keep_slowest = static_cast<std::size_t>(std::max<std::int64_t>(
        0, arg_int(argc, argv, "--trace-tail-keep=", 0)));
    shards_ = static_cast<std::size_t>(
        std::max<std::int64_t>(1, arg_int(argc, argv, "--shards=", 1)));
    if (!flight_out_.empty()) {
      flight_ = std::make_unique<obs::FlightRecorder>();
      flight_->set_dump_path(flight_out_);
    }
    tracer_.set_enabled(!trace_out_.empty());
    recorder_.set_tail(tail_);
    if (sample_interval_ns_ < 0) sample_interval_ns_ = 0;
    if (sample_interval_ns_ == 0 && tracer_.enabled()) {
      sample_interval_ns_ = 100'000;  // default 100 us when tracing
    }
  }

  [[nodiscard]] bool metrics_enabled() const noexcept {
    return !metrics_out_.empty();
  }
  [[nodiscard]] obs::Tracer& tracer() noexcept { return tracer_; }
  [[nodiscard]] obs::MetricsRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] obs::LatencyRecorder& recorder() noexcept { return recorder_; }
  /// Process-wide flight recorder, or nullptr when --flight-out is absent.
  [[nodiscard]] obs::FlightRecorder* flight() noexcept { return flight_.get(); }
  [[nodiscard]] SimDur sample_interval_ns() const noexcept {
    return sample_interval_ns_;
  }

  [[nodiscard]] std::string next_point_label() {
    return "pt" + std::to_string(point_seq_++);
  }

  /// Shard count every Testbench runs at (--shards).
  /// Tracing, flight recording and the health monitor all run shard-safe
  /// through per-shard domains.
  [[nodiscard]] std::size_t effective_shards() const noexcept {
    return shards_;
  }

  /// Folds a finished cluster's executed-event count into the process
  /// total driving the sim-efficiency summary line.
  void add_sim_events(std::uint64_t events) noexcept { sim_events_ += events; }
  [[nodiscard]] std::uint64_t sim_events() const noexcept {
    return sim_events_;
  }

  /// Writes the requested output files and prints the wall-clock /
  /// sim-efficiency summary (stderr, so stdout stays byte-comparable
  /// across instrumented and plain runs); returns a process exit code.
  [[nodiscard]] int finalize() {
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start_)
            .count();
    std::fprintf(stderr,
                 "[bench] wall-clock %.3f s | %llu simulated events | "
                 "%.3f M events/s | shards=%zu | hw_threads=%u\n",
                 wall_s,
                 static_cast<unsigned long long>(sim_events_),
                 wall_s > 0.0
                     ? static_cast<double>(sim_events_) / wall_s / 1e6
                     : 0.0,
                 effective_shards(),
                 std::thread::hardware_concurrency());
    int rc = 0;
    if (metrics_enabled()) {
      registry_.capture();
      if (!registry_.write_json(metrics_out_)) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     metrics_out_.c_str());
        rc = 1;
      }
    }
    if (!trace_out_.empty()) {
      // Tail sampling: drop tagged span detail for every op the recorder
      // did not keep (untagged infrastructure events always survive).
      if (tail_.threshold_ns > 0 || tail_.keep_slowest > 0) {
        tracer_.retain_traces(recorder_.kept_traces());
      }
      if (!tracer_.write_json(trace_out_)) {
        std::fprintf(stderr, "error: cannot write %s\n", trace_out_.c_str());
        rc = 1;
      }
    }
    return rc;
  }

 private:
  ObsSession() = default;

  obs::Tracer tracer_;
  obs::MetricsRegistry registry_;
  obs::LatencyRecorder recorder_;
  obs::LatencyRecorder::TailParams tail_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::string flight_out_;
  std::string metrics_out_;
  std::string trace_out_;
  SimDur sample_interval_ns_ = 0;
  std::uint64_t point_seq_ = 0;
  std::size_t shards_ = 1;
  std::uint64_t sim_events_ = 0;
  std::chrono::steady_clock::time_point wall_start_ =
      std::chrono::steady_clock::now();
};

inline void obs_init(int argc, char** argv) {
  ObsSession::instance().init(argc, argv);
}

[[nodiscard]] inline int obs_finalize() {
  return ObsSession::instance().finalize();
}

/// A cluster plus one resilience engine per client, all sharing one codec
/// and cost model. Rebuilt per experiment point for isolation.
///
/// Every Testbench registers itself with the process ObsSession: it becomes
/// one trace process (pid) named `point_label`, its stats structs bind into
/// the metrics registry under that op label, and — when sampling is on — a
/// periodic gauge sampler starts with the first spawn_client() and takes
/// its final sample at teardown. The destructor freezes bound metrics
/// (registry capture) so snapshots survive per-point teardown.
///
/// Harness drivers spawn onto their client's own loop (spawn_client) and
/// mutate or observe the cluster only between run() calls, so every
/// harness runs at any shard count. `shards` defaults to the process
/// --shards count.
class Testbench {
 public:
  Testbench(const cluster::Testbed& bed, std::size_t servers,
            std::size_t clients, resilience::Design design, std::size_t k = 3,
            std::size_t m = 2, std::uint32_t rep_factor = 3,
            resilience::ArpeParams arpe = {},
            resilience::HedgeParams hedge = {}, std::string point_label = {},
            resilience::PackParams pack = {},
            std::size_t shards = ObsSession::instance().effective_shards())
      : codec_(k, m),
        cost_(ec::CostModel::defaults(ec::Scheme::kRsVandermonde, k, m,
                                      bed.cpu_factor)),
        cluster_([&] {
          cluster::ClusterConfig cfg =
              cluster::make_config(bed, servers, clients);
          cfg.shards = shards;
          return cfg;
        }()),
        recorders_(cluster_.num_shards()) {
    ObsSession& obs = ObsSession::instance();
    label_ = point_label.empty() ? obs.next_point_label()
                                 : std::move(point_label);
    trace_pid_ = obs.tracer().declare_process(label_);
    cluster_.set_tracer(&obs.tracer(), trace_pid_);
    if (obs.flight() != nullptr) cluster_.set_flight_recorder(obs.flight());
    cluster_.enable_server_ec(codec_, cost_, /*materialize=*/false);
    // One latency recorder per shard: engines on different shard threads
    // never share one, and at one shard it is the single shared recorder.
    for (obs::LatencyRecorder& r : recorders_) r.set_tail(obs.recorder().tail());
    engines_.reserve(clients);
    for (std::size_t i = 0; i < clients; ++i) {
      resilience::EngineContext ctx =
          cluster_.engine_context(i, /*materialize=*/false);
      ctx.recorder = &recorders_[cluster_.fabric().shard_of(
          static_cast<net::NodeId>(servers + i))];
      engines_.push_back(resilience::make_engine(
          design, ctx, rep_factor, &codec_, cost_, arpe, hedge, pack));
    }
    cluster_.start();
    if (obs.metrics_enabled()) {
      cluster_.register_metrics(obs.registry(), label_);
      for (std::size_t i = 0; i < engines_.size(); ++i) {
        const std::string node = "client" + std::to_string(i);
        engines_[i]->stats().register_with(obs.registry(), node, label_);
        engines_[i]->arpe().stats().register_with(obs.registry(), node,
                                                  label_);
        engines_[i]->arpe().buffer_stats().register_with(obs.registry(), node,
                                                         label_);
      }
    }
  }

  ~Testbench() {
    ObsSession& obs = ObsSession::instance();
    // Quiesced teardown order: final gauge sample, then fold the per-shard
    // observability domains into the process instruments (canonical shard
    // order), then snapshot/export — so every export sees the merged view.
    if (sampler_ != nullptr) sampler_->flush(cluster_.now_quiesced());
    cluster_.merge_obs_domains();
    // shard.* runtime gauges only exist for parallel points: an oracle
    // point's metrics output stays byte-identical to the pre-shard bench.
    if (obs.metrics_enabled() && cluster_.num_shards() > 1) {
      register_shard_metrics(obs.registry(), cluster_.runtime().profile());
    }
    if (obs.metrics_enabled()) {
      register_latency(obs.registry());
      obs.registry().capture();
    }
    // On-demand dump at point teardown: the freshest ring window as of the
    // last simulated instant. Later points overwrite, so the file always
    // holds the most recent experiment's window (crash/timeout-burst dumps
    // taken mid-run are overwritten too — the ring still covers them).
    if (obs.flight() != nullptr) {
      obs.flight()->dump_to_file("finalize", cluster_.now_quiesced());
    }
    // Fold this point's percentiles (and tail-kept trace ids) into the
    // process-wide recorder that drives tail retention at finalize.
    for (const obs::LatencyRecorder& r : recorders_) obs.recorder().merge(r);
    // Sim-efficiency accounting for the [bench] summary line.
    obs.add_sim_events(cluster_.runtime().events_executed());
  }

  [[nodiscard]] cluster::Cluster& cluster() noexcept { return cluster_; }
  [[nodiscard]] resilience::Engine& engine(std::size_t i = 0) {
    return *engines_.at(i);
  }
  [[nodiscard]] std::size_t num_engines() const noexcept {
    return engines_.size();
  }
  [[nodiscard]] const std::string& label() const noexcept { return label_; }
  [[nodiscard]] std::uint32_t trace_pid() const noexcept { return trace_pid_; }
  [[nodiscard]] const ec::CostModel& cost() const noexcept { return cost_; }

  /// Percentile rows over this point's per-shard recorders. Histogram
  /// merging commutes, so the rows do not depend on the shard split.
  [[nodiscard]] std::vector<obs::LatencyRow> latency_rows() const {
    return merged_latency().rows();
  }

  /// `op`'s recorded latencies, pooled over scheme and degraded.
  [[nodiscard]] LatencyHistogram latency(std::string_view op) const {
    return merged_latency().pooled(op);
  }

  /// YCSB preload: records [0, record_count) split over the first
  /// min(8, clients) clients, each loading on its own shard, run to
  /// quiescence. The preload's latencies are then dropped, so percentiles
  /// cover the measured pass only.
  void preload(const workload::YcsbConfig& cfg) {
    const std::size_t loaders = std::min<std::size_t>(8, engines_.size());
    const std::uint64_t stride = (cfg.record_count + loaders - 1) / loaders;
    for (std::size_t l = 0; l < loaders; ++l) {
      const std::uint64_t first = l * stride;
      const std::uint64_t last =
          std::min<std::uint64_t>(first + stride, cfg.record_count);
      if (first >= last) continue;
      spawn_client(l, workload::ycsb_load(&cluster_.sim_for_client(l),
                                          engines_[l].get(), cfg, first,
                                          last));
    }
    run();
    for (obs::LatencyRecorder& r : recorders_) r.clear();
  }

  /// YCSB measured pass: client `c` runs its op stream with seed
  /// cfg.seed + 1000 + c, all clients concurrently, to quiescence. Returns
  /// the merged counts; `done_at` is the latest client's last completion.
  workload::YcsbResult run_clients(const workload::YcsbConfig& cfg) {
    std::vector<workload::YcsbResult> results(engines_.size());
    for (std::size_t c = 0; c < engines_.size(); ++c) {
      spawn_client(c, workload::ycsb_client(&cluster_.sim_for_client(c),
                                            engines_[c].get(), cfg,
                                            cfg.seed + 1000 + c,
                                            &results[c]));
    }
    run();
    workload::YcsbResult merged;
    for (const workload::YcsbResult& r : results) merged.merge(r);
    return merged;
  }

  /// Runs the cluster to quiescence (Cluster::run), so the quiesce hooks
  /// — sampling, faults, health ticks — fire at every shard count.
  SimTime run() { return cluster_.run(); }

  /// Spawns a workload task onto client `i`'s own shard loop: a task
  /// driving engine `i` has to run on the engine's shard. Starts the gauge
  /// sampler first when sampling is on.
  void spawn_client(std::size_t i, sim::Task<void> task) {
    maybe_start_sampler();
    cluster_.sim_for_client(i).spawn(std::move(task));
  }

 private:
  [[nodiscard]] obs::LatencyRecorder merged_latency() const {
    obs::LatencyRecorder merged;
    for (const obs::LatencyRecorder& r : recorders_) merged.merge(r);
    return merged;
  }

  /// The recorder is the only per-op latency record, so the metrics
  /// export carries its series: one owned histogram latency.<op>_ns per
  /// {op, degraded}, with the point's schemes folded together.
  void register_latency(obs::MetricsRegistry& reg) const {
    const obs::LatencyRecorder merged = merged_latency();
    for (const obs::LatencyRow& row : merged.rows()) {
      const obs::MetricLabels labels{
          "latency", row.key.degraded ? "degraded" : "healthy", label_};
      reg.histogram("latency." + row.key.op + "_ns", labels)
          .merge(*merged.histogram(row.key));
    }
  }

  /// Only sim-deterministic profile fields become shard.* gauges: the
  /// --metrics-out export is byte-diffed across repeat runs, so the
  /// wall-clock fields (busy/stall) live only in micro_shard_scaling's
  /// stall table and BENCH_shard_scaling.json.
  void register_shard_metrics(obs::MetricsRegistry& reg,
                              const sim::RuntimeProfile& prof) {
    const auto i64 = [](std::uint64_t v) {
      return static_cast<std::int64_t>(v);
    };
    const obs::MetricLabels rt{"shard", "runtime", label_};
    reg.gauge("shard.rounds", rt).set(i64(prof.rounds));
    reg.gauge("shard.lookahead_ns", rt).set(prof.lookahead_ns);
    reg.gauge("shard.min_advance_ns", rt).set(prof.min_advance_ns);
    reg.gauge("shard.max_advance_ns", rt).set(prof.max_advance_ns);
    reg.gauge("shard.mean_advance_ns", rt)
        .set(static_cast<std::int64_t>(prof.mean_advance_ns));
    for (std::size_t s = 0; s < prof.per_shard.size(); ++s) {
      const sim::ShardProfile& sp = prof.per_shard[s];
      const obs::MetricLabels labels{"shard", "shard" + std::to_string(s),
                                     label_};
      reg.gauge("shard.events", labels).set(i64(sp.events));
      reg.gauge("shard.msgs_out", labels).set(i64(sp.msgs_out));
      reg.gauge("shard.msgs_in", labels).set(i64(sp.msgs_in));
      reg.gauge("shard.lane_occupancy_hw", labels)
          .set(i64(sp.lane_occupancy_hw));
    }
  }

  /// Starts the gauge sampler on the first spawn when tracing and sampling
  /// are on. Each gauge records into its owner's shard domain; the fabric
  /// in-flight gauge is per shard because the merged counter is only
  /// refreshed after run().
  void maybe_start_sampler() {
    ObsSession& obs = ObsSession::instance();
    if (sampler_ != nullptr || !obs.tracer().enabled() ||
        obs.sample_interval_ns() <= 0) {
      return;
    }
    sampler_ = std::make_unique<obs::Sampler>(cluster_.runtime(),
                                              obs.sample_interval_ns());
    for (std::size_t i = 0; i < engines_.size(); ++i) {
      resilience::Engine* engine = engines_[i].get();
      obs::Tracer* const dom = cluster_.tracer_for_client(i);
      const std::string node = "client" + std::to_string(i);
      sampler_->add_gauge(dom, trace_pid_, node + "/arpe.in_flight",
                          [engine] {
                            return static_cast<std::int64_t>(
                                engine->arpe().in_flight());
                          });
      sampler_->add_gauge(dom, trace_pid_, node + "/bufpool.in_use",
                          [engine] {
                            return static_cast<std::int64_t>(
                                engine->arpe().buffers_in_use());
                          });
    }
    // Per-server load scores as seen by client 0's tracker (when the
    // engine has one): what load-aware read-set selection actually ranks
    // on, scaled x1000 so fractional EWMA movement survives the int gauge.
    if (const resilience::NodeLoadTracker* lt = engines_[0]->load_tracker();
        lt != nullptr) {
      obs::Tracer* const dom = cluster_.tracer_for_client(0);
      for (std::size_t s = 0; s < cluster_.num_servers(); ++s) {
        sampler_->add_gauge(
            dom, trace_pid_,
            "server" + std::to_string(s) + "/load_score_x1000", [lt, s] {
              return static_cast<std::int64_t>(lt->score(s) * 1000.0);
            });
      }
    }
    cluster::Cluster* cl = &cluster_;
    for (std::size_t s = 0; s < cluster_.num_shards(); ++s) {
      sampler_->add_gauge(
          cluster_.sinks(s).tracer, trace_pid_,
          "fabric/shard" + std::to_string(s) + "/in_flight_bytes", [cl, s] {
            return static_cast<std::int64_t>(
                cl->fabric().in_flight_bytes_of_shard(s));
          });
    }
    for (std::size_t i = 0; i < cluster_.num_servers(); ++i) {
      const net::NodeId node = cluster_.server_nodes()[i];
      sampler_->add_gauge(cluster_.sinks_of(node).tracer, trace_pid_,
                          "server" + std::to_string(i) + "/inbox_depth",
                          [cl, node] {
                            return static_cast<std::int64_t>(
                                cl->fabric().inbox(node).size());
                          });
    }
    sampler_->start();
  }

  ec::RsVandermondeCodec codec_;
  ec::CostModel cost_;
  cluster::Cluster cluster_;
  // One per shard; outlives the engines that record into it.
  std::vector<obs::LatencyRecorder> recorders_;
  std::vector<std::unique_ptr<resilience::Engine>> engines_;
  std::string label_;
  std::uint32_t trace_pid_ = 0;
  std::unique_ptr<obs::Sampler> sampler_;  // declared last: destroyed first
};

// --- Table printing -----------------------------------------------------------

inline void print_header(const std::string& title,
                         const std::vector<std::string>& columns) {
  std::printf("\n== %s ==\n", title.c_str());
  for (const auto& c : columns) std::printf("%14s", c.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < columns.size(); ++i) std::printf("%14s", "----");
  std::printf("\n");
}

inline void print_cell(const std::string& s) {
  std::printf("%14s", s.c_str());
}
inline void print_cell(double v) { std::printf("%14.1f", v); }
inline void end_row() { std::printf("\n"); }

/// Prints one LatencyRecorder percentile table (all values microseconds).
inline void print_latency_rows(const std::string& title,
                               const std::vector<obs::LatencyRow>& rows) {
  print_header(title, {"op", "scheme", "degraded", "count", "p50_us",
                       "p95_us", "p99_us", "p999_us", "max_us"});
  for (const obs::LatencyRow& row : rows) {
    print_cell(row.key.op);
    print_cell(row.key.scheme);
    print_cell(row.key.degraded ? "yes" : "no");
    print_cell(static_cast<double>(row.count));
    print_cell(units::to_us(row.p50_ns));
    print_cell(units::to_us(row.p95_ns));
    print_cell(units::to_us(row.p99_ns));
    print_cell(units::to_us(row.p999_ns));
    print_cell(units::to_us(row.max_ns));
    end_row();
  }
}

inline std::string size_label(std::size_t bytes) {
  if (bytes >= 1024 * 1024 && bytes % (1024 * 1024) == 0) {
    return std::to_string(bytes / (1024 * 1024)) + "M";
  }
  if (bytes >= 1024 && bytes % 1024 == 0) {
    return std::to_string(bytes / 1024) + "K";
  }
  return std::to_string(bytes) + "B";
}

}  // namespace hpres::bench
