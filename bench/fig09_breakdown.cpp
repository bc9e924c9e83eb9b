// FIG9 — Client-side time-wise breakdown for Set/Get (paper Fig 9).
//
// For value sizes 64 KB - 1 MB, splits each design's client-observed
// latency into Request (issue), Encode/Decode (compute) and Wait-Response
// phases. Set on a healthy cluster (Fig 9a); Get under two node failures
// (Fig 9b), where the wait time dominates due to the skewed survivor load.
//
// The printed phases are sourced from the span tracer (per-point deltas of
// the "set"/"get", "*/request" and "set/encode"/"get/decode" span totals),
// not from the legacy PhaseBreakdown accumulators; the harness cross-checks
// the two against each other per point and exits nonzero if they diverge by
// more than 1%.
//
// On top of the phase tables, the harness runs the causal critical-path
// analyzer over the measured ops of every point and prints (a) the mean
// per-op critical-path attribution and (b) the tail attribution over the
// slowest 1% of ops. Three invariants are enforced (exit nonzero on
// violation): each op's critical-path phases sum EXACTLY to its end-to-end
// latency; the critical-path serialize total matches the span-derived
// request total within 1%; and, for designs whose compute runs client-side,
// the critical-path encode+decode total matches the span-derived compute
// total within 1% and the per-op encode mean matches the Eq. 5 cost model
// (T_encode = cost.encode_ns(size)). SD/SE designs intentionally diverge on
// compute: the critical path surfaces server-side encode/decode that the
// client-side legacy breakdown cannot see (EXPERIMENTS.md).
//
// Expected shape (paper): for Sets, the request phase dominates small
// values and T_encode grows dominant (and overlapped) at large values for
// CE designs; SE designs show only request/wait at the client. For Gets
// under failures, wait dominates; only CD designs show client decode time.
#include <algorithm>

#include "bench_util.h"
#include "obs/critical_path.h"
#include "workload/ohb.h"

namespace {

using namespace hpres;         // NOLINT(google-build-using-namespace)
using namespace hpres::bench;  // NOLINT(google-build-using-namespace)

constexpr std::size_t kSizes[] = {64 * 1024, 256 * 1024, 1024 * 1024};
constexpr resilience::Design kDesigns[] = {resilience::Design::kAsyncRep,
                                           resilience::Design::kEraCeCd,
                                           resilience::Design::kEraSeSd,
                                           resilience::Design::kEraSeCd,
                                           resilience::Design::kEraCeSd};

/// Phase totals derived from tracer span totals for one (pid, op kind).
struct SpanPhaseTotals {
  SimDur total_ns = 0;
  SimDur request_ns = 0;
  SimDur compute_ns = 0;
};

SpanPhaseTotals snapshot_spans(const obs::Tracer& tracer, std::uint32_t pid,
                               bool get_side) {
  if (get_side) {
    return {tracer.total_ns(pid, "get"), tracer.total_ns(pid, "get/request"),
            tracer.total_ns(pid, "get/decode")};
  }
  return {tracer.total_ns(pid, "set"), tracer.total_ns(pid, "set/request"),
          tracer.total_ns(pid, "set/encode")};
}

/// Measured-pass phase sums derived from the tracer (populate-pass spans
/// subtracted out via a before/after snapshot).
struct TracedPhases {
  SimDur request_ns = 0;
  SimDur compute_ns = 0;
  SimDur wait_ns = 0;

  [[nodiscard]] SimDur total() const noexcept {
    return request_ns + compute_ns + wait_ns;
  }
};

/// Populates, then runs the measured pass. Both passes run to quiescence,
/// and the span snapshots and trace-id watermarks are taken between them,
/// after the per-shard tracer domains merge.
TracedPhases run_point(Testbench& bench, workload::OhbConfig cfg,
                       bool get_with_failures, workload::OhbResult* result,
                       std::uint64_t* wm_lo, std::uint64_t* wm_hi) {
  cluster::Cluster& cluster = bench.cluster();
  sim::Simulator* sim = &cluster.sim_for_client(0);
  const obs::Tracer& tracer = ObsSession::instance().tracer();
  // Op trace ids come from the client's shard domain, so its watermark
  // brackets the measured pass at any shard count.
  const obs::Tracer* client_tracer = cluster.tracer_for_client(0);
  workload::OhbResult ignore;
  bench.spawn_client(
      0, workload::ohb_set_workload(sim, &bench.engine(), cfg, &ignore));
  bench.run();
  cluster.merge_obs_domains();
  const SpanPhaseTotals before =
      snapshot_spans(tracer, bench.trace_pid(), get_with_failures);
  *wm_lo = client_tracer->trace_watermark();  // analyze only the measured pass
  if (!get_with_failures) {
    cfg.seed += 1;
    bench.spawn_client(
        0, workload::ohb_set_workload(sim, &bench.engine(), cfg, result));
  } else {
    cluster.fail_server(0);
    cluster.fail_server(1);
    bench.spawn_client(
        0, workload::ohb_get_workload(sim, &bench.engine(), cfg, result));
  }
  bench.run();
  cluster.merge_obs_domains();
  *wm_hi = client_tracer->trace_watermark();
  const SpanPhaseTotals after =
      snapshot_spans(tracer, bench.trace_pid(), get_with_failures);
  TracedPhases traced;
  traced.request_ns = after.request_ns - before.request_ns;
  traced.compute_ns = after.compute_ns - before.compute_ns;
  traced.wait_ns = (after.total_ns - before.total_ns) - traced.request_ns -
                   traced.compute_ns;
  return traced;
}

/// Critical-path aggregates for one experiment point.
struct CpRow {
  std::string design;
  std::string value;
  std::uint64_t ops = 0;
  obs::PhaseAggregate all;
  obs::PhaseAggregate tail;  ///< slowest 1% of measured ops
  SimDur model_compute_ns = 0;
};

void print_cp_table(const char* title, const std::vector<CpRow>& rows,
                    bool tail, const char* model_label) {
  print_header(title,
               {"design", "value", "ops", "serial_us", "encode_us",
                "decode_us", "queue_us", "fanout_us", "net_us", "server_us",
                "waitk_us", "other_us", "total_us", model_label});
  for (const CpRow& row : rows) {
    const obs::PhaseAggregate& agg = tail ? row.tail : row.all;
    const auto ops = static_cast<double>(agg.count ? agg.count : 1);
    print_cell(row.design);
    print_cell(row.value);
    print_cell(static_cast<double>(agg.count));
    for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
      print_cell(units::to_us(agg.phase_ns[p]) / ops);
    }
    print_cell(units::to_us(agg.total_ns) / ops);
    print_cell(units::to_us(row.model_compute_ns));
    end_row();
  }
}

bool within_one_percent(SimDur traced, SimDur legacy) {
  const SimDur diff = traced > legacy ? traced - legacy : legacy - traced;
  const SimDur tol = std::max<SimDur>(std::max(traced, legacy) / 100, 1);
  return diff <= tol;
}

int cross_check(const std::string& label, const char* phase, SimDur traced,
                SimDur legacy) {
  if (within_one_percent(traced, legacy)) return 0;
  std::fprintf(stderr,
               "fig09: %s %s diverges: tracer %lld ns vs breakdown %lld ns\n",
               label.c_str(), phase, static_cast<long long>(traced),
               static_cast<long long>(legacy));
  return 1;
}

int run_table(const char* title, bool get_with_failures) {
  int rc = 0;
  std::vector<CpRow> cp_rows;
  print_header(title, {"design", "value", "request_us", "compute_us",
                       "wait_us", "total_us"});
  for (const auto design : kDesigns) {
    for (const std::size_t size : kSizes) {
      const std::string label = std::string(to_string(design)) + "/" +
                                size_label(size) +
                                (get_with_failures ? "/get" : "/set");
      Testbench bench(cluster::ri_qdr(), 5, 1, design, 3, 2, 3, {}, {},
                      label);
      workload::OhbConfig cfg;
      cfg.operations = scaled(500);
      cfg.value_size = size;
      workload::OhbResult result;
      std::uint64_t wm_lo = 0;
      std::uint64_t wm_hi = 0;
      const TracedPhases traced = run_point(bench, cfg, get_with_failures,
                                            &result, &wm_lo, &wm_hi);
      ObsSession& obs = ObsSession::instance();

      // The span-derived phases must agree with the legacy PhaseBreakdown
      // accumulators (they are computed from the same charged costs).
      rc |= cross_check(label, "request", traced.request_ns,
                        result.phases.request_ns);
      rc |= cross_check(label, "compute", traced.compute_ns,
                        result.phases.compute_ns);
      rc |= cross_check(label, "wait", traced.wait_ns, result.phases.wait_ns);

      // Causal critical-path attribution over the measured ops.
      const obs::CriticalPathAnalysis cp = obs::analyze_critical_path(
          obs.tracer().tagged_spans(bench.trace_pid()));
      std::vector<obs::OpAttribution> measured;
      for (const obs::OpAttribution& op : cp.ops) {
        if (op.trace_id < wm_lo || op.trace_id >= wm_hi) continue;
        if (op.phase_sum() != op.total_ns) {
          std::fprintf(stderr,
                       "fig09: %s trace %llu: phase sum %lld ns != op total"
                       " %lld ns\n",
                       label.c_str(),
                       static_cast<unsigned long long>(op.trace_id),
                       static_cast<long long>(op.phase_sum()),
                       static_cast<long long>(op.total_ns));
          rc = 1;
        }
        measured.push_back(op);
      }
      CpRow row;
      row.design = std::string(to_string(design));
      row.value = size_label(size);
      row.ops = measured.size();
      for (const obs::OpAttribution& op : measured) row.all.add(op);
      for (const obs::OpAttribution* op :
           obs::slowest_fraction(measured, 0.01)) {
        row.tail.add(*op);
      }

      // Reconcile against the span-derived breakdown: serialization always;
      // encode+decode only where the compute actually runs on the client
      // (the critical path deliberately includes server-side compute that
      // the client-side legacy breakdown cannot see).
      using obs::Phase;
      rc |= cross_check(label, "cp-serialize", row.all.phase(Phase::kSerialize),
                        traced.request_ns);
      const bool client_compute =
          design == resilience::Design::kAsyncRep ||
          design == resilience::Design::kEraCeCd ||
          design == (get_with_failures ? resilience::Design::kEraSeCd
                                       : resilience::Design::kEraCeSd);
      if (client_compute) {
        rc |= cross_check(label, "cp-compute",
                          row.all.phase(Phase::kEncode) +
                              row.all.phase(Phase::kDecode),
                          traced.compute_ns);
      }
      // Eq. 5 cost-model cross-check: client-encode designs must attribute
      // exactly T_encode = encode_ns(size) per op to the encode phase.
      if (!get_with_failures) {
        row.model_compute_ns = bench.cost().encode_ns(size);
        if (client_compute && design != resilience::Design::kAsyncRep &&
            row.ops > 0) {
          rc |= cross_check(
              label, "cp-model-encode", row.all.phase(Phase::kEncode),
              static_cast<SimDur>(row.ops) * row.model_compute_ns);
        }
      } else {
        // Reference point for the decode column: one lost data fragment
        // (per-op loss counts vary with key placement under two failures).
        row.model_compute_ns = bench.cost().decode_ns(size, 1);
      }
      cp_rows.push_back(std::move(row));

      if (obs.metrics_enabled()) {
        // Full-run span totals (populate + measured pass) land in the
        // snapshot next to the bound engine.{set,get}_phase.* counters they
        // must match.
        const SpanPhaseTotals totals =
            snapshot_spans(obs.tracer(), bench.trace_pid(),
                           get_with_failures);
        const char* prefix = get_with_failures ? "get" : "set";
        const obs::MetricLabels labels{"fig09", "trace", label};
        obs.registry()
            .counter(std::string("trace.") + prefix + ".request_ns", labels)
            .set(static_cast<std::uint64_t>(totals.request_ns));
        obs.registry()
            .counter(std::string("trace.") + prefix + ".compute_ns", labels)
            .set(static_cast<std::uint64_t>(totals.compute_ns));
        obs.registry()
            .counter(std::string("trace.") + prefix + ".wait_ns", labels)
            .set(static_cast<std::uint64_t>(totals.total_ns -
                                            totals.request_ns -
                                            totals.compute_ns));
      }

      const auto ops = static_cast<double>(result.operations);
      print_cell(std::string(to_string(design)));
      print_cell(size_label(size));
      print_cell(units::to_us(traced.request_ns) / ops);
      print_cell(units::to_us(traced.compute_ns) / ops);
      print_cell(units::to_us(traced.wait_ns) / ops);
      print_cell(units::to_us(traced.total()) / ops);
      end_row();
    }
  }
  const char* model_label = get_with_failures ? "model_dec1" : "model_enc";
  print_cp_table((std::string(title) + " — critical path, mean per op")
                     .c_str(),
                 cp_rows, /*tail=*/false, model_label);
  print_cp_table((std::string(title) + " — tail attribution, slowest 1%")
                     .c_str(),
                 cp_rows, /*tail=*/true, model_label);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  obs_init(argc, argv);
  // Phase numbers come from the span tracer, so it is always on here
  // (recording is passive — simulated results are identical either way).
  ObsSession::instance().tracer().set_enabled(true);
  std::printf("FIG9 (paper Fig 9) — client-side phase breakdown per op,"
              " RI-QDR, 5 servers\n");
  int rc = 0;
  rc |= run_table("Fig 9(a): Set phases, healthy cluster", false);
  rc |= run_table("Fig 9(b): Get phases, two node failures", true);
  rc |= obs_finalize();
  return rc;
}
