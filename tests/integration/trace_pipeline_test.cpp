// End-to-end causal tracing pipeline: trace contexts propagate from the
// engine through the fabric into server handlers and back, the critical-path
// sweep attributes every traced op exactly, degraded reads surface their
// decode on the critical path, concurrent traffic hides decode behind
// communication (the ARPE overlap claim, op by op), and turning tracing on
// changes no simulated result.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "ec/rs_vandermonde.h"
#include "obs/critical_path.h"
#include "obs/latency.h"
#include "obs/trace.h"
#include "resilience/factory.h"
#include "testing/fixtures.h"

namespace hpres {
namespace {

constexpr std::size_t kKeys = 20;
constexpr std::size_t kValueSize = 32 * 1024;

struct PipelineOutcome {
  SimTime makespan = 0;
  std::uint64_t events = 0;
  std::int64_t latency_sum = 0;  // recorder-side sum over every get row
  std::uint64_t degraded_gets = 0;
  obs::CriticalPathAnalysis cp;
  std::vector<obs::LatencyRow> rows;
};

sim::Task<void> load_keys(resilience::Engine* engine) {
  for (std::size_t i = 0; i < kKeys; ++i) {
    const auto st =
        co_await engine->set("key" + std::to_string(i), zero_bytes(kValueSize));
    EXPECT_TRUE(st.ok());
  }
}

sim::Task<void> get_keys(resilience::Engine* engine, std::size_t stride) {
  for (std::size_t i = 0; i < kKeys; i += stride) {
    const auto r = co_await engine->get("key" + std::to_string(i));
    EXPECT_TRUE(r.ok());
  }
}

/// Loads kKeys with client 0, optionally fails server 0, then runs one
/// concurrent get pass per client. `traced` wires the span tracer; the
/// latency recorder is always on (as in the benches).
PipelineOutcome run_pipeline(bool traced, bool fail_server,
                             std::size_t clients, std::size_t servers = 5) {
  obs::Tracer tracer(traced);
  obs::LatencyRecorder recorder;
  const std::uint32_t pid = tracer.declare_process("pipeline-pt");

  ec::RsVandermondeCodec codec(3, 2);
  const auto cost = ec::CostModel::defaults(ec::Scheme::kRsVandermonde, 3, 2);
  cluster::Cluster cl(cluster::ClusterConfig{
      .num_servers = servers, .num_clients = clients});
  cl.enable_server_ec(codec, cost, false);
  cl.set_tracer(&tracer, pid);
  std::vector<std::unique_ptr<resilience::Engine>> engines;
  for (std::size_t c = 0; c < clients; ++c) {
    resilience::EngineContext ctx;
    ctx.sim = &cl.sim();
    ctx.client = &cl.client(c);
    ctx.ring = &cl.ring();
    ctx.membership = &cl.membership();
    ctx.server_nodes = &cl.server_nodes();
    ctx.materialize = false;
    ctx.tracer = &tracer;
    ctx.trace_pid = pid;
    ctx.recorder = &recorder;
    engines.push_back(resilience::make_engine(resilience::Design::kEraCeCd,
                                              ctx, 3, &codec, cost));
  }
  cl.start();

  cl.sim().spawn(load_keys(engines[0].get()));
  cl.run();
  recorder.clear();  // measure the get pass only, like the benches

  if (fail_server) cl.fail_server(0);
  const std::uint64_t watermark = tracer.trace_watermark();
  for (std::size_t c = 0; c < clients; ++c) {
    cl.sim().spawn(get_keys(engines[c].get(), /*stride=*/1));
  }
  const SimTime t0 = cl.sim().now();

  PipelineOutcome out;
  out.makespan = cl.run() - t0;
  out.events = cl.sim().events_executed();
  for (const auto& e : engines) out.degraded_gets += e->stats().degraded_gets;
  out.rows = recorder.rows();
  for (const obs::LatencyRow& row : out.rows) {
    out.latency_sum +=
        static_cast<std::int64_t>(row.mean_ns * static_cast<double>(row.count));
  }
  out.cp = obs::analyze_critical_path(tracer.tagged_spans(pid));
  // Keep only measured-pass ops (the preload allocated earlier ids).
  std::erase_if(out.cp.ops, [watermark](const obs::OpAttribution& op) {
    return op.trace_id < watermark;
  });
  return out;
}

TEST(TracePipeline, PhaseSumsAreExactForEveryTracedOp) {
  const PipelineOutcome out =
      run_pipeline(/*traced=*/true, /*fail_server=*/false, /*clients=*/2);
  ASSERT_EQ(out.cp.ops.size(), 2 * kKeys);
  for (const obs::OpAttribution& op : out.cp.ops) {
    EXPECT_EQ(op.op, "get");
    EXPECT_GT(op.total_ns, 0);
    EXPECT_EQ(op.phase_sum(), op.total_ns) << "trace " << op.trace_id;
    // Healthy CE-CD gets fetch k data fragments and never decode.
    EXPECT_EQ(op.decode_ns, 0);
    // Every get talked to servers: net time must be on the path.
    EXPECT_GT(op.phase(obs::Phase::kNet), 0);
  }
}

TEST(TracePipeline, DegradedGetPutsDecodeOnCriticalPath) {
  // One sequential client, one failed server: the reconstruct decode has
  // nothing to hide behind, so it is critical-path time, fully exposed.
  const PipelineOutcome out =
      run_pipeline(/*traced=*/true, /*fail_server=*/true, /*clients=*/1);
  ASSERT_GT(out.degraded_gets, 0u);
  std::size_t decoded_ops = 0;
  for (const obs::OpAttribution& op : out.cp.ops) {
    EXPECT_EQ(op.phase_sum(), op.total_ns);
    if (op.decode_ns == 0) continue;
    ++decoded_ops;
    EXPECT_GT(op.phase(obs::Phase::kDecode), 0);
    EXPECT_EQ(op.decode_exposed_ns, op.decode_ns);  // nothing concurrent
  }
  // Every decode came from a degraded read, but not every degraded read
  // decodes: when the dead server held a parity fragment, the k data
  // fragments still arrive and reconstruct-free assembly suffices.
  EXPECT_GT(decoded_ops, 0u);
  EXPECT_LE(decoded_ops, out.degraded_gets);
}

TEST(TracePipeline, ConcurrentTrafficHidesPartOfTheDecode) {
  // Four clients fetch the same key set concurrently against the failed
  // server: other ops' fragment fetches overlap each decode window, so in
  // aggregate the exposed decode must be strictly less than total decode —
  // the op-level version of the ARPE overlap claim.
  const PipelineOutcome out =
      run_pipeline(/*traced=*/true, /*fail_server=*/true, /*clients=*/4);
  ASSERT_GT(out.degraded_gets, 0u);
  SimDur decode = 0;
  SimDur exposed = 0;
  for (const obs::OpAttribution& op : out.cp.ops) {
    decode += op.decode_ns;
    exposed += op.decode_exposed_ns;
  }
  ASSERT_GT(decode, 0);
  EXPECT_LT(exposed, decode);
}

TEST(TracePipeline, TracingChangesNoSimulatedResult) {
  const PipelineOutcome on =
      run_pipeline(/*traced=*/true, /*fail_server=*/true, /*clients=*/2);
  const PipelineOutcome off =
      run_pipeline(/*traced=*/false, /*fail_server=*/true, /*clients=*/2);
  EXPECT_EQ(on.makespan, off.makespan);
  EXPECT_EQ(on.degraded_gets, off.degraded_gets);
  EXPECT_EQ(on.latency_sum, off.latency_sum);
  // The recorder (always on) saw identical populations...
  ASSERT_EQ(on.rows.size(), off.rows.size());
  for (std::size_t i = 0; i < on.rows.size(); ++i) {
    EXPECT_EQ(on.rows[i].key, off.rows[i].key);
    EXPECT_EQ(on.rows[i].count, off.rows[i].count);
    EXPECT_EQ(on.rows[i].p50_ns, off.rows[i].p50_ns);
    EXPECT_EQ(on.rows[i].p999_ns, off.rows[i].p999_ns);
    EXPECT_EQ(on.rows[i].max_ns, off.rows[i].max_ns);
  }
  // ...while only the traced run produced spans.
  EXPECT_FALSE(on.cp.ops.empty());
  EXPECT_TRUE(off.cp.ops.empty());
}

TEST(TracePipeline, RecorderSplitsDegradedFromHealthyGets) {
  // 8 servers so RS(3,2)'s five slots miss the failed node for some keys:
  // both a healthy and a degraded get population must exist.
  const PipelineOutcome out = run_pipeline(
      /*traced=*/true, /*fail_server=*/true, /*clients=*/2, /*servers=*/8);
  const obs::LatencyRow* healthy = nullptr;
  const obs::LatencyRow* degraded = nullptr;
  for (const obs::LatencyRow& row : out.rows) {
    if (row.key.op != "get") continue;
    (row.key.degraded ? degraded : healthy) = &row;
  }
  ASSERT_NE(healthy, nullptr);
  ASSERT_NE(degraded, nullptr);
  EXPECT_EQ(degraded->count, out.degraded_gets);
  EXPECT_EQ(healthy->count + degraded->count, 2 * kKeys);
  // Reconstruction costs real time: the degraded population is slower.
  EXPECT_GT(degraded->p50_ns, healthy->p50_ns);
}

}  // namespace
}  // namespace hpres
