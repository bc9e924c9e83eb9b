// Shared test scaffolding: a 5-server cluster with one or more clients and
// helpers to run coroutine test bodies to completion inside the simulation.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string_view>

#include "cluster/cluster.h"
#include "ec/rs_vandermonde.h"
#include "obs/latency.h"
#include "obs/trace.h"
#include "resilience/factory.h"

namespace hpres::testing {

/// Spawns `body(args...)` as a simulation process, runs to quiescence, and
/// fails the test if the body never finished (deadlock in simulated time).
template <typename Fn, typename... Args>
void run_sim(sim::Simulator& sim, Fn body, Args*... args) {
  bool finished = false;
  struct Runner {
    static sim::Task<void> run(Fn fn, bool* done, Args*... a) {
      co_await fn(a...);
      *done = true;
    }
  };
  sim.spawn(Runner::run(std::move(body), &finished, args...));
  sim.run();
  EXPECT_TRUE(finished) << "coroutine test body never completed";
}

/// 5 servers + 1 client on RDMA-QDR with an RS(3,2) codec: the paper's
/// micro-benchmark configuration.
class FiveNodeClusterTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kServers = 5;

  FiveNodeClusterTest()
      : codec_(3, 2),
        cost_(ec::CostModel::defaults(ec::Scheme::kRsVandermonde, 3, 2)),
        cluster_(cluster::ClusterConfig{.num_servers = kServers,
                                        .num_clients = 1}) {
    cluster_.enable_server_ec(codec_, cost_, /*materialize=*/true);
  }

  /// Builds an engine for client 0, recording op latencies into
  /// recorder_. Call before cluster_.start().
  std::unique_ptr<resilience::Engine> make_engine(
      resilience::Design design, std::uint32_t rep_factor = 3,
      resilience::ArpeParams arpe = {}, resilience::HedgeParams hedge = {},
      resilience::PackParams pack = {}) {
    resilience::EngineContext ctx =
        cluster_.engine_context(0, /*materialize=*/true);
    ctx.recorder = &recorder_;
    return resilience::make_engine(design, ctx, rep_factor, &codec_, cost_,
                                   arpe, hedge, pack);
  }

  /// Attaches tracer_ to the cluster: engines made afterwards emit spans
  /// under trace_pid_, and tests read phase totals from it.
  void attach_tracer() { cluster_.set_tracer(&tracer_, trace_pid_); }

  /// Total duration / count of the spans named `name` so far.
  [[nodiscard]] SimDur span_ns(std::string_view name) const {
    return tracer_.total_ns(trace_pid_, name);
  }
  [[nodiscard]] std::uint64_t span_count(std::string_view name) const {
    return tracer_.span_count(trace_pid_, name);
  }

  // Declared before cluster_: the cluster points into them.
  obs::Tracer tracer_{/*enabled=*/true};
  std::uint32_t trace_pid_ = tracer_.declare_process("test");
  obs::LatencyRecorder recorder_;
  ec::RsVandermondeCodec codec_;
  ec::CostModel cost_;
  cluster::Cluster cluster_;
};

}  // namespace hpres::testing
