// Periodic gauge sampler: reads a set of registered gauges (ARPE window
// occupancy, buffer-pool usage, fabric in-flight bytes, server queue
// depth, ...) at a fixed simulated interval and emits them as Chrome
// trace_event counter samples ("C" events), giving a time-series view
// alongside the spans.
//
// The sampler is a ShardRuntime quiesce hook, so it works the same at
// every shard count. Each gauge is registered with the tracer domain it
// records into — pass the owning shard's domain so every counter series
// stays single-writer; a gauge that reads cross-shard state is still safe
// because hooks fire while all shard threads are parked. Samples land on
// exact interval boundaries (the hook caps windows at the next boundary),
// so the series is deterministic for a fixed (seed, shard count).
// Sampling is read-only and adds no simulator events, so at one shard
// enabling it changes no benchmark result. The harness calls flush() at
// quiescence for the final partial interval.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "obs/trace.h"
#include "sim/shard_runtime.h"

namespace hpres::obs {

class Sampler {
 public:
  Sampler(sim::ShardRuntime& runtime, SimDur interval_ns)
      : runtime_(&runtime), interval_(interval_ns) {}
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;
  ~Sampler();

  /// Registers one gauge recording into `domain` under process `pid`;
  /// `read` must stay valid until the runtime is done. A null or disabled
  /// domain still accumulates stats but emits no trace counters.
  void add_gauge(Tracer* domain, std::uint32_t pid, std::string name,
                 std::function<std::int64_t()> read) {
    series_.push_back(
        Series{domain, pid, std::move(name), std::move(read), {}});
  }

  /// Registers the quiesce hook (samples at the current instant, then
  /// every interval). No-op when no gauge records into an enabled tracer
  /// domain or the interval is not positive.
  void start();

  /// Takes one final sample at `now` (the quiesced instant) and stops
  /// sampling. Call from the main thread after run() returns. Idempotent.
  void flush(SimTime now);

  [[nodiscard]] std::uint64_t samples() const noexcept { return samples_; }
  [[nodiscard]] std::size_t num_gauges() const noexcept {
    return series_.size();
  }
  /// Running min/mean/max of series `i` over all samples taken.
  [[nodiscard]] const RunningStats& series_stats(std::size_t i) const {
    return series_.at(i).stats;
  }

 private:
  struct Series {
    Tracer* domain;
    std::uint32_t pid;
    std::string name;
    std::function<std::int64_t()> read;
    RunningStats stats;
  };

  SimTime on_quiesce(SimTime min_next);
  void sample_at(SimTime now);

  sim::ShardRuntime* runtime_;
  SimDur interval_;
  SimTime next_ = 0;  ///< next sample boundary once started
  std::vector<Series> series_;
  std::uint64_t samples_ = 0;
  std::size_t hook_id_ = 0;
  bool hook_armed_ = false;
  bool stopped_ = false;
};

}  // namespace hpres::obs
