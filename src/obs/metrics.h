// Unified metrics registry: named counters, gauges and latency histograms
// with {component, node, op} labels, snapshotting to deterministic,
// stably-ordered JSON.
//
// Two registration styles:
//   * owned   — registry.counter(...)/gauge(...)/histogram(...) return a
//               stable reference the caller increments directly;
//   * bound   — bind_counter/bind_gauge(...) point the registry at a live
//               scalar source (a field of an existing stats struct, or a
//               closure). Histograms are always owned. Sources are read
//               lazily at snapshot time; capture() freezes the current
//               readings into owned values and drops the bindings, so a
//               source may be destroyed after capture() (benchmarks tear
//               down one Testbench per experiment point).
//
// Snapshot order is the lexicographic (name, component, node, op) order of
// a std::map, independent of registration order — byte-identical JSON
// across same-seed runs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "common/histogram.h"

namespace hpres::obs {

struct MetricLabels {
  std::string component;
  std::string node;
  std::string op;

  friend auto operator<=>(const MetricLabels&, const MetricLabels&) = default;
};

/// Monotonically increasing owned metric.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_ += n; }
  void set(std::uint64_t v) noexcept { value_ = v; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time owned metric.
class Gauge {
 public:
  void set(std::int64_t v) noexcept { value_ = v; }
  void add(std::int64_t d) noexcept { value_ += d; }
  [[nodiscard]] std::int64_t value() const noexcept { return value_; }

 private:
  std::int64_t value_ = 0;
};

class MetricsRegistry {
 public:
  using Reader = std::function<std::int64_t()>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Owned metrics; references are stable for the registry's lifetime.
  /// Re-registering an existing (name, labels) returns the same object.
  Counter& counter(std::string name, MetricLabels labels);
  Gauge& gauge(std::string name, MetricLabels labels);
  LatencyHistogram& histogram(std::string name, MetricLabels labels);

  /// Bound metrics: read `*src` / `fn()` at snapshot/capture time. The
  /// source must stay alive until capture() or the final snapshot.
  void bind_counter(std::string name, MetricLabels labels,
                    const std::uint64_t* src);
  void bind_counter(std::string name, MetricLabels labels,
                    const std::int64_t* src);
  void bind_counter(std::string name, MetricLabels labels,
                    const std::uint32_t* src);
  void bind_gauge(std::string name, MetricLabels labels, Reader fn);
  /// Pointer forms for watermark/level fields living in stats structs —
  /// gauge semantics (a point-in-time level, not a monotone count).
  void bind_gauge(std::string name, MetricLabels labels,
                  const std::uint64_t* src);
  void bind_gauge(std::string name, MetricLabels labels,
                  const std::int64_t* src);
  void bind_gauge(std::string name, MetricLabels labels,
                  const std::uint32_t* src);

  /// Freezes every bound metric at its current reading and drops the
  /// binding (the source may then be destroyed). Owned metrics unaffected.
  void capture();

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// Current scalar reading of a counter/gauge, nullopt if absent or a
  /// histogram. For tests and harness cross-checks.
  [[nodiscard]] std::optional<std::int64_t> value_of(
      std::string_view name, const MetricLabels& labels) const;

  /// Deterministic, stably-ordered JSON snapshot of every metric.
  [[nodiscard]] std::string to_json() const;

  /// Prometheus text-exposition snapshot: counters and gauges as scalar
  /// samples, histograms as summaries (quantile series + _sum + _count).
  /// Defined in obs/prometheus.cpp; same deterministic ordering as
  /// to_json().
  [[nodiscard]] std::string to_prometheus() const;

  /// Writes to_json() to `path`; false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  struct Key {
    std::string name;
    MetricLabels labels;

    friend auto operator<=>(const Key&, const Key&) = default;
  };

  struct Entry {
    Kind kind = Kind::kCounter;
    Counter counter;
    Gauge gauge;
    LatencyHistogram hist;
    Reader reader;  // bound scalar source
  };

  Entry& upsert(std::string name, MetricLabels labels, Kind kind);
  [[nodiscard]] static std::int64_t scalar_reading(const Entry& e);

  std::map<Key, Entry> entries_;
};

}  // namespace hpres::obs
