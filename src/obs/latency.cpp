#include "obs/latency.h"

#include <algorithm>

namespace hpres::obs {
namespace {

// Min-heap comparator on (latency, trace_id): the fastest kept op sits at
// the root and is evicted first. Including the id makes eviction order a
// pure function of the recorded stream even with equal latencies.
constexpr auto kHeapGreater = [](const std::pair<SimDur, std::uint64_t>& a,
                                 const std::pair<SimDur, std::uint64_t>& b) {
  return a > b;
};

}  // namespace

void LatencyRecorder::record(std::string_view op, std::string_view scheme,
                             bool degraded, SimDur latency_ns,
                             std::uint64_t trace_id) {
  LatencyKey key{std::string(op), std::string(scheme), degraded};
  Series& s = series_[std::move(key)];
  s.hist.record(latency_ns);
  if (trace_id != 0) keep_tail(s, latency_ns, trace_id);
}

void LatencyRecorder::keep_tail(Series& s, SimDur latency_ns,
                                std::uint64_t trace_id) {
  if (tail_.threshold_ns > 0 && latency_ns >= tail_.threshold_ns &&
      s.over_threshold.size() < kMaxThresholdKept) {
    s.over_threshold.push_back(trace_id);
  }
  if (tail_.keep_slowest == 0) return;
  if (s.slowest.size() < tail_.keep_slowest) {
    s.slowest.emplace_back(latency_ns, trace_id);
    std::push_heap(s.slowest.begin(), s.slowest.end(), kHeapGreater);
    return;
  }
  if (std::pair{latency_ns, trace_id} <= s.slowest.front()) return;
  std::pop_heap(s.slowest.begin(), s.slowest.end(), kHeapGreater);
  s.slowest.back() = {latency_ns, trace_id};
  std::push_heap(s.slowest.begin(), s.slowest.end(), kHeapGreater);
}

const LatencyHistogram* LatencyRecorder::histogram(
    const LatencyKey& key) const {
  const auto it = series_.find(key);
  return it == series_.end() ? nullptr : &it->second.hist;
}

std::vector<LatencyRow> LatencyRecorder::rows() const {
  std::vector<LatencyRow> out;
  out.reserve(series_.size());
  for (const auto& [key, s] : series_) {
    LatencyRow row;
    row.key = key;
    row.count = s.hist.count();
    row.sum_ns = s.hist.sum();
    row.mean_ns = s.hist.mean();
    row.p50_ns = s.hist.p50();
    row.p95_ns = s.hist.p95();
    row.p99_ns = s.hist.p99();
    row.p999_ns = s.hist.quantile(0.999);
    row.max_ns = s.hist.max();
    out.push_back(std::move(row));
  }
  return out;
}

std::unordered_set<std::uint64_t> LatencyRecorder::kept_traces() const {
  std::unordered_set<std::uint64_t> out;
  for (const auto& [key, s] : series_) {
    for (const auto& [lat, id] : s.slowest) out.insert(id);
    out.insert(s.over_threshold.begin(), s.over_threshold.end());
  }
  return out;
}

std::size_t LatencyRecorder::kept_count(const LatencyKey& key) const {
  const auto it = series_.find(key);
  if (it == series_.end()) return 0;
  return it->second.slowest.size() + it->second.over_threshold.size();
}

void LatencyRecorder::merge(const LatencyRecorder& other) {
  for (const auto& [key, src] : other.series_) {
    Series& dst = series_[key];
    dst.hist.merge(src.hist);
    for (const auto& [lat, id] : src.slowest) keep_tail(dst, lat, id);
    for (const std::uint64_t id : src.over_threshold) {
      if (dst.over_threshold.size() < kMaxThresholdKept) {
        dst.over_threshold.push_back(id);
      }
    }
  }
}

}  // namespace hpres::obs
