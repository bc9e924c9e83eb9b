#include "obs/metrics.h"

#include <fstream>
#include <limits>

#include "obs/json.h"

namespace hpres::obs {

MetricsRegistry::Entry& MetricsRegistry::upsert(std::string name,
                                                MetricLabels labels,
                                                Kind kind) {
  Entry& e = entries_[Key{std::move(name), std::move(labels)}];
  e.kind = kind;
  return e;
}

Counter& MetricsRegistry::counter(std::string name, MetricLabels labels) {
  return upsert(std::move(name), std::move(labels), Kind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(std::string name, MetricLabels labels) {
  return upsert(std::move(name), std::move(labels), Kind::kGauge).gauge;
}

LatencyHistogram& MetricsRegistry::histogram(std::string name,
                                             MetricLabels labels) {
  return upsert(std::move(name), std::move(labels), Kind::kHistogram).hist;
}

void MetricsRegistry::bind_counter(std::string name, MetricLabels labels,
                                   const std::uint64_t* src) {
  upsert(std::move(name), std::move(labels), Kind::kCounter).reader =
      [src]() { return static_cast<std::int64_t>(*src); };
}

void MetricsRegistry::bind_counter(std::string name, MetricLabels labels,
                                   const std::int64_t* src) {
  upsert(std::move(name), std::move(labels), Kind::kCounter).reader =
      [src]() { return *src; };
}

void MetricsRegistry::bind_counter(std::string name, MetricLabels labels,
                                   const std::uint32_t* src) {
  upsert(std::move(name), std::move(labels), Kind::kCounter).reader =
      [src]() { return static_cast<std::int64_t>(*src); };
}

void MetricsRegistry::bind_gauge(std::string name, MetricLabels labels,
                                 Reader fn) {
  upsert(std::move(name), std::move(labels), Kind::kGauge).reader =
      std::move(fn);
}

void MetricsRegistry::bind_gauge(std::string name, MetricLabels labels,
                                 const std::uint64_t* src) {
  upsert(std::move(name), std::move(labels), Kind::kGauge).reader =
      [src]() { return static_cast<std::int64_t>(*src); };
}

void MetricsRegistry::bind_gauge(std::string name, MetricLabels labels,
                                 const std::int64_t* src) {
  upsert(std::move(name), std::move(labels), Kind::kGauge).reader =
      [src]() { return *src; };
}

void MetricsRegistry::bind_gauge(std::string name, MetricLabels labels,
                                 const std::uint32_t* src) {
  upsert(std::move(name), std::move(labels), Kind::kGauge).reader =
      [src]() { return static_cast<std::int64_t>(*src); };
}

void MetricsRegistry::capture() {
  for (auto& [key, e] : entries_) {
    if (e.reader) {
      const std::int64_t v = e.reader();
      if (e.kind == Kind::kCounter) {
        e.counter.set(static_cast<std::uint64_t>(v < 0 ? 0 : v));
      } else {
        e.gauge.set(v);
      }
      e.reader = nullptr;
    }
  }
}

std::int64_t MetricsRegistry::scalar_reading(const Entry& e) {
  if (e.reader) return e.reader();
  return e.kind == Kind::kCounter
             ? static_cast<std::int64_t>(e.counter.value())
             : e.gauge.value();
}

std::optional<std::int64_t> MetricsRegistry::value_of(
    std::string_view name, const MetricLabels& labels) const {
  const auto it = entries_.find(Key{std::string(name), labels});
  if (it == entries_.end() || it->second.kind == Kind::kHistogram) {
    return std::nullopt;
  }
  return scalar_reading(it->second);
}

std::string MetricsRegistry::to_json() const {
  std::string out;
  out.reserve(entries_.size() * 128 + 64);
  out += "{\"schema\":\"hpres-metrics-v1\",\"metrics\":[\n";
  bool first = true;
  for (const auto& [key, e] : entries_) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":";
    json::append_string(out, key.name);
    out += ",\"component\":";
    json::append_string(out, key.labels.component);
    out += ",\"node\":";
    json::append_string(out, key.labels.node);
    out += ",\"op\":";
    json::append_string(out, key.labels.op);
    switch (e.kind) {
      case Kind::kCounter:
        out += ",\"type\":\"counter\",\"value\":";
        json::append_i64(out, scalar_reading(e));
        break;
      case Kind::kGauge:
        out += ",\"type\":\"gauge\",\"value\":";
        json::append_i64(out, scalar_reading(e));
        break;
      case Kind::kHistogram: {
        const LatencyHistogram& h = e.hist;
        out += ",\"type\":\"histogram\",\"count\":";
        json::append_u64(out, h.count());
        out += ",\"sum\":";
        json::append_i64(out, h.sum());
        out += ",\"min\":";
        json::append_i64(out, h.min());
        out += ",\"max\":";
        json::append_i64(out, h.max());
        out += ",\"mean\":";
        json::append_fixed(out, h.mean(), 3);
        out += ",\"p50\":";
        json::append_i64(out, h.p50());
        out += ",\"p95\":";
        json::append_i64(out, h.p95());
        out += ",\"p99\":";
        json::append_i64(out, h.p99());
        break;
      }
    }
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

bool MetricsRegistry::write_json(const std::string& path) const {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  const std::string body = to_json();
  f.write(body.data(), static_cast<std::streamsize>(body.size()));
  return f.good();
}

}  // namespace hpres::obs
