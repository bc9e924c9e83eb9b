#include "obs/metrics.h"

#include <cassert>
#include <fstream>

#include "obs/json.h"

namespace hpres::obs {

template <class M>
MetricsRegistry::Entry& MetricsRegistry::upsert(std::string name,
                                                MetricLabels labels) {
  auto [it, inserted] =
      entries_.try_emplace(Key{std::move(name), std::move(labels)});
  if (inserted) {
    it->second.metric.emplace<M>();
  } else {
    assert(std::holds_alternative<M>(it->second.metric) &&
           "metric re-registered under another kind");
  }
  return it->second;
}

Counter& MetricsRegistry::counter(std::string name, MetricLabels labels) {
  return std::get<Counter>(
      upsert<Counter>(std::move(name), std::move(labels)).metric);
}

Gauge& MetricsRegistry::gauge(std::string name, MetricLabels labels) {
  return std::get<Gauge>(
      upsert<Gauge>(std::move(name), std::move(labels)).metric);
}

LatencyHistogram& MetricsRegistry::histogram(std::string name,
                                             MetricLabels labels) {
  return std::get<LatencyHistogram>(
      upsert<LatencyHistogram>(std::move(name), std::move(labels)).metric);
}

void MetricsRegistry::bind_counter(std::string name, MetricLabels labels,
                                   const std::uint64_t* src) {
  upsert<Counter>(std::move(name), std::move(labels)).reader =
      [src]() { return static_cast<std::int64_t>(*src); };
}

void MetricsRegistry::bind_counter(std::string name, MetricLabels labels,
                                   const std::int64_t* src) {
  upsert<Counter>(std::move(name), std::move(labels)).reader =
      [src]() { return *src; };
}

void MetricsRegistry::bind_counter(std::string name, MetricLabels labels,
                                   const std::uint32_t* src) {
  upsert<Counter>(std::move(name), std::move(labels)).reader =
      [src]() { return static_cast<std::int64_t>(*src); };
}

void MetricsRegistry::bind_gauge(std::string name, MetricLabels labels,
                                 Reader fn) {
  upsert<Gauge>(std::move(name), std::move(labels)).reader = std::move(fn);
}

void MetricsRegistry::bind_gauge(std::string name, MetricLabels labels,
                                 const std::uint64_t* src) {
  upsert<Gauge>(std::move(name), std::move(labels)).reader =
      [src]() { return static_cast<std::int64_t>(*src); };
}

void MetricsRegistry::bind_gauge(std::string name, MetricLabels labels,
                                 const std::int64_t* src) {
  upsert<Gauge>(std::move(name), std::move(labels)).reader =
      [src]() { return *src; };
}

void MetricsRegistry::bind_gauge(std::string name, MetricLabels labels,
                                 const std::uint32_t* src) {
  upsert<Gauge>(std::move(name), std::move(labels)).reader =
      [src]() { return static_cast<std::int64_t>(*src); };
}

void MetricsRegistry::capture() {
  for (auto& [key, e] : entries_) {
    if (e.reader) {
      const std::int64_t v = e.reader();
      if (auto* c = std::get_if<Counter>(&e.metric)) {
        c->set(static_cast<std::uint64_t>(v < 0 ? 0 : v));
      } else {
        std::get<Gauge>(e.metric).set(v);
      }
      e.reader = nullptr;
    }
  }
}

std::int64_t MetricsRegistry::scalar_reading(const Entry& e) {
  if (e.reader) return e.reader();
  if (const auto* c = std::get_if<Counter>(&e.metric)) {
    return static_cast<std::int64_t>(c->value());
  }
  return std::get<Gauge>(e.metric).value();
}

std::optional<std::int64_t> MetricsRegistry::value_of(
    std::string_view name, const MetricLabels& labels) const {
  const auto it = entries_.find(Key{std::string(name), labels});
  if (it == entries_.end() ||
      std::holds_alternative<LatencyHistogram>(it->second.metric)) {
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
    if (const auto* h = std::get_if<LatencyHistogram>(&e.metric)) {
      out += ",\"type\":\"histogram\",\"count\":";
      json::append_u64(out, h->count());
      out += ",\"sum\":";
      json::append_i64(out, h->sum());
      out += ",\"min\":";
      json::append_i64(out, h->min());
      out += ",\"max\":";
      json::append_i64(out, h->max());
      out += ",\"mean\":";
      json::append_fixed(out, h->mean(), 3);
      out += ",\"p50\":";
      json::append_i64(out, h->p50());
      out += ",\"p95\":";
      json::append_i64(out, h->p95());
      out += ",\"p99\":";
      json::append_i64(out, h->p99());
      out += ",\"p999\":";
      json::append_i64(out, h->quantile(0.999));
    } else {
      out += std::holds_alternative<Counter>(e.metric)
                 ? ",\"type\":\"counter\",\"value\":"
                 : ",\"type\":\"gauge\",\"value\":";
      json::append_i64(out, scalar_reading(e));
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
