#include "obs/prometheus.h"

#include <cctype>
#include <cstdio>
#include <fstream>

namespace hpres::obs {
namespace {

void append_label_value(std::string& out, std::string_view v) {
  for (const char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c); break;
    }
  }
}

/// {component="...",node="...",op="..."} with empty labels omitted; extra
/// appends e.g. quantile="0.99".
void append_labels(std::string& out, const MetricLabels& labels,
                   std::string_view extra_key = {},
                   std::string_view extra_value = {}) {
  std::string body;
  const auto add = [&body](std::string_view k, std::string_view v) {
    if (v.empty()) return;
    if (!body.empty()) body += ",";
    body += k;
    body += "=\"";
    append_label_value(body, v);
    body += "\"";
  };
  add("component", labels.component);
  add("node", labels.node);
  add("op", labels.op);
  if (!extra_key.empty()) add(extra_key, extra_value);
  if (body.empty()) return;
  out += "{";
  out += body;
  out += "}";
}

void append_i64_line(std::string& out, const std::string& name,
                     const MetricLabels& labels, std::int64_t v,
                     std::string_view extra_key = {},
                     std::string_view extra_value = {},
                     std::string_view suffix = {}) {
  out += name;
  out += suffix;
  append_labels(out, labels, extra_key, extra_value);
  out += " ";
  out += std::to_string(v);
  out += "\n";
}

}  // namespace

std::string prometheus_name(std::string_view name) {
  std::string out = "hpres_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string MetricsRegistry::to_prometheus() const {
  std::string out;
  out.reserve(entries_.size() * 160 + 64);
  std::string last_typed;  // one # TYPE line per metric name (map order
                           // groups equal names together)
  for (const auto& [key, e] : entries_) {
    const std::string name = prometheus_name(key.name);
    const char* type = e.kind == Kind::kCounter   ? "counter"
                       : e.kind == Kind::kGauge   ? "gauge"
                                                  : "summary";
    if (name != last_typed) {
      out += "# TYPE ";
      out += name;
      out += " ";
      out += type;
      out += "\n";
      last_typed = name;
    }
    switch (e.kind) {
      case Kind::kCounter:
      case Kind::kGauge:
        append_i64_line(out, name, key.labels, scalar_reading(e));
        break;
      case Kind::kHistogram: {
        const LatencyHistogram& h = e.hist;
        append_i64_line(out, name, key.labels, h.p50(), "quantile", "0.5");
        append_i64_line(out, name, key.labels, h.p95(), "quantile", "0.95");
        append_i64_line(out, name, key.labels, h.p99(), "quantile", "0.99");
        append_i64_line(out, name, key.labels, h.quantile(0.999), "quantile",
                        "0.999");
        append_i64_line(out, name, key.labels, h.sum(), {}, {}, "_sum");
        append_i64_line(out, name, key.labels,
                        static_cast<std::int64_t>(h.count()), {}, {},
                        "_count");
        break;
      }
    }
  }
  return out;
}

bool write_prometheus(const MetricsRegistry& reg, const std::string& path) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  const std::string body = reg.to_prometheus();
  f.write(body.data(), static_cast<std::streamsize>(body.size()));
  return f.good();
}

}  // namespace hpres::obs
