#include "obs/critical_path.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace hpres::obs {
namespace {

// Higher wins the coverage sweep. kOther (the root itself) must be lowest so
// any tagged child refines it; compute phases are highest so overlap with
// their enclosing windows attributes to the concrete work.
constexpr std::array<int, kPhaseCount> kPriority = {
    /*kSerialize=*/7, /*kEncode=*/9, /*kDecode=*/8,
    /*kQueue=*/6,     /*kFanout=*/5, /*kNet=*/4,
    /*kServer=*/3,    /*kWaitK=*/2,  /*kOther=*/0,
};

[[nodiscard]] int priority(Phase p) noexcept {
  return kPriority[static_cast<std::size_t>(p)];
}

[[nodiscard]] bool is_engine_root(const TraceSpan& s) noexcept {
  return s.cat == "engine" &&
         (s.name == "set" || s.name == "get" || s.name == "del");
}

[[nodiscard]] bool ends_with(std::string_view s, std::string_view suf) {
  return s.size() >= suf.size() &&
         s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

/// `client_nic_tid` distinguishes the op's own outbound NIC slot (fan-out)
/// from every other NIC's activity (net transfer).
[[nodiscard]] Phase classify(const TraceSpan& s,
                             std::uint64_t client_nic_tid) noexcept {
  const std::string_view name = s.name;
  if (name == "set/encode" || name == "server/encode") return Phase::kEncode;
  if (name == "get/decode" || name == "server/decode") return Phase::kDecode;
  // Issue CPU: request posts, the packed Set's stripe append and the
  // packed Get's locator posts.
  if (ends_with(name, "/request") || name == "set/append" ||
      name == "get/locator") {
    return Phase::kSerialize;
  }
  if (name == "fabric/txq" || name == "fabric/rxq" || name == "server/queue") {
    return Phase::kQueue;
  }
  if (name == "fabric/send") {
    return s.tid == client_nic_tid ? Phase::kFanout : Phase::kNet;
  }
  if (name == "fabric/recv" || name == "fabric/wire") return Phase::kNet;
  if (name == "server/handle") return Phase::kServer;
  if (name == "set/fanout" || name == "get/fetch" || name == "rpc/timeout") {
    return Phase::kWaitK;
  }
  return Phase::kOther;
}

struct Interval {
  SimTime begin;
  SimTime end;
  std::uint64_t trace;
};

/// Comm coverage of [a, b) by intervals of other traces; `comm` is sorted by
/// begin and `prefix_max_end[i]` = max end over comm[0..i].
[[nodiscard]] SimDur covered_by_others(const std::vector<Interval>& comm,
                                       const std::vector<SimTime>& prefix_max,
                                       SimTime a, SimTime b,
                                       std::uint64_t own_trace) {
  if (comm.empty() || a >= b) return 0;
  // Candidates: begin < b (binary search) and end > a (prefix-max prune on
  // the backward scan).
  const auto lo = std::partition_point(
      comm.begin(), comm.end(), [&](const Interval& iv) { return iv.begin < b; });
  std::vector<std::pair<SimTime, SimTime>> segs;
  for (auto idx = static_cast<std::ptrdiff_t>(lo - comm.begin()) - 1; idx >= 0;
       --idx) {
    if (prefix_max[static_cast<std::size_t>(idx)] <= a) break;
    const Interval& iv = comm[static_cast<std::size_t>(idx)];
    if (iv.end <= a || iv.trace == own_trace) continue;
    segs.emplace_back(std::max(iv.begin, a), std::min(iv.end, b));
  }
  if (segs.empty()) return 0;
  std::sort(segs.begin(), segs.end());
  SimDur covered = 0;
  SimTime cur = segs.front().first;
  SimTime cur_end = segs.front().second;
  for (std::size_t i = 1; i < segs.size(); ++i) {
    if (segs[i].first > cur_end) {
      covered += cur_end - cur;
      cur = segs[i].first;
      cur_end = segs[i].second;
    } else {
      cur_end = std::max(cur_end, segs[i].second);
    }
  }
  covered += cur_end - cur;
  return covered;
}

}  // namespace

std::string_view to_string(Phase p) noexcept {
  switch (p) {
    case Phase::kSerialize: return "serialize";
    case Phase::kEncode: return "encode";
    case Phase::kDecode: return "decode";
    case Phase::kQueue: return "queue";
    case Phase::kFanout: return "fanout";
    case Phase::kNet: return "net";
    case Phase::kServer: return "server";
    case Phase::kWaitK: return "wait_k";
    case Phase::kOther: return "other";
  }
  return "?";
}

CriticalPathAnalysis analyze_critical_path(
    const std::vector<TraceSpan>& spans) {
  CriticalPathAnalysis out;
  out.spans_seen = spans.size();

  std::map<std::uint64_t, std::vector<const TraceSpan*>> by_trace;
  for (const TraceSpan& s : spans) by_trace[s.trace_id].push_back(&s);

  // Global communication intervals (fabric activity of every trace), for the
  // decode-exposure overlap query.
  std::vector<Interval> comm;
  for (const TraceSpan& s : spans) {
    if (s.name == "fabric/send" || s.name == "fabric/recv" ||
        s.name == "fabric/wire") {
      comm.push_back(Interval{s.begin_ns, s.begin_ns + s.dur_ns, s.trace_id});
    }
  }
  std::sort(comm.begin(), comm.end(), [](const Interval& a, const Interval& b) {
    return a.begin < b.begin;
  });
  std::vector<SimTime> prefix_max(comm.size());
  SimTime running = 0;
  for (std::size_t i = 0; i < comm.size(); ++i) {
    running = std::max(running, comm[i].end);
    prefix_max[i] = running;
  }

  for (const auto& [trace_id, trace_spans] : by_trace) {
    // Every engine op opens its own trace with one root span.
    const auto root_it =
        std::find_if(trace_spans.begin(), trace_spans.end(),
                     [](const TraceSpan* s) { return is_engine_root(*s); });
    const TraceSpan* const root =
        root_it == trace_spans.end() ? nullptr : *root_it;
    if (root == nullptr) {
      ++out.traces_without_root;
      continue;
    }
    const SimTime t0 = root->begin_ns;
    const SimTime t1 = root->begin_ns + root->dur_ns;
    const std::uint64_t client_nic =
        Tracer::kNicTidBase + root->tid / Tracer::kLanesPerNode;

    // Clip the trace's spans to the op interval and classify.
    struct Active {
      SimTime begin;
      SimTime end;
      Phase phase;
    };
    std::vector<Active> active;
    std::vector<SimTime> bounds{t0, t1};
    for (const TraceSpan* s : trace_spans) {
      if (s == root) continue;
      const SimTime b = std::max(s->begin_ns, t0);
      const SimTime e = std::min(s->begin_ns + s->dur_ns, t1);
      if (b >= e) continue;
      active.push_back(Active{b, e, classify(*s, client_nic)});
      bounds.push_back(b);
      bounds.push_back(e);
    }
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

    OpAttribution op;
    op.trace_id = trace_id;
    op.op = root->name;
    op.begin_ns = t0;
    op.total_ns = root->dur_ns;

    std::vector<std::pair<SimTime, SimTime>> decode_intervals;
    for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
      const SimTime a = bounds[i];
      const SimTime b = bounds[i + 1];
      Phase best = Phase::kOther;  // the root always covers the segment
      for (const Active& sp : active) {
        if (sp.begin <= a && sp.end >= b &&
            priority(sp.phase) > priority(best)) {
          best = sp.phase;
        }
      }
      op.phase_ns[static_cast<std::size_t>(best)] += b - a;
      if (best == Phase::kDecode) {
        if (!decode_intervals.empty() && decode_intervals.back().second == a) {
          decode_intervals.back().second = b;  // coalesce adjacent segments
        } else {
          decode_intervals.emplace_back(a, b);
        }
      }
    }

    for (const auto& [a, b] : decode_intervals) {
      op.decode_ns += b - a;
      const SimDur hidden = covered_by_others(comm, prefix_max, a, b, trace_id);
      op.decode_exposed_ns += (b - a) - hidden;
    }
    out.ops.push_back(std::move(op));
  }
  return out;
}

std::vector<const OpAttribution*> slowest_fraction(
    const std::vector<OpAttribution>& ops, double frac) {
  if (ops.empty()) return {};
  std::vector<const OpAttribution*> ptrs;
  ptrs.reserve(ops.size());
  for (const OpAttribution& op : ops) ptrs.push_back(&op);
  std::sort(ptrs.begin(), ptrs.end(),
            [](const OpAttribution* a, const OpAttribution* b) {
              if (a->total_ns != b->total_ns) return a->total_ns > b->total_ns;
              return a->trace_id < b->trace_id;
            });
  const auto want = static_cast<std::size_t>(
      std::ceil(frac * static_cast<double>(ops.size())));
  ptrs.resize(std::max<std::size_t>(1, std::min(want, ptrs.size())));
  return ptrs;
}

}  // namespace hpres::obs
