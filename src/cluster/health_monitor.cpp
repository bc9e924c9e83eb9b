#include "cluster/health_monitor.h"

namespace hpres::cluster {

HealthMonitor::HealthMonitor(Cluster& cluster)
    : cluster_(&cluster),
      signals_(cluster.num_servers()),
      detector_(cluster.num_servers()),
      samples_(cluster.num_servers()) {}

HealthMonitor::~HealthMonitor() {
  if (armed_) cluster_->runtime().remove_quiesce_hook(hook_id_);
}

void HealthMonitor::arm() {
  if (armed_) return;
  armed_ = true;
  cluster_->set_health_signals(&signals_);
  // Every shard thread is parked when the hook fires, so sampling queue
  // depths, membership and the per-shard signal domains is race-free, and
  // capping windows at the next boundary keeps tick times exact.
  next_tick_ = cluster_->now_quiesced() + kIntervalNs;
  hook_id_ = cluster_->runtime().add_quiesce_hook(
      [this](SimTime min_next) { return on_quiesce(min_next); });
}

void HealthMonitor::request_stop() {
  if (!armed_ || stop_) return;
  // Final tick so symptoms in the last partial window are never dropped.
  tick_at(cluster_->now_quiesced());
  stop_ = true;
}

void HealthMonitor::register_gauges(obs::MetricsRegistry& reg,
                                    const std::string& op_label) {
  score_gauges_.clear();
  state_gauges_.clear();
  for (std::size_t i = 0; i < cluster_->num_servers(); ++i) {
    const obs::MetricLabels labels{"health", "server" + std::to_string(i),
                                   op_label};
    score_gauges_.push_back(&reg.gauge("health.score_x1000", labels));
    state_gauges_.push_back(&reg.gauge("health.node_state", labels));
    score_gauges_.back()->set(1000);  // neutral score until the first tick
  }
}

void HealthMonitor::tick_at(SimTime now) {
  std::uint64_t window_timeouts = 0;
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    obs::HealthSample& s = samples_[i];
    // A node's window is the sum over every live signal domain (exactly one
    // in oracle mode; one per shard in parallel runs, where a node's own
    // shard records its rpc symptoms but any sender's shard may record a
    // fabric drop against it).
    s.window = {};
    for (const obs::Sinks& sinks : cluster_->sinks()) {
      if (sinks.health != nullptr) s.window += sinks.health->take_window(i);
    }
    s.queue_depth = cluster_->server(i).queue_depth();
    s.up = cluster_->membership().up(i);
    window_timeouts += s.window.timeouts;
    obs::FlightRecorder* const fl =
        cluster_->sinks_of(static_cast<net::NodeId>(i)).flight;
    if (fl != nullptr) {
      fl->record(now, i, obs::FlightEventType::kQueueDepth, s.queue_depth,
                 static_cast<std::uint32_t>(s.window.responses));
    }
  }
  detector_.tick(now, samples_);

  // Mirror new transitions into the flight recorder and the gauges.
  const auto& transitions = detector_.transitions();
  for (; seen_transitions_ < transitions.size(); ++seen_transitions_) {
    const obs::HealthTransition& tr = transitions[seen_transitions_];
    obs::FlightRecorder* const fl =
        cluster_->sinks_of(static_cast<net::NodeId>(tr.node)).flight;
    if (fl != nullptr) {
      fl->record(tr.t_ns, tr.node, obs::FlightEventType::kHealthState,
                 static_cast<std::uint64_t>(tr.to),
                 static_cast<std::uint32_t>(tr.from));
    }
  }
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    if (i < score_gauges_.size()) {
      score_gauges_[i]->set(
          static_cast<std::int64_t>(detector_.score(i) * 1000.0));
      state_gauges_[i]->set(static_cast<std::int64_t>(detector_.state(i)));
    }
  }

  // A cluster-wide burst of deadline expiries in one window is the second
  // automatic dump trigger (after crash injection): snapshot the freshest
  // ring window while the symptoms are still in it. The dump always comes
  // from the parent recorder, after folding in the per-shard domains.
  obs::FlightRecorder* const flight = cluster_->flight_recorder();
  if (flight != nullptr && window_timeouts >= kTimeoutBurst) {
    cluster_->merge_obs_domains();
    flight->record(now, 0, obs::FlightEventType::kDump,
                   flight->dumps_written());
    if (flight->dump_to_file("timeout-burst", now)) ++burst_dumps_;
  }
}

SimTime HealthMonitor::on_quiesce(SimTime min_next) {
  if (stop_) return sim::Simulator::kNever;
  while (min_next != sim::Simulator::kNever && next_tick_ <= min_next) {
    tick_at(next_tick_);
    next_tick_ += kIntervalNs;
  }
  // At full quiescence (min_next == kNever) nothing is pending: the final
  // partial window is covered by the request_stop() tick.
  return min_next == sim::Simulator::kNever ? sim::Simulator::kNever
                                            : next_tick_;
}

}  // namespace hpres::cluster
