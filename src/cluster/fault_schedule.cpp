#include "cluster/fault_schedule.h"

#include <algorithm>
#include <cassert>

#include "cluster/placement.h"

namespace hpres::cluster {

void FaultSchedule::add_crash(SimTime at_ns, std::size_t server_index,
                              bool wipe_store) {
  assert(!armed_ && "schedule is frozen once armed");
  assert(server_index < cluster_->num_servers());
  events_.push_back(FaultEvent{at_ns, server_index, false, wipe_store});
}

void FaultSchedule::add_restart(SimTime at_ns, std::size_t server_index) {
  assert(!armed_ && "schedule is frozen once armed");
  assert(server_index < cluster_->num_servers());
  events_.push_back(FaultEvent{at_ns, server_index, true, false});
}

void FaultSchedule::add_slowdown(SimTime at_ns, std::size_t server_index,
                                 double factor) {
  assert(!armed_ && "schedule is frozen once armed");
  assert(server_index < cluster_->num_servers());
  assert(factor >= 1.0);
  events_.push_back(FaultEvent{at_ns, server_index, false, false, factor});
}

void FaultSchedule::add_loss(SimTime at_ns, std::size_t server_index,
                             double probability) {
  assert(!armed_ && "schedule is frozen once armed");
  assert(server_index < cluster_->num_servers());
  assert(probability >= 0.0 && probability <= 1.0);
  events_.push_back(
      FaultEvent{at_ns, server_index, false, false, 0.0, probability});
}

void FaultSchedule::add_join(SimTime at_ns, std::size_t server_index) {
  assert(!armed_ && "schedule is frozen once armed");
  assert(server_index < cluster_->num_servers());
  placement_events_.push_back(PlacementEvent{at_ns, server_index, true});
}

void FaultSchedule::add_leave(SimTime at_ns, std::size_t server_index) {
  assert(!armed_ && "schedule is frozen once armed");
  assert(server_index < cluster_->num_servers());
  placement_events_.push_back(PlacementEvent{at_ns, server_index, false});
}

FaultSchedule::~FaultSchedule() {
  if (armed_) cluster_->runtime().remove_quiesce_hook(hook_id_);
}

void FaultSchedule::arm() {
  assert(!armed_ && "FaultSchedule::arm called twice");
  armed_ = true;
  // Stable sort: same-instant events apply in insertion order, keeping the
  // schedule deterministic.
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at_ns < b.at_ns;
                   });
  // Fault application mutates fabric topology flags, membership, and
  // server state, which every shard reads without locks — so it runs from
  // a quiesce hook, where all shards are parked and windows are capped so
  // no event at or past a due fault runs first.
  hook_id_ = cluster_->runtime().add_quiesce_hook(
      [this](SimTime min_next) { return on_quiesce(min_next); });
  if (!placement_events_.empty()) {
    assert(placement_ != nullptr &&
           "add_join/add_leave require set_placement_manager");
    std::stable_sort(placement_events_.begin(), placement_events_.end(),
                     [](const PlacementEvent& a, const PlacementEvent& b) {
                       return a.at_ns < b.at_ns;
                     });
    // One sequential driver: changes execute one at a time on the
    // coordinator's own event loop, and the manager internally routes its
    // cross-shard mutations through a quiesce hook.
    placement_->coordinator_sim().spawn(placement_driver(this));
  }
}

void FaultSchedule::apply(const FaultEvent& ev, SimTime now) {
  kv::Server& server = cluster_->server(ev.server);
  if (ev.slow > 0.0) {
    // Gray failure: the node answers slowly but is never marked down, so
    // neither fabric fail-fast nor membership-driven degraded reads kick
    // in — only latency-side mechanisms (hedging) can mask it.
    server.set_slowdown(ev.slow);
    if (fault_log_ != nullptr) {
      fault_log_->stamp(now, ev.server,
                        ev.slow > 1.0 ? obs::FaultKind::kSlowdown
                                      : obs::FaultKind::kSlowdownClear);
    }
    ++fired_;
    return;
  }
  if (ev.loss >= 0.0) {
    // Gray-lossy failure: the fabric silently eats a fraction of this
    // node's traffic; membership stays green and peers only see timeouts.
    cluster_->fabric().set_node_loss(static_cast<net::NodeId>(ev.server),
                                     ev.loss);
    if (fault_log_ != nullptr) {
      fault_log_->stamp(now, ev.server,
                        ev.loss > 0.0 ? obs::FaultKind::kLoss
                                      : obs::FaultKind::kLossClear);
    }
    ++fired_;
    return;
  }
  if (ev.restart) {
    // The node is reachable again immediately; the membership oracle
    // re-admits it only after the detection lag.
    server.recover();
  } else {
    // Fabric and server die now: queued deliveries to the node are
    // dropped, in-flight callers resolve via their RPC deadlines.
    server.fail();
    if (ev.wipe) server.store().clear();
    // Crash injection is one of the flight recorder's automatic dump
    // triggers: snapshot every ring's window as of the crash instant. The
    // kDump marker goes to the crashed node's own shard domain; the file
    // itself is written by the parent recorder after folding every shard
    // domain in, so the dump sees the whole cluster's freshest window.
    if (obs::FlightRecorder* const flight = cluster_->flight_recorder();
        flight != nullptr) {
      obs::FlightRecorder* const fl =
          cluster_->sinks_of(static_cast<net::NodeId>(ev.server)).flight;
      fl->record(now, ev.server, obs::FlightEventType::kDump,
                 flight->dumps_written());
      cluster_->merge_obs_domains();
      flight->dump_to_file("crash", now);
    }
  }
  if (fault_log_ != nullptr) {
    fault_log_->stamp(now, ev.server,
                      ev.restart ? obs::FaultKind::kRestart
                                 : obs::FaultKind::kCrash);
  }
  ++fired_;
  if (detection_lag_ns_ <= 0) {
    cluster_->membership().set_up(ev.server, ev.restart);
  } else {
    detects_.push_back(
        PendingDetect{now + detection_lag_ns_, ev.server, ev.restart});
  }
}

SimTime FaultSchedule::on_quiesce(SimTime min_next) {
  constexpr SimTime kNever = sim::Simulator::kNever;
  // Events scheduled before the hook could first observe them (e.g. armed
  // with past due times) apply at the current quiesced instant: already
  // late, fire now.
  const SimTime floor = cluster_->now_quiesced();
  for (;;) {
    // Earliest pending action: the next schedule event or a lagged
    // membership flip. Fault events win ties (a flip queued by a crash in
    // this very call keeps its lag ordering naturally).
    SimTime due = idx_ < events_.size() ? events_[idx_].at_ns : kNever;
    std::size_t flip = detects_.size();
    for (std::size_t i = 0; i < detects_.size(); ++i) {
      if (detects_[i].at_ns < due) {
        due = detects_[i].at_ns;
        flip = i;
      }
    }
    if (due == kNever) return kNever;
    if (min_next != kNever && due > min_next) return due;
    const SimTime stamp = std::max(due, floor);
    if (flip < detects_.size()) {
      cluster_->membership().set_up(detects_[flip].server, detects_[flip].up);
      detects_.erase(detects_.begin() +
                     static_cast<std::ptrdiff_t>(flip));
    } else {
      apply(events_[idx_], stamp);
      ++idx_;
    }
  }
}

sim::Task<void> FaultSchedule::placement_driver(FaultSchedule* self) {
  sim::Simulator& sim = self->placement_->coordinator_sim();
  for (const PlacementEvent& ev : self->placement_events_) {
    const SimTime now = sim.now();
    if (ev.at_ns > now) co_await sim.delay(ev.at_ns - now);
    Status applied;
    if (ev.join) {
      applied = co_await self->placement_->join(ev.server);
    } else {
      applied = co_await self->placement_->leave(ev.server);
    }
    if (applied.ok()) ++self->fired_;
  }
}

}  // namespace hpres::cluster
