#include "cluster/cluster.h"

#include <cassert>
#include <string>

namespace hpres::cluster {

std::size_t Cluster::effective_shards(const ClusterConfig& config) {
  const std::size_t nodes = config.num_servers + config.num_clients;
  std::size_t shards = config.shards == 0 ? 1 : config.shards;
  if (shards > nodes && nodes > 0) shards = nodes;
  return shards;
}

std::vector<std::uint32_t> Cluster::shard_map(const ClusterConfig& config) {
  const std::size_t shards = effective_shards(config);
  std::vector<std::uint32_t> map;
  map.reserve(config.num_servers + config.num_clients);
  for (std::size_t i = 0; i < config.num_servers; ++i) {
    map.push_back(static_cast<std::uint32_t>(i % shards));
  }
  for (std::size_t i = 0; i < config.num_clients; ++i) {
    map.push_back(static_cast<std::uint32_t>(i % shards));
  }
  return map;
}

Cluster::Cluster(ClusterConfig config)
    : config_(config),
      // Lookahead = wire latency: a cross-shard message's first bit cannot
      // reach its destination sooner than one latency after the send.
      runtime_(effective_shards(config), config.fabric.latency_ns),
      sinks_(runtime_.num_shards()),
      fabric_(runtime_, config.fabric, shard_map(config), sinks_),
      ring_(config.num_servers, config.initial_active_servers),
      membership_(config.num_servers) {
  servers_.reserve(config.num_servers);
  server_nodes_.reserve(config.num_servers);
  for (std::size_t i = 0; i < config.num_servers; ++i) {
    const auto node = static_cast<net::NodeId>(i);
    server_nodes_.push_back(node);
    servers_.push_back(std::make_unique<kv::Server>(
        fabric_.sim_of(node), fabric_, node, config.server));
  }
  clients_.reserve(config.num_clients);
  for (std::size_t i = 0; i < config.num_clients; ++i) {
    const auto node = static_cast<net::NodeId>(config.num_servers + i);
    clients_.push_back(std::make_unique<kv::Client>(
        fabric_.sim_of(node), fabric_, node));
  }
}

Cluster::~Cluster() { merge_obs_domains(); }

void Cluster::set_tracer(obs::Tracer* tracer, std::uint32_t pid) {
  tracer_ = tracer;
  shard_tracers_.clear();
  const bool per_shard =
      tracer != nullptr && tracer->enabled() && runtime_.parallel();
  for (std::size_t s = 0; s < sinks_.size(); ++s) {
    if (per_shard) {
      auto domain = std::make_unique<obs::Tracer>(true);
      // Shard-disjoint id spaces: residue class s mod n, so ids allocated
      // concurrently on different shards can never collide.
      domain->set_id_space(s, sinks_.size());
      shard_tracers_.push_back(std::move(domain));
    }
    sinks_[s].tracer = per_shard ? shard_tracers_[s].get() : tracer;
    sinks_[s].trace_pid = pid;
  }
}

void Cluster::set_health_signals(obs::HealthSignals* signals) {
  shard_signals_.clear();
  const bool per_shard = signals != nullptr && runtime_.parallel();
  for (std::size_t s = 0; s < sinks_.size(); ++s) {
    if (per_shard) {
      shard_signals_.push_back(
          std::make_unique<obs::HealthSignals>(signals->num_nodes()));
    }
    sinks_[s].health = per_shard ? shard_signals_[s].get() : signals;
  }
}

void Cluster::merge_obs_domains() {
  if (tracer_ != nullptr) {
    for (const auto& domain : shard_tracers_) tracer_->absorb(*domain);
  }
  if (flight_ != nullptr) {
    for (const auto& domain : shard_flights_) flight_->absorb(*domain);
  }
}

void Cluster::enable_server_ec(const ec::Codec& codec, ec::CostModel cost,
                               bool materialize) {
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    kv::ServerEcContext ctx;
    ctx.codec = &codec;
    ctx.cost = cost;
    ctx.ring = &ring_;
    ctx.membership = &membership_;
    ctx.server_nodes = &server_nodes_;
    ctx.my_index = i;
    ctx.materialize = materialize;
    servers_[i]->enable_ec(std::move(ctx));
  }
}

void Cluster::register_metrics(obs::MetricsRegistry& reg,
                               const std::string& op_label) const {
  fabric_.stats().register_with(reg, "fabric", op_label);
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    servers_[i]->store().stats().register_with(
        reg, "server" + std::to_string(i), op_label);
  }
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    clients_[i]->rpc_stats().register_with(reg, "client" + std::to_string(i),
                                           op_label);
  }
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    servers_[i]->rpc_stats().register_with(reg, "server" + std::to_string(i),
                                           op_label);
  }
}

void Cluster::set_flight_recorder(obs::FlightRecorder* flight) {
  flight_ = flight;
  shard_flights_.clear();
  const std::size_t nodes = servers_.size() + clients_.size();
  const auto label_nodes = [&](obs::FlightRecorder& rec) {
    rec.ensure_nodes(nodes);
    for (std::size_t i = 0; i < servers_.size(); ++i) {
      rec.set_node_label(i, "server" + std::to_string(i));
    }
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      rec.set_node_label(servers_.size() + i, "client" + std::to_string(i));
    }
  };
  if (flight != nullptr) label_nodes(*flight);
  const bool per_shard = flight != nullptr && runtime_.parallel();
  for (std::size_t s = 0; s < sinks_.size(); ++s) {
    if (per_shard) {
      // One single-writer domain per shard, each with rings for every node
      // and the parent's retention budget; merged into `flight` (newest
      // ring_size records win) at quiescence or on a mid-run dump.
      auto domain = std::make_unique<obs::FlightRecorder>(flight->ring_size());
      label_nodes(*domain);
      shard_flights_.push_back(std::move(domain));
    }
    sinks_[s].flight = per_shard ? shard_flights_[s].get() : flight;
  }
}

void Cluster::set_placement_view(const kv::PlacementView* view) {
  for (const auto& c : clients_) c->set_placement_view(view);
}

void Cluster::set_rpc_policy(const kv::RpcPolicy& policy) {
  for (const auto& s : servers_) s->set_policy(policy);
  for (const auto& c : clients_) c->set_policy(policy);
}

void Cluster::fail_server(std::size_t index) {
  servers_.at(index)->fail();
  membership_.set_up(index, false);
}

void Cluster::recover_server(std::size_t index) {
  servers_.at(index)->recover();
  membership_.set_up(index, true);
}

void Cluster::start() {
  assert(!started_ && "Cluster::start called twice");
  started_ = true;
  for (const auto& s : servers_) s->start();
  for (const auto& c : clients_) c->start();
}

std::uint64_t Cluster::total_bytes_used() const {
  std::uint64_t total = 0;
  for (const auto& s : servers_) total += s->store().bytes_used();
  return total;
}

std::uint64_t Cluster::total_evicted_bytes() const {
  std::uint64_t total = 0;
  for (const auto& s : servers_) total += s->store().stats().evicted_bytes;
  return total;
}

std::uint64_t Cluster::total_capacity() const {
  std::uint64_t total = 0;
  for (const auto& s : servers_) total += s->store().capacity();
  return total;
}

}  // namespace hpres::cluster
