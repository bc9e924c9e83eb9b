#include "resilience/hybrid.h"

namespace hpres::resilience {

HybridEngine::HybridEngine(EngineContext ctx, const ec::Codec& codec,
                           ec::CostModel cost, std::uint32_t rep_factor,
                           std::size_t threshold_bytes, Design design,
                           ArpeParams arpe)
    : Engine(ctx, arpe),
      replication_(ctx, Design::kAsyncRep, rep_factor, arpe),
      erasure_(ctx, codec, cost, design, arpe),
      threshold_bytes_(threshold_bytes) {
  // Sub-engine ops run nested under this engine's op: they share one lane
  // pool (no Perfetto lane collisions between concurrent parent and child
  // spans) and skip the LatencyRecorder — the hybrid op records once.
  replication_.use_lane_pool(&lane_pool());
  erasure_.use_lane_pool(&lane_pool());
}

sim::Task<Status> HybridEngine::do_set(kv::Key key, SharedBytes value,
                                       OpContext* op) {
  // Sub-engines keep their own phase accounting; the nested call runs
  // inside this op and ORs its degraded flag back into it.
  const std::size_t size = value ? value->size() : 0;
  if (size < threshold_bytes_) {
    co_return co_await replication_.set_nested(std::move(key),
                                               std::move(value), *op);
  }
  co_return co_await erasure_.set_nested(std::move(key), std::move(value),
                                         *op);
}

sim::Task<Result<Bytes>> HybridEngine::do_get(kv::Key key, OpContext* op) {
  // Probe the replication path first: for below-threshold values this is
  // the single-round-trip hit; for large values it is a cheap miss.
  Result<Bytes> replicated = co_await replication_.get_nested(key, *op);
  if (replicated.ok() ||
      replicated.status().code() != StatusCode::kNotFound) {
    co_return replicated;
  }
  co_return co_await erasure_.get_nested(std::move(key), *op);
}

sim::Task<Status> HybridEngine::do_del(kv::Key key,
                                       const kv::HashRing& ring) {
  const Status rep = co_await replication_.del_nested(key, ring);
  const Status era = co_await erasure_.del_nested(std::move(key), ring);
  co_return rep.ok() || era.ok() ? Status::Ok()
                                 : Status{StatusCode::kNotFound};
}

}  // namespace hpres::resilience
