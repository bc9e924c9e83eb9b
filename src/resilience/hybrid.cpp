#include "resilience/hybrid.h"

namespace hpres::resilience {

HybridEngine::HybridEngine(EngineContext ctx, const ec::Codec& codec,
                           ec::CostModel cost, std::uint32_t rep_factor,
                           std::size_t threshold_bytes, Design design,
                           ArpeParams arpe)
    : Engine(ctx, arpe),
      replication_(ctx, Design::kAsyncRep, rep_factor, arpe),
      erasure_(ctx, codec, cost, design, arpe),
      threshold_bytes_(threshold_bytes) {}

sim::Task<Status> HybridEngine::do_set(kv::Key key, SharedBytes value,
                                       OpContext* op) {
  const std::size_t size = value ? value->size() : 0;
  Engine& scheme = size < threshold_bytes_ ? replication() : erasure();
  co_return co_await scheme.do_set(std::move(key), std::move(value), op);
}

sim::Task<Result<Bytes>> HybridEngine::do_get(kv::Key key, OpContext* op) {
  // Probe the replication path first: for below-threshold values this is
  // the single-round-trip hit; for large values it is a cheap miss.
  Result<Bytes> replicated = co_await replication().do_get(key, op);
  if (replicated.ok() ||
      replicated.status().code() != StatusCode::kNotFound) {
    co_return replicated;
  }
  co_return co_await erasure().do_get(std::move(key), op);
}

sim::Task<Status> HybridEngine::do_del(kv::Key key,
                                       const kv::HashRing& ring) {
  const Status rep = co_await replication().do_del(key, ring);
  const Status era = co_await erasure().do_del(std::move(key), ring);
  co_return rep.ok() || era.ok() ? Status::Ok()
                                 : Status{StatusCode::kNotFound};
}

}  // namespace hpres::resilience
