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
                                       OpPhases* phases) {
  // Sub-engines keep their own phase accounting; the nested call continues
  // this op's trace and reports back the degraded flag.
  const std::size_t size = value ? value->size() : 0;
  if (size < threshold_bytes_) {
    co_return co_await replication_.set_nested(
        std::move(key), std::move(value), phases->trace, &phases->degraded);
  }
  co_return co_await erasure_.set_nested(std::move(key), std::move(value),
                                         phases->trace, &phases->degraded);
}

sim::Task<Result<Bytes>> HybridEngine::do_get(kv::Key key,
                                              OpPhases* phases) {
  // Probe the replication path first: for below-threshold values this is
  // the single-round-trip hit; for large values it is a cheap miss.
  bool probe_degraded = false;
  Result<Bytes> replicated =
      co_await replication_.get_nested(key, phases->trace, &probe_degraded);
  phases->degraded |= probe_degraded;
  if (replicated.ok() ||
      replicated.status().code() != StatusCode::kNotFound) {
    co_return replicated;
  }
  bool era_degraded = false;
  Result<Bytes> coded =
      co_await erasure_.get_nested(std::move(key), phases->trace,
                                   &era_degraded);
  phases->degraded |= era_degraded;
  co_return coded;
}

sim::Task<Status> HybridEngine::do_del(kv::Key key) {
  const Status rep = co_await replication_.del(key);
  const Status era = co_await erasure_.del(std::move(key));
  co_return rep.ok() || era.ok() ? Status::Ok()
                                 : Status{StatusCode::kNotFound};
}

}  // namespace hpres::resilience
