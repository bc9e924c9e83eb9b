// Hybrid replication / erasure-coding engine — the scheme sketched in the
// paper's conclusion ("explore hybrid erasure-coding/replication schemes
// with the goal of maximizing overall performance and storage efficiency
// for different workload data access patterns").
//
// Values below the threshold are replicated (chunking sub-KB values into
// sub-fragment crumbs buys nothing and multiplies per-message overheads);
// values at or above it are erasure coded (where the bandwidth and memory
// savings dominate). Reads probe the replication path first — one cheap
// round trip — and fall back to fragment aggregation. The chosen scheme
// runs inside the hybrid op: one lane, one trace, one root span and one
// recorder row per op, whichever scheme serves it.
#pragma once

#include "resilience/erasure_engine.h"
#include "resilience/replication.h"

namespace hpres::resilience {

class HybridEngine final : public Engine {
 public:
  /// Both sub-schemes tolerate failures independently; the engine's
  /// overall tolerance is the weaker of the two, so configure
  /// rep_factor = m + 1 for a uniform guarantee.
  HybridEngine(EngineContext ctx, const ec::Codec& codec, ec::CostModel cost,
               std::uint32_t rep_factor, std::size_t threshold_bytes,
               Design design = Design::kEraCeCd, ArpeParams arpe = {});

  [[nodiscard]] std::string_view name() const noexcept override {
    return "hybrid";
  }
  [[nodiscard]] std::size_t fault_tolerance() const noexcept override {
    return std::min<std::size_t>(replication_.fault_tolerance(),
                                 erasure_.fault_tolerance());
  }
  [[nodiscard]] std::size_t threshold_bytes() const noexcept {
    return threshold_bytes_;
  }

 protected:
  sim::Task<Status> do_set(kv::Key key, SharedBytes value,
                           OpContext* op) override;
  sim::Task<Result<Bytes>> do_get(kv::Key key, OpContext* op) override;
  sim::Task<Status> do_del(kv::Key key, const kv::HashRing& ring) override;

 private:
  // The sub-engines' do_* run inside this engine's op, on its lane, ring
  // and degraded flag; they are reached through Engine, which befriends
  // HybridEngine (the overriders themselves are protected).
  [[nodiscard]] Engine& replication() noexcept { return replication_; }
  [[nodiscard]] Engine& erasure() noexcept { return erasure_; }

  ReplicationEngine replication_;
  ErasureEngine erasure_;
  std::size_t threshold_bytes_;
};

}  // namespace hpres::resilience
