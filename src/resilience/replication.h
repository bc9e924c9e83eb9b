// In-memory replication: the paper's baselines, one engine keyed by Design
// (as ErasureEngine is for the four erasure designs).
//
// Replica i of a key lives at ring.place(key).owner(i), the full value
// stored under the key itself. Sync-Rep accesses each replica with blocking
// semantics, so its Set cost is F * (L + D/B) (Equation 2). Async-Rep
// overlaps the request/response phases of all F replica writes via
// non-blocking calls, approaching max_i(L + D/B) (Equation 6); NoRep is
// Async-Rep with one copy. Both read the whole value from the designated
// primary, falling back to a live replica (plus T_check) after failures
// (Equation 4).
#pragma once

#include "resilience/engine.h"

namespace hpres::resilience {

class ReplicationEngine final : public Engine {
 public:
  /// `design` is kSyncRep or kAsyncRep; `factor` copies of every value.
  ReplicationEngine(EngineContext ctx, Design design, std::uint32_t factor,
                    ArpeParams arpe = {});

  [[nodiscard]] std::string_view name() const noexcept override {
    return to_string(design_);
  }
  [[nodiscard]] std::size_t fault_tolerance() const noexcept override {
    return factor_ - 1;
  }

 protected:
  sim::Task<Status> do_set(kv::Key key, SharedBytes value,
                           OpContext* op) override;

  /// Primary read with live-replica fallback (Equation 4).
  sim::Task<Result<Bytes>> do_get(kv::Key key, OpContext* op) override;

  /// Deletes the key on every live replica under `ring`.
  sim::Task<Status> do_del(kv::Key key, const kv::HashRing& ring) override;

 private:
  Design design_;
  std::uint32_t factor_;
};

}  // namespace hpres::resilience
