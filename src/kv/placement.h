// Client-visible snapshot of the versioned placement plane.
//
// A single authority (cluster::PlacementManager) owns one PlacementView per
// cluster and hands out const pointers; it mutates the view only at
// quiesce-safe points (inline in oracle mode, from a runtime quiesce hook
// when sharded), so readers on any shard always observe a consistent
// {epoch, ring} pair without locks.
#pragma once

#include <cstdint>

namespace hpres::kv {

struct PlacementView {
  /// Current placement epoch — HashRing::epoch() of the live ring. Clients
  /// stamp it onto outgoing requests; servers bounce writes carrying an
  /// older (non-zero) one with kWrongEpoch.
  std::uint64_t epoch = 0;
  /// A migration pass is in flight: fragments may still sit at their
  /// pre-cutover positions, so reads that miss under the new ring fall
  /// back to the engine's pre-cutover engine (Engine::set_prev_engine),
  /// and deletes dual-issue under both rings.
  bool in_transition = false;
};

}  // namespace hpres::kv
