// Client-visible snapshot of the versioned placement plane.
//
// A single authority (cluster::PlacementManager) owns one PlacementView per
// cluster and hands out const pointers; it mutates the view only at
// quiesce-safe points (inline in oracle mode, from a runtime quiesce hook
// when sharded), so readers on any shard always observe a consistent
// {epoch, prev} pair without locks. A client holds the view
// (RpcNode::set_placement_view) and its engines read it through the client
// — it is the only placement attachment.
#pragma once

#include <cstdint>

namespace hpres::kv {

class HashRing;

struct PlacementView {
  /// Current placement epoch — HashRing::epoch() of the live ring. Clients
  /// stamp it onto outgoing requests; servers bounce writes carrying an
  /// older (non-zero) one with kWrongEpoch.
  std::uint64_t epoch = 0;
  /// The pre-cutover ring while a migration pass is in flight, null
  /// otherwise. Fragments may still sit at their old positions, so a Get
  /// that misses under the live ring re-runs under this one, and deletes
  /// unlink under both. The authority owns the snapshot.
  const HashRing* prev = nullptr;
};

}  // namespace hpres::kv
