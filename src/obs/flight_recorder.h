// Always-on flight recorder: a fixed-memory, per-node ring buffer of
// compact structured events written on the hot path.
//
// Each node (server or client) owns a ring of kRecordBytes-sized records;
// recording is one bounds check, one index increment and one 24-byte store
// — no allocation, no locks (the simulation is single-threaded by
// construction, and the layout would be a per-node SPSC ring on a real
// multi-threaded build), no simulation side effects. Memory is
// O(nodes x ring_size) for the life of the recorder: rings are allocated
// once up front and never grow, so attaching a recorder can never change a
// benchmark result or its memory high-water mark beyond the fixed budget
// (memory_bytes() reports it; a test asserts it is invariant under load).
//
// When the ring wraps, the oldest events are overwritten: a dump is always
// the *most recent* window of each node's history — exactly what a
// post-mortem wants. Dumps are deterministic JSON (obs/json.h) and are
// triggered three ways: on demand (dump()/dump_to_file()), automatically on
// crash injection (FaultSchedule), and on RPC-deadline expiry bursts
// (cluster::HealthMonitor). tools/health_report consumes the dump offline.
// There is no off switch on the recorder itself: detach it
// (Cluster::set_flight_recorder(nullptr)) to stop recording.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.h"

namespace hpres::obs {

/// Compact event vocabulary. Keep this list append-only: dumps carry the
/// symbolic name, but `code` fields in records reference these values.
enum class FlightEventType : std::uint8_t {
  kOpStart = 0,     ///< client op admitted (code: 0 = set, 1 = get)
  kOpEnd = 1,       ///< client op done (a = latency_ns, b = degraded flag)
  kRpcTimeout = 2,  ///< guarded call attempt hit its deadline (a = timeout_ns,
                    ///< b = calling node)
  kRpcRetry = 3,    ///< guarded call re-sent after a timeout (b = caller)
  kDegraded = 4,    ///< op needed failure handling (b = client node)
  kFailover = 5,    ///< alternate-fragment fetch after a failed slot
  kFallback = 6,    ///< CD get retried via the server path
  kHedgeFired = 7,  ///< hedge fetch issued against this node (b = client)
  kHedgeWon = 8,    ///< hedge fetch made the decode set (b = client)
  kRepairPhase = 9, ///< repair phase done (code: 0 probe, 1 fetch, 2 decode,
                    ///< 3 replace; a = phase duration ns)
  kQueueDepth = 10, ///< periodic snapshot (a = handler queue, b = inbox)
  kNetDrop = 11,    ///< fabric dropped a message involving this node
                    ///< (a = payload bytes, code: 0 down, 1 injected loss)
  kHealthState = 12,///< detector transition (a = new state, b = old state)
  kDump = 13,       ///< a dump was taken (a = trigger ordinal)
};

/// Symbolic name used in dumps ("op_start", "rpc_timeout", ...).
[[nodiscard]] const char* flight_event_name(FlightEventType type) noexcept;

/// One recorded event. 24 bytes; `a`/`b`/`code` meanings per event type
/// (see FlightEventType comments).
struct FlightRecord {
  SimTime t_ns = 0;
  std::uint64_t a = 0;
  std::uint32_t b = 0;
  FlightEventType type = FlightEventType::kOpStart;
  std::uint8_t code = 0;
  std::uint16_t pad = 0;
};

class FlightRecorder {
 public:
  /// `ring_size` events retained per node (rounded up to 1 minimum).
  explicit FlightRecorder(std::size_t ring_size = kDefaultRingSize)
      : ring_size_(ring_size == 0 ? 1 : ring_size) {}
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  static constexpr std::size_t kDefaultRingSize = 256;

  /// Pre-allocates rings for nodes [0, n). Called once at wiring time
  /// (cluster setup), never on the record path. Growing keeps existing
  /// ring contents.
  void ensure_nodes(std::size_t n);

  /// Human label for a node in dumps ("server0", "client3"); defaults to
  /// "nodeN". Implies ensure_nodes(node + 1).
  void set_node_label(std::size_t node, std::string label);

  /// Hot path: appends one event to `node`'s ring. O(1), allocation-free;
  /// events for unknown nodes are counted in dropped_records() and
  /// otherwise ignored (never a crash on the hot path).
  void record(SimTime t_ns, std::size_t node, FlightEventType type,
              std::uint64_t a = 0, std::uint32_t b = 0,
              std::uint8_t code = 0) noexcept {
    if (node >= rings_.size()) {
      ++dropped_records_;
      return;
    }
    Ring& ring = rings_[node];
    ring.buf[ring.written % ring_size_] =
        FlightRecord{t_ns, a, b, type, code, 0};
    ++ring.written;
  }

  [[nodiscard]] std::size_t ring_size() const noexcept { return ring_size_; }
  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return rings_.size();
  }
  /// Events ever recorded for `node` (>= ring_size means the ring wrapped).
  [[nodiscard]] std::uint64_t written(std::size_t node) const noexcept {
    return node < rings_.size() ? rings_[node].written : 0;
  }
  /// Events aimed at nodes the recorder was never sized for.
  [[nodiscard]] std::uint64_t dropped_records() const noexcept {
    return dropped_records_;
  }

  /// Fixed memory bound: ring payload bytes currently reserved. Pure
  /// function of (nodes, ring_size) — recording any number of events never
  /// changes it (asserted by tests).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return rings_.size() * ring_size_ * sizeof(FlightRecord);
  }

  /// Chronological (oldest-first) snapshot of `node`'s retained events.
  [[nodiscard]] std::vector<FlightRecord> events(std::size_t node) const;

  /// Deterministic shard merge: folds `child`'s retained records into this
  /// recorder's rings and drains the child. Per node, the two retained
  /// histories are merge-sorted by timestamp — this recorder's records
  /// (shards already absorbed, in ascending shard order) win ties, giving
  /// the canonical shard-then-timestamp order — and only the newest
  /// ring_size records survive, preserving freshest-window semantics.
  /// `written` totals and dropped_records accumulate so wrap accounting
  /// stays truthful. Safe to call repeatedly (mid-run crash dumps, then
  /// again at teardown): a drained child contributes nothing.
  void absorb(FlightRecorder& child);

  /// Deterministic JSON dump of every node's retained events, oldest first,
  /// under a top-level "flight" object. `reason` names the trigger
  /// ("crash", "timeout-burst", "finalize", ...). `now_ns` stamps the dump.
  [[nodiscard]] std::string dump(std::string_view reason,
                                 SimTime now_ns) const;

  /// Default file target for automatic dump triggers; empty disables them.
  void set_dump_path(std::string path) { dump_path_ = std::move(path); }
  [[nodiscard]] const std::string& dump_path() const noexcept {
    return dump_path_;
  }

  /// Writes dump() to `dump_path()` (or an explicit override); false when
  /// no path is set or on I/O failure. Later triggers overwrite earlier
  /// dumps — the freshest window wins, matching post-mortem semantics.
  bool dump_to_file(std::string_view reason, SimTime now_ns,
                    const std::string& path_override = {});

  /// Number of dumps successfully written so far.
  [[nodiscard]] std::uint64_t dumps_written() const noexcept {
    return dumps_written_;
  }

 private:
  struct Ring {
    std::vector<FlightRecord> buf;  ///< fixed capacity == ring_size_
    std::uint64_t written = 0;
    std::string label;
  };

  std::size_t ring_size_;
  std::vector<Ring> rings_;
  std::string dump_path_;
  std::uint64_t dropped_records_ = 0;
  std::uint64_t dumps_written_ = 0;
};

}  // namespace hpres::obs
