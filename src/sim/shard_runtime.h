// Conservative parallel discrete-event runtime: N independent Simulator
// shards advanced in lockstep windows by real threads.
//
// Synchronization model (classic conservative PDES with lookahead):
// execution proceeds in rounds, one barrier each. In a round every shard
//   1. publishes its horizon: the earlier of its own next event time and
//      the earliest due time it posted to another shard since its last
//      publish (those messages are not merged yet, so the sender vouches
//      for them);
//   2. arrives at the barrier, whose completion step runs the quiesce hooks
//      and computes the global window
//        window_end = min over shards of horizon + lookahead,
//      then flips the lane parity;
//   3. drains the lane parity the previous window filled, merging each
//      message into its own event queue at the message's exact due time;
//   4. runs every event strictly before window_end, posting cross-shard
//      messages into the other parity.
// Safety: a cross-shard message sent at local time t is due at >= t + L
// (L = lookahead, derived from the minimum fabric wire latency), and every
// event executed this round has t >= min(horizon), so every message
// produced inside a window is due at or after the window's end — it is
// always merged before the receiver's clock reaches it, and simulated
// causality holds without rollback. Each (from, to) lane is a pair of plain
// vectors: within a round the sender appends to one parity while the
// receiver drains the other, and the barrier orders one round's appends
// before the next round's drain, so no lane needs a lock or an atomic.
//
// Determinism: for a fixed (program, seeds, shard count) the execution is
// bit-reproducible. Each shard's event loop is deterministic, and inbound
// messages are merged in a canonical order (due time, then source shard,
// then per-lane FIFO), independent of thread interleaving. Different shard
// counts are statistically equivalent, not bit-identical: cross-shard
// receive-side NIC contention resolves in arrival order rather than send
// order. `shards == 1` is the deterministic oracle mode — a single inline
// event loop, zero threads. It runs the same quiesce-hook protocol as the
// parallel mode (windows capped by hook actions, no lookahead bound), so
// every control-plane action has one implementation at every shard count.
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/units.h"
#include "sim/simulator.h"

namespace hpres::sim {

/// Per-shard execution profile. Every field is written by exactly one
/// thread (the owning shard's worker) and read at quiescence, so the
/// counters need no atomics. Wall-clock fields vary run-over-run; the
/// event/message fields are simulation-deterministic.
struct ShardProfile {
  std::uint64_t events = 0;      ///< events executed by the shard's Simulator
  std::uint64_t msgs_out = 0;    ///< cross-shard messages posted by the shard
  std::uint64_t msgs_in = 0;     ///< cross-shard messages merged on drain
  std::uint64_t lane_occupancy_hw = 0;  ///< max msgs from one lane per drain
  std::uint64_t stall_wall_ns = 0;  ///< wall time blocked on the barrier
  std::uint64_t busy_wall_ns = 0;   ///< wall time draining + running windows
};

/// Snapshot of the runtime's execution profile (see profile()). The window
/// advance statistics measure simulated time gained per barrier round — a
/// small mean advance means the run is barrier-bound, the first thing to
/// check when a scaling curve flattens.
struct RuntimeProfile {
  std::size_t shards = 0;
  SimDur lookahead_ns = 0;
  std::uint64_t rounds = 0;       ///< barrier rounds (0 in oracle mode)
  SimDur min_advance_ns = 0;      ///< smallest per-round sim-time advance
  SimDur max_advance_ns = 0;
  double mean_advance_ns = 0.0;
  std::vector<ShardProfile> per_shard;

  /// Fraction of a shard's measured wall time spent blocked on barriers.
  [[nodiscard]] static double stall_fraction(const ShardProfile& p) noexcept {
    const double total =
        static_cast<double>(p.stall_wall_ns + p.busy_wall_ns);
    return total > 0.0 ? static_cast<double>(p.stall_wall_ns) / total : 0.0;
  }
};

class ShardRuntime {
 public:
  /// `shards` event loops (0 is normalized to 1 — oracle mode) connected by
  /// channels with `lookahead_ns` of guaranteed cross-shard delay. Every
  /// cross-shard message posted from a shard at local time t must be due at
  /// >= t + lookahead_ns; the fabric derives the bound from its wire
  /// latency. Must be > 0 when shards > 1 or windows cannot advance.
  ShardRuntime(std::size_t shards, SimDur lookahead_ns);
  ShardRuntime(const ShardRuntime&) = delete;
  ShardRuntime& operator=(const ShardRuntime&) = delete;

  [[nodiscard]] std::size_t num_shards() const noexcept {
    return shards_.size();
  }
  /// True when more than one shard exists (worker threads will be used).
  [[nodiscard]] bool parallel() const noexcept { return shards_.size() > 1; }
  [[nodiscard]] SimDur lookahead_ns() const noexcept { return lookahead_; }

  [[nodiscard]] Simulator& shard(std::size_t s) {
    assert(s < shards_.size());
    return *shards_[s];
  }

  /// Sum of events executed across all shards (diagnostic; read at
  /// quiescence).
  [[nodiscard]] std::uint64_t events_executed() const noexcept;

  /// Barrier rounds completed by parallel runs (diagnostic).
  [[nodiscard]] std::uint64_t rounds() const noexcept {
    return rounds_.load(std::memory_order_relaxed);
  }

  /// Enqueues `fn` to run on shard `to` at simulated time `due`. Must be
  /// called from shard `from`'s thread (each (from, to) lane has exactly
  /// one writer), or between run() calls. The due time must respect the
  /// lookahead contract: due >= sender now + L.
  void post(std::size_t from, std::size_t to, SimTime due,
            std::function<void()> fn);

  /// Runs every shard to global quiescence: no shard has a pending event
  /// and no cross-shard message is in flight. Returns the final simulated
  /// time: with one shard the last executed event's time, in parallel runs
  /// the last window boundary (identical on every shard). Callable
  /// repeatedly — the harness pattern "spawn, run, spawn, run" works
  /// exactly as with a single Simulator.
  SimTime run();

  /// A quiesce hook runs between windows at every shard count. In parallel
  /// runs it runs inside the barrier completion step of every round — all
  /// shard threads are parked, so the hook may touch any cross-shard state
  /// (topology flags, membership, observability sinks) without
  /// synchronization; the barrier's phase transition publishes its writes
  /// to every shard. With one shard it runs on the calling thread between
  /// hook-capped windows. Contract:
  ///   * the hook receives min_next, the earliest pending event time across
  ///     all shards (kNever at quiescence);
  ///   * it must apply every pending action due at or before min_next, in
  ///     time order, stamped at the action's own due time — and at
  ///     min_next == kNever it must flush everything that remains;
  ///   * it returns the earliest remaining action time (> min_next), or
  ///     kNever when none remain; the next window is capped at that time,
  ///     so no simulated event at or after it runs before the hook acts;
  ///   * it must not throw and must not schedule simulator events (flag
  ///     flips and recorder writes only) — the round's horizon was computed
  ///     before the hook ran.
  /// Hooks add no simulator events; with one shard a hook's window cap
  /// never changes the event order either. Hooks run in registration
  /// order. Returns an id for remove_quiesce_hook(); register/remove only
  /// between run() calls.
  using QuiesceHook = std::function<SimTime(SimTime min_next)>;
  std::size_t add_quiesce_hook(QuiesceHook hook);
  void remove_quiesce_hook(std::size_t id);

  /// Execution profile snapshot; read at quiescence (never mid-run). The
  /// per-shard counters are cumulative since construction.
  [[nodiscard]] RuntimeProfile profile() const;

 private:
  struct Msg {
    SimTime due = 0;
    std::uint32_t from = 0;
    std::function<void()> fn;
  };

  /// One (from, to) lane, indexed by round parity: `from` appends to
  /// parity fill_ during its window while `to` drains the other one, which
  /// the previous window filled.
  using Lane = std::array<std::vector<Msg>, 2>;

  [[nodiscard]] Lane& lane(std::size_t from, std::size_t to) {
    return lanes_[from * shards_.size() + to];
  }

  /// Publishes shard `s`'s horizon: its next event time, lowered to the
  /// earliest due time it posted since its last publish.
  [[nodiscard]] SimTime publish(std::size_t s);

  /// Merges every message in shard `s`'s inbound lanes of `parity` into
  /// its event queue at its due time, in canonical (due, source shard,
  /// FIFO) order.
  void drain(std::size_t s, std::size_t parity);

  /// Runs every registered quiesce hook at `min_next`; returns the earliest
  /// pending hook action (the window cap), kNever when none remain.
  SimTime run_hooks(SimTime min_next) noexcept;

  /// Barrier completion step: runs the quiesce hooks, then computes the
  /// next window (or termination) from the published per-shard horizons,
  /// capped at the earliest pending hook action, and flips the lane
  /// parity. Runs on exactly one thread while the others are blocked in
  /// the barrier.
  void compute_window() noexcept;

  /// State only shard s's thread touches, on its own cache line: the
  /// profile and the earliest due time posted since the last publish.
  struct alignas(64) Local {
    ShardProfile p;
    SimTime posted_min = Simulator::kNever;
  };

  std::vector<std::unique_ptr<Simulator>> shards_;
  std::vector<Lane> lanes_;                // [from * n + to]
  std::vector<std::vector<Msg>> scratch_;  // per-shard drain buffer
  SimDur lookahead_;
  std::vector<QuiesceHook> hooks_;  ///< removed slots stay as empty fns
  std::vector<Local> local_;

  // Round state. Plain-ish values written either before a barrier arrival
  // or inside its completion step; the barrier's phase transition provides
  // the happens-before edges. Relaxed atomics keep TSan provably quiet.
  std::unique_ptr<std::atomic<SimTime>[]> next_time_;
  std::atomic<SimTime> window_{0};
  std::atomic<std::size_t> fill_{0};  ///< lane parity posts append to
  std::atomic<bool> done_{false};
  std::atomic<std::uint64_t> rounds_{0};

  // Window-advance statistics, updated only inside the barrier completion
  // step (same synchronization story as window_ / rounds_ above).
  std::atomic<SimTime> prev_window_end_{0};
  std::atomic<std::uint64_t> adv_count_{0};
  std::atomic<SimTime> adv_min_{0};
  std::atomic<SimTime> adv_max_{0};
  std::atomic<SimTime> adv_sum_{0};
};

}  // namespace hpres::sim
