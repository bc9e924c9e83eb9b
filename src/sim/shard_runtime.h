// Conservative parallel discrete-event runtime: N independent Simulator
// shards advanced in lockstep windows by real threads.
//
// Synchronization model (classic conservative PDES with lookahead):
// execution proceeds in rounds. In each round every shard first drains its
// inbound cross-shard queues — merging each message into its own event
// queue at the message's exact due time — and publishes the timestamp of
// its earliest pending event. A barrier then computes the global window
//   window_end = min over shards of next_event_time + lookahead
// and every shard runs all events strictly before window_end in parallel.
// Safety: a cross-shard message sent at local time t is due at >= t + L
// (L = lookahead, derived from the minimum fabric wire latency), and every
// event executed this round has t >= min(next_event_time), so every message
// produced inside a window is due at or after the window's end — it is
// always merged before the receiver's clock reaches it, and simulated
// causality holds without rollback.
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

#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
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
  std::uint64_t spills_out = 0;  ///< posts that overflowed an SPSC ring
  std::uint64_t msgs_in = 0;     ///< cross-shard messages merged on drain
  std::uint64_t lane_occupancy_hw = 0;  ///< max msgs from one lane per drain
  std::uint64_t stall_wall_ns = 0;  ///< wall time blocked on round barriers
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

  [[nodiscard]] std::uint64_t total_events() const noexcept {
    std::uint64_t total = 0;
    for (const ShardProfile& p : per_shard) total += p.events;
    return total;
  }
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
  /// called from shard `from`'s thread (each (from, to) lane is a bounded
  /// SPSC ring; overflow falls back to a mutexed spill vector). The due
  /// time must respect the lookahead contract: due >= sender now + L.
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

  /// Bounded single-producer/single-consumer ring; the producer is the
  /// `from` shard's thread (run phase), the consumer the `to` shard's
  /// thread (drain phase). Rounds are barrier-separated so the two never
  /// overlap, but the ring stays correct even if draining ever becomes
  /// opportunistic mid-window.
  class SpscRing {
   public:
    explicit SpscRing(std::size_t capacity) : slots_(capacity) {}

    [[nodiscard]] bool try_push(Msg&& m) {
      const std::size_t t = tail_.load(std::memory_order_relaxed);
      if (t - head_.load(std::memory_order_acquire) == slots_.size()) {
        return false;
      }
      slots_[t % slots_.size()] = std::move(m);
      tail_.store(t + 1, std::memory_order_release);
      return true;
    }

    [[nodiscard]] bool try_pop(Msg& out) {
      const std::size_t h = head_.load(std::memory_order_relaxed);
      if (tail_.load(std::memory_order_acquire) == h) return false;
      out = std::move(slots_[h % slots_.size()]);
      head_.store(h + 1, std::memory_order_release);
      return true;
    }

   private:
    std::vector<Msg> slots_;
    alignas(64) std::atomic<std::size_t> head_{0};
    alignas(64) std::atomic<std::size_t> tail_{0};
  };

  /// One inbound lane per (from, to) shard pair.
  struct Lane {
    explicit Lane(std::size_t capacity) : ring(capacity) {}
    SpscRing ring;
    std::mutex spill_mu;
    std::vector<Msg> spill;  ///< unbounded fallback when the ring is full
  };

  static constexpr std::size_t kLaneCapacity = 256;

  [[nodiscard]] Lane& lane(std::size_t from, std::size_t to) {
    return *lanes_[from * shards_.size() + to];
  }

  /// Merges every queued inbound message into shard `s`'s event queue at
  /// its due time, in canonical (due, source shard, FIFO) order.
  void drain(std::size_t s);

  /// Runs every registered quiesce hook at `min_next`; returns the earliest
  /// pending hook action (the window cap), kNever when none remain.
  SimTime run_hooks(SimTime min_next) noexcept;

  /// Barrier completion step: runs the quiesce hooks, then computes the
  /// next window (or termination) from the published per-shard horizons,
  /// capped at the earliest pending hook action. Runs on exactly one
  /// thread while the others are blocked in the barrier.
  void compute_window() noexcept;

  /// False-sharing pad: each shard's profile lives on its own cache line.
  struct alignas(64) PaddedProfile {
    ShardProfile p;
  };

  std::vector<std::unique_ptr<Simulator>> shards_;
  std::vector<std::unique_ptr<Lane>> lanes_;  // [from * n + to]
  std::vector<std::vector<Msg>> scratch_;     // per-shard drain buffer
  SimDur lookahead_;
  std::vector<QuiesceHook> hooks_;  ///< removed slots stay as empty fns
  std::vector<PaddedProfile> prof_;

  // Round state. Plain-ish values written either before a barrier arrival
  // or inside its completion step; the barrier's phase transition provides
  // the happens-before edges. Relaxed atomics keep TSan provably quiet.
  std::unique_ptr<std::atomic<SimTime>[]> next_time_;
  std::atomic<SimTime> window_{0};
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
