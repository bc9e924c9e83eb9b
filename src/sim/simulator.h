// Deterministic discrete-event simulator.
//
// A single-threaded event loop over (time, sequence) ordered continuations.
// All awaitable primitives (delay, Event, Semaphore, Latch, resources)
// schedule coroutine resumptions through this queue, so execution order is a
// pure function of the program and its seeds — every experiment in this
// repository is reproducible bit-for-bit. An event is a coroutine to resume
// or a plain Callback record (a fabric delivery).
//
// Most events are due at once (spawns, wakes, timer expiries). They go to a
// FIFO ready queue beside the event heap instead of through it: every entry
// is pushed at `now` with a fresh sequence number, so the FIFO is sorted and
// empty whenever the clock advances, and merging its head with the heap top
// by (at, seq) is exactly the single-heap order (DESIGN.md).
//
// Deadlines that are almost always cancelled (an RPC attempt's timeout) are
// cancellable Timers beside the event queue: an indexed min-heap of the live
// ones only, so a timer that is disarmed costs O(log live) once and never
// reaches the event loop.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include "common/units.h"
#include "sim/task.h"

namespace hpres::sim {

/// A plain event: `run(this)` is called when it comes due. The record lives
/// in its owner (the derived struct carries the state), so scheduling it
/// allocates nothing; it must stay alive until it has run.
struct Callback {
  void (*run)(Callback*);
};

namespace detail {

/// An event-queue item: a coroutine frame, or a Callback* with the low bit
/// set (frames and Callback records are at least pointer-aligned, so the
/// bit is free).
constexpr std::uintptr_t kCallbackBit = 1;
static_assert(alignof(Callback) > kCallbackBit);

inline std::uintptr_t event_item(std::coroutine_handle<> h) noexcept {
  return reinterpret_cast<std::uintptr_t>(h.address());
}
inline std::uintptr_t event_item(Callback* cb) noexcept {
  return reinterpret_cast<std::uintptr_t>(cb) | kCallbackBit;
}

}  // namespace detail

/// A cancellable one-shot wake-up (Simulator::arm). The node lives in its
/// owner — the waiting coroutine's frame for sim::wait_any, an RPC call
/// record for a guarded call — and the simulator holds only a pointer to
/// it while it is armed, so arming allocates nothing. It must not be
/// destroyed while armed.
class Timer {
 public:
  Timer() = default;
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  ~Timer() { assert(!armed() && "armed Timer destroyed"); }

  /// What expiry wakes (scheduled at delay 0): a coroutine or a Callback.
  void wake(std::coroutine_handle<> h) noexcept {
    item_ = detail::event_item(h);
  }
  void wake(Callback* cb) noexcept { item_ = detail::event_item(cb); }

  [[nodiscard]] bool armed() const noexcept { return slot_ < kExpired; }
  /// The timer ran out, and has not been re-armed since.
  [[nodiscard]] bool expired() const noexcept { return slot_ == kExpired; }

 private:
  friend class Simulator;
  static constexpr std::size_t kIdle = std::numeric_limits<std::size_t>::max();
  static constexpr std::size_t kExpired = kIdle - 1;

  std::uintptr_t item_ = 0;  ///< what expiry schedules (detail::event_item)
  SimTime at_ = 0;
  std::uint64_t seq_ = 0;
  std::size_t slot_ = kIdle;  ///< index in the timer heap while armed
};

class Simulator {
 public:
  /// next_event_time() sentinel for an empty queue.
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time (ns since simulation start).
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Number of events executed so far (diagnostic).
  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return executed_;
  }

  /// Schedules `h` to resume after `delay` (>= 0) simulated nanoseconds.
  /// Events at equal times run in scheduling (FIFO) order. A negative delay
  /// is a bug in the caller — typically a cross-shard message stamped
  /// before the receiver's clock — and asserts in debug builds; release
  /// builds keep the historical clamp-to-now behaviour.
  void schedule(std::coroutine_handle<> h, SimDur delay = 0) {
    push(detail::event_item(h), delay);
  }

  /// Schedules `cb->run(cb)` after `delay` (>= 0), in the same (at, seq)
  /// order as a coroutine scheduled at this point would take.
  void schedule(Callback* cb, SimDur delay) {
    push(detail::event_item(cb), delay);
  }

  /// Arms `timer` to expire `delay` (>= 0) simulated nanoseconds from now.
  /// It takes its place in the event order exactly like schedule() would:
  /// at (now + delay, next sequence number). Expiry is two steps, as a
  /// coroutine sleeping on delay() was: the timer leaves the heap at its
  /// position, then what it wakes is scheduled at delay 0. The timer must
  /// not be armed already.
  void arm(Timer* timer, SimDur delay);

  /// Cancels `timer` if it is armed; a no-op otherwise. O(log armed).
  void disarm(Timer* timer) noexcept;

  /// Timers armed and not yet expired or disarmed (diagnostic).
  [[nodiscard]] std::size_t armed_timers() const noexcept {
    return timers_.size();
  }

  /// Starts a detached process. The process begins at the current simulated
  /// time once the event loop runs; its frame is destroyed on completion.
  /// The task's own frame is scheduled (no wrapper coroutine), and an
  /// exception escaping it calls std::terminate. A process must run to
  /// completion before the Simulator is destroyed (drain with run()).
  void spawn(Task<void> task);

  /// Starts a detached process at absolute simulated time `at` (>= now).
  /// Used by the shard runtime to merge cross-shard messages at their due
  /// time without disturbing the window computation.
  void spawn_at(SimTime at, Task<void> task);

  /// Awaitable: suspends the caller for `d` simulated nanoseconds.
  [[nodiscard]] auto delay(SimDur d) noexcept {
    struct Awaiter {
      Simulator* sim;
      SimDur dur;
      [[nodiscard]] bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) const {
        sim->schedule(h, dur);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, d};
  }

  /// Runs every event and timer expiry strictly before `before` — by
  /// default until nothing is queued or armed. The clock stays at the last
  /// executed event. Returns the current simulated time.
  SimTime run(SimTime before = kNever);

  /// Runs until nothing is queued or armed, or simulated time would exceed
  /// `deadline`; events and timers after the deadline stay pending, and the
  /// clock advances to `deadline`.
  SimTime run_until(SimTime deadline);

  /// Conservative-window run: executes every event strictly before `end`,
  /// leaves events at or after `end` queued, then advances the clock to
  /// `end`. The strict bound is what makes the shard lookahead proof work:
  /// a message sent by a peer shard inside the same window is due at
  /// >= `end`, so it can still be merged at its exact timestamp afterwards.
  SimTime run_window(SimTime end);

  /// Timestamp of the earliest queued event or armed timer, or kNever when
  /// idle. This is the per-shard horizon the conservative scheduler
  /// synchronizes on, so a shard whose only work is a pending deadline
  /// still bounds the window.
  [[nodiscard]] SimTime next_event_time() const noexcept {
    if (ready_head_ < ready_.size()) return now_;
    const SimTime event = queue_.empty() ? kNever : queue_.top().at;
    if (timers_.empty()) return event;
    return timers_.front()->at_ < event ? timers_.front()->at_ : event;
  }

  /// True if no events are queued and no timer is armed.
  [[nodiscard]] bool idle() const noexcept {
    return ready_head_ == ready_.size() && queue_.empty() && timers_.empty();
  }

 private:
  struct Scheduled {
    SimTime at;
    std::uint64_t seq;
    std::uintptr_t item;  ///< detail::event_item

    // std::priority_queue is a max-heap; invert for earliest-first.
    friend bool operator<(const Scheduled& a, const Scheduled& b) noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// Queues `item` at (now + delay, next sequence number): on the ready
  /// FIFO when it is due now (a negative delay clamps to now), on the heap
  /// otherwise.
  void push(std::uintptr_t item, SimDur delay) {
    assert(delay >= 0 && "negative schedule() delay (stale timestamp?)");
    if (delay <= 0) {
      ready_.push_back(Scheduled{now_, next_seq_++, item});
    } else {
      queue_.push(Scheduled{now_ + delay, next_seq_++, item});
    }
  }
  /// Executes one event.
  static void run_item(std::uintptr_t item) {
    if ((item & detail::kCallbackBit) != 0) {
      auto* cb = reinterpret_cast<Callback*>(item & ~detail::kCallbackBit);
      cb->run(cb);
    } else {
      std::coroutine_handle<>::from_address(reinterpret_cast<void*>(item))
          .resume();
    }
  }
  /// Runs events and timer expiries in (at, seq) order while at <= `last`.
  void drain(SimTime last);
  /// Removes the timer at heap index `slot`, restoring the heap order.
  void erase_timer(std::size_t slot) noexcept;
  void sift_up(std::size_t slot) noexcept;
  void sift_down(std::size_t slot) noexcept;
  void place(Timer* timer, std::size_t slot) noexcept {
    timers_[slot] = timer;
    timer->slot_ = slot;
  }

  static bool earlier(const Timer& a, const Timer& b) noexcept {
    return a.at_ != b.at_ ? a.at_ < b.at_ : a.seq_ < b.seq_;
  }
  static bool precedes(const Timer& t, const Scheduled& e) noexcept {
    return t.at_ != e.at ? t.at_ < e.at : t.seq_ < e.seq;
  }
  static bool precedes(const Scheduled& a, const Scheduled& b) noexcept {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }

  /// Events due at a later time.
  std::priority_queue<Scheduled> queue_;
  /// Events due at `now_`, in sequence order: entries from ready_head_ on
  /// are pending. Cleared when drained, so it is empty whenever the clock
  /// advances.
  std::vector<Scheduled> ready_;
  std::size_t ready_head_ = 0;
  /// Armed timers: a binary min-heap by (at, seq); each timer stores its
  /// index, so disarm() erases it in place.
  std::vector<Timer*> timers_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace hpres::sim
