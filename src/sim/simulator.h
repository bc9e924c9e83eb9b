// Deterministic discrete-event simulator.
//
// A single-threaded event loop over (time, sequence) ordered continuations.
// All awaitable primitives (delay, Event, Channel, Semaphore, resources)
// schedule coroutine resumptions through this queue, so execution order is a
// pure function of the program and its seeds — every experiment in this
// repository is reproducible bit-for-bit.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include "common/units.h"
#include "sim/task.h"

namespace hpres::sim {

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
    assert(delay >= 0 && "negative schedule() delay (stale timestamp?)");
    queue_.push(Scheduled{now_ + (delay < 0 ? 0 : delay), next_seq_++, h});
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

  /// Runs every event strictly before `before` — by default until the
  /// event queue is empty. The clock stays at the last executed event.
  /// Returns the current simulated time.
  SimTime run(SimTime before = kNever);

  /// Runs until the queue is empty or simulated time would exceed
  /// `deadline`; events after the deadline stay queued.
  SimTime run_until(SimTime deadline);

  /// Conservative-window run: executes every event strictly before `end`,
  /// leaves events at or after `end` queued, then advances the clock to
  /// `end`. The strict bound is what makes the shard lookahead proof work:
  /// a message sent by a peer shard inside the same window is due at
  /// >= `end`, so it can still be merged at its exact timestamp afterwards.
  SimTime run_window(SimTime end);

  /// Timestamp of the earliest queued event, or kNever when idle. This is
  /// the per-shard horizon the conservative scheduler synchronizes on.
  [[nodiscard]] SimTime next_event_time() const noexcept {
    return queue_.empty() ? kNever : queue_.top().at;
  }

  /// True if no events remain.
  [[nodiscard]] bool idle() const noexcept { return queue_.empty(); }

 private:
  struct Scheduled {
    SimTime at;
    std::uint64_t seq;
    std::coroutine_handle<> handle;

    // std::priority_queue is a max-heap; invert for earliest-first.
    friend bool operator<(const Scheduled& a, const Scheduled& b) noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Scheduled> queue_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace hpres::sim
