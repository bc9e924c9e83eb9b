// Promise/Future pair for decoupled completion signalling inside the
// simulator — the mechanism behind non-blocking KV operations: `iset/iget`
// return a Future the caller later waits on (memcached_wait semantics).
//
// State is shared_ptr-owned, so a Future outliving its Promise (or vice
// versa) is safe; both ends are single-threaded simulator objects. The
// state (with its control block) comes from the thread's FramePool.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "sim/frame_pool.h"
#include "sim/sync.h"

namespace hpres::sim {

template <typename T>
class Future;

template <typename T>
Task<bool> wait_any(std::span<const Future<T>> futures,
                    SimTime deadline = Simulator::kNever);

template <typename T>
class Promise {
 public:
  explicit Promise(Simulator& sim)
      : state_(std::allocate_shared<State>(detail::PoolAllocator<State>{},
                                           sim)) {}

  /// Fulfills the promise; at most once.
  void set_value(T value) {
    assert(!state_->value.has_value() && "Promise fulfilled twice");
    state_->value.emplace(std::move(value));
    state_->event.set();
  }

  [[nodiscard]] Future<T> get_future() const { return Future<T>{state_}; }

 private:
  friend class Future<T>;
  struct State {
    explicit State(Simulator& sim) : event(sim) {}
    Event event;
    std::optional<T> value;
  };

  std::shared_ptr<State> state_;
};

/// Awaitable handle to a Promise's eventual value. Copyable: several waiters
/// may await the same completion; each receives a copy of the value.
template <typename T>
class Future {
 public:
  Future() = default;

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
  [[nodiscard]] bool ready() const noexcept {
    return state_ && state_->value.has_value();
  }

  /// `co_await wait()` suspends until the promise is fulfilled, then
  /// returns a copy of the value. The caller itself parks on the shared
  /// state (no coroutine frame), so this Future — which keeps the state
  /// alive — must outlive the co_await.
  [[nodiscard]] auto wait() const noexcept {
    assert(state_ && "waiting on an invalid Future");
    // Trivially destructible, like detail::Park: it holds a raw State*.
    struct Awaiter {
      typename Promise<T>::State* state;
      detail::Park park;

      [[nodiscard]] bool await_ready() const noexcept { return park.ready; }
      void await_suspend(std::coroutine_handle<> h) noexcept {
        park.await_suspend(h);
      }
      T await_resume() const { return *state->value; }
    };
    return Awaiter{state_.get(), state_->event.wait()};
  }

  /// Non-suspending poll (memcached_test semantics).
  [[nodiscard]] const T* try_get() const noexcept {
    return ready() ? &*state_->value : nullptr;
  }

 private:
  friend class Promise<T>;
  template <typename U>
  friend Task<bool> wait_any(std::span<const Future<U>>, SimTime);
  explicit Future(std::shared_ptr<typename Promise<T>::State> s)
      : state_(std::move(s)) {}

  std::shared_ptr<typename Promise<T>::State> state_;
};

/// Suspends until any valid future in `futures` is ready, or until the
/// absolute simulated time `deadline`. Returns true for a ready future —
/// at once, without suspending, if one already is — and false at the
/// deadline. One one-shot waiter in this frame is registered on every
/// pending future and races a cancellable timer: the first fulfillment
/// wakes the caller and disarms the timer, and the waiter unlinks itself
/// from the other futures before returning, so a later fulfillment (or one
/// that never comes) never reaches the caller or the dead frame. Invalid
/// futures are skipped, and at least one must be valid. The futures' shared
/// states must stay alive until wait_any returns; keeping `futures` alive
/// across the co_await does that. This is the one timed wait a coroutine
/// makes (an RPC attempt's deadline is a Timer in its call record), and a
/// late fulfillment stays visible through try_get().
template <typename T>
Task<bool> wait_any(std::span<const Future<T>> futures, SimTime deadline) {
  Simulator* sim = nullptr;
  std::size_t pending = 0;
  for (const Future<T>& f : futures) {
    if (!f.valid()) continue;
    if (f.ready()) co_return true;
    sim = &f.state_->event.simulator();
    ++pending;
  }
  assert(sim != nullptr && "wait_any needs a pending future");
  if (deadline <= sim->now()) co_return false;
  detail::TimedWaiter waiter(*sim, pending);
  for (const Future<T>& f : futures) {
    if (f.valid()) f.state_->event.add_waiter(waiter);
  }
  co_await detail::ParkTimed{&waiter, deadline};
  co_return waiter.signaled();
}

}  // namespace hpres::sim
