// Coroutine task type for the discrete-event simulator.
//
// `Task<T>` is a lazy coroutine: it does not run until awaited (or handed to
// `Simulator::spawn`). Awaiting a Task transfers control symmetrically into
// the child and resumes the parent when the child finishes — no simulated
// time passes across a plain Task boundary; time only advances through the
// Simulator's awaitables (delay, events, timers).
//
// Lifetime rules (C++ Core Guidelines CP.51/CP.53 apply throughout this
// project): coroutines are functions or member functions, never capturing
// lambdas, and take parameters by value so the coroutine frame owns them.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <optional>
#include <type_traits>
#include <utility>

#include "sim/frame_pool.h"

namespace hpres::sim {

namespace detail {

/// Final awaiter: resumes the awaiting ("continuation") coroutine, if any,
/// via symmetric transfer. Keeps the frame alive so the Task destructor can
/// retrieve the result and destroy it — except for a detached process
/// (Simulator::spawn), which has no owner and frees its own frame here.
template <typename Promise>
struct FinalAwaiter {
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> h) noexcept {
    Promise& p = h.promise();
    if (p.continuation) return p.continuation;
    if constexpr (requires { p.detached; }) {
      if (p.detached) {
        // A detached process has no awaiter to receive the exception;
        // escaping here is always a bug in the process itself.
        if (p.exception) std::terminate();
        h.destroy();
      }
    }
    return std::noop_coroutine();
  }
  void await_resume() const noexcept {}
};

struct PromiseBase {
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;

  std::suspend_always initial_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { exception = std::current_exception(); }

  /// Every Task frame comes from the calling thread's FramePool.
  static void* operator new(std::size_t bytes) {
    return FramePool::allocate(bytes);
  }
  static void operator delete(void* frame, std::size_t bytes) noexcept {
    FramePool::deallocate(frame, bytes);
  }
};

/// What a Task<T>'s promise adds to PromiseBase: the result slot.
template <typename T>
struct ResultSlot : PromiseBase {
  std::optional<T> value;

  template <typename U>
  void return_value(U&& v) {
    value.emplace(std::forward<U>(v));
  }
};

/// A Task<void> has no result, and may be detached (Simulator::spawn).
template <>
struct ResultSlot<void> : PromiseBase {
  bool detached = false;  ///< owned by no Task: frees itself when done

  void return_void() noexcept {}
};

}  // namespace detail

/// Lazy awaitable coroutine returning T (or void).
template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::ResultSlot<T> {
    Task get_return_object() noexcept {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    detail::FinalAwaiter<promise_type> final_suspend() noexcept { return {}; }
  };

  Task() noexcept = default;
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const noexcept {
    return static_cast<bool>(handle_);
  }
  [[nodiscard]] bool done() const noexcept {
    return handle_ && handle_.done();
  }

  /// Awaiting a Task starts it (symmetric transfer) and yields its result.
  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> handle;

      [[nodiscard]] bool await_ready() const noexcept {
        return !handle || handle.done();
      }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> awaiting) noexcept {
        handle.promise().continuation = awaiting;
        return handle;
      }
      T await_resume() {
        auto& p = handle.promise();
        if (p.exception) std::rethrow_exception(p.exception);
        if constexpr (!std::is_void_v<T>) {
          assert(p.value.has_value() && "Task finished without a value");
          return std::move(*p.value);
        }
      }
    };
    return Awaiter{handle_};
  }

  /// Internal (Simulator::spawn): gives up ownership of the unstarted
  /// frame, which destroys itself when it runs to completion.
  std::coroutine_handle<> detach() noexcept
    requires std::is_void_v<T>
  {
    handle_.promise().detached = true;
    return std::exchange(handle_, {});
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) noexcept : handle_(h) {}

  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

}  // namespace hpres::sim
