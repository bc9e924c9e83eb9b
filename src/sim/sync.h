// Synchronization primitives for simulator coroutines: one-shot Event,
// counting Semaphore, Condition, countdown Latch, and WorkerPool (a
// semaphore-guarded compute resource that charges simulated time), all
// parking their waiters on the intrusive WaitList below. Nothing waits on a
// fabric inbox: a landing schedules its node's dispatch callback
// (net::Fabric::Inbox).
//
// Lifetime invariant shared by all primitives: a coroutine suspended on a
// primitive must be kept alive until it resumes (the simulator never drops
// scheduled handles), and the primitive must outlive its waiters.
#pragma once

#include <array>
#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "sim/simulator.h"
#include "sim/task.h"

namespace hpres::sim {

namespace detail {

/// One parked coroutine, linked into a WaitList. Nodes are members of the
/// awaiters below, so they live in the suspended coroutine's frame until it
/// resumes: parking allocates nothing.
struct WaitNode {
  std::coroutine_handle<> handle;
  WaitNode* next = nullptr;
};

/// Intrusive FIFO of parked coroutines. Waking unlinks a node and schedules
/// its handle through the simulator; the coroutine runs later from the
/// event loop, so the list is never touched from inside a resumption.
class WaitList {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  void push_back(WaitNode* node) noexcept {
    node->next = nullptr;
    if (tail_ == nullptr) {
      head_ = node;
    } else {
      tail_->next = node;
    }
    tail_ = node;
    ++size_;
  }

  /// Schedules the head waiter, if any.
  void wake_one(Simulator& sim) {
    WaitNode* node = head_;
    if (node == nullptr) return;
    head_ = node->next;
    if (head_ == nullptr) tail_ = nullptr;
    --size_;
    sim.schedule(node->handle, 0);
  }

  /// Schedules every waiter in FIFO order and empties the list.
  void wake_all(Simulator& sim) {
    WaitNode* node = std::exchange(head_, nullptr);
    tail_ = nullptr;
    size_ = 0;
    while (node != nullptr) {
      WaitNode* next = node->next;
      sim.schedule(node->handle, 0);
      node = next;
    }
  }

 private:
  WaitNode* head_ = nullptr;
  WaitNode* tail_ = nullptr;
  std::size_t size_ = 0;
};

/// Parks the awaiting coroutine at the tail of `list`, unless `ready`; the
/// owning primitive resumes it by waking the list. The node lives in the
/// awaiter, i.e. in the suspended caller's frame, so parking allocates
/// nothing. Trivially destructible: g++-12 destroys a non-trivial awaiter
/// temporary twice (once at the end of the co_await full-expression, once
/// during frame cleanup).
struct Park {
  WaitList* list;
  bool ready = false;  ///< skip parking (an already-set one-shot event)
  WaitNode node{};

  [[nodiscard]] bool await_ready() const noexcept { return ready; }
  void await_suspend(std::coroutine_handle<> h) noexcept {
    node.handle = h;
    list->push_back(&node);
  }
  void await_resume() const noexcept {}
};

class TimedWaiter;

/// One registration of a TimedWaiter on an Event: a node of the event's
/// circular, doubly linked list of timed waiters, whose sentinel the event
/// holds. Either side unlinks it in O(1).
struct TimedLink {
  TimedLink* prev = nullptr;  ///< null while unlinked
  TimedLink* next = nullptr;
  TimedWaiter* waiter = nullptr;

  [[nodiscard]] bool linked() const noexcept { return prev != nullptr; }

  void link_before(TimedLink* pos) noexcept {
    prev = pos->prev;
    next = pos;
    prev->next = this;
    pos->prev = this;
  }

  void unlink() noexcept {
    prev->next = next;
    next->prev = prev;
    prev = next = nullptr;
  }
};

/// One waiter with a deadline (sim::wait_any). It lives in the waiting
/// coroutine's frame: a Timer for the deadline and one TimedLink per event
/// it waits on. The first to fire schedules the handle once — an event
/// through wake(), which disarms the timer, or the timer by expiring, which
/// later wake()s see. The destructor disarms the timer and unlinks every
/// link still registered, so nothing can reach the frame once it is gone.
class TimedWaiter {
 public:
  /// Links held inline; a waiter on more events allocates its links once.
  static constexpr std::size_t kInlineLinks = 8;

  TimedWaiter(Simulator& sim, std::size_t events)
      : sim_(&sim),
        overflow_(events > kInlineLinks
                      ? std::make_unique<TimedLink[]>(events)
                      : nullptr),
        links_(overflow_ ? overflow_.get() : inline_.data()) {}
  TimedWaiter(const TimedWaiter&) = delete;
  TimedWaiter& operator=(const TimedWaiter&) = delete;
  ~TimedWaiter() {
    sim_->disarm(&timer_);
    for (std::size_t i = 0; i < used_; ++i) {
      if (links_[i].linked()) links_[i].unlink();
    }
  }

  /// The next unused link, bound to this waiter (Event::add_waiter).
  [[nodiscard]] TimedLink* take_link() noexcept {
    TimedLink* link = &links_[used_++];
    link->waiter = this;
    return link;
  }

  /// Parks `h` until an event wakes it or, unless `deadline` is kNever,
  /// the timer expires at `deadline` (> now).
  void suspend(std::coroutine_handle<> h, SimTime deadline) {
    handle_ = h;
    timer_.wake(h);
    if (deadline != Simulator::kNever) {
      sim_->arm(&timer_, deadline - sim_->now());
    }
  }

  /// The event side of the race: schedules the handle unless an earlier
  /// event or the deadline already did.
  void wake() {
    if (signaled_ || timer_.expired()) return;
    signaled_ = true;
    sim_->disarm(&timer_);
    sim_->schedule(handle_, 0);
  }

  /// Woken by an event, not by the deadline.
  [[nodiscard]] bool signaled() const noexcept { return signaled_; }

 private:
  Simulator* sim_;
  std::coroutine_handle<> handle_;
  Timer timer_;
  bool signaled_ = false;
  std::size_t used_ = 0;
  std::array<TimedLink, kInlineLinks> inline_{};
  std::unique_ptr<TimedLink[]> overflow_;
  TimedLink* links_;
};

/// Suspends the awaiting coroutine on a registered TimedWaiter. Trivially
/// destructible for the same reason as Park.
struct ParkTimed {
  TimedWaiter* waiter;
  SimTime deadline;

  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    waiter->suspend(h, deadline);
  }
  void await_resume() const noexcept {}
};

}  // namespace detail

/// One-shot broadcast event. `co_await wait()` suspends until `set()`;
/// waiting on an already-set event completes immediately (same simulated
/// time).
class Event {
 public:
  explicit Event(Simulator& sim) noexcept : sim_(&sim) {
    timed_.prev = timed_.next = &timed_;
  }
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;
  ~Event() {
    assert(timed_.next == &timed_ && "Event destroyed under a timed waiter");
  }

  [[nodiscard]] bool is_set() const noexcept { return set_; }

  void set() {
    if (set_) return;
    set_ = true;
    // Plain waiters first, then timed ones, each in registration order.
    // A timed link leaves the list as it is visited, so set() touches no
    // waiter's frame afterwards.
    waiters_.wake_all(*sim_);
    while (timed_.next != &timed_) {
      detail::TimedLink* link = timed_.next;
      link->unlink();
      link->waiter->wake();  // a no-op if timed out or woken elsewhere
    }
  }

  /// Parks the caller itself on the event (no coroutine frame). The event
  /// is one-shot, so a woken waiter needs no re-check.
  [[nodiscard]] detail::Park wait() noexcept {
    return detail::Park{&waiters_, set_};
  }

  /// Registers a one-shot waiter that other events may share (see
  /// sim::wait_any): the first set() among them wakes it, and the rest find
  /// it woken. The event must not be set yet, and must outlive the
  /// registration (the waiter unlinks itself when it is destroyed).
  void add_waiter(detail::TimedWaiter& waiter) {
    assert(!set_ && "waiter registered on a set event");
    waiter.take_link()->link_before(&timed_);
  }

  [[nodiscard]] Simulator& simulator() const noexcept { return *sim_; }

 private:
  Simulator* sim_;
  bool set_ = false;
  detail::WaitList waiters_;
  detail::TimedLink timed_;  ///< sentinel of the timed waiters' list
};

/// Counting semaphore.
class Semaphore {
 public:
  Semaphore(Simulator& sim, std::uint32_t initial) noexcept
      : sim_(&sim), count_(initial) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  [[nodiscard]] std::uint32_t available() const noexcept { return count_; }

  /// Coroutines currently parked in acquire() (queue-depth signal).
  [[nodiscard]] std::size_t waiting() const noexcept { return waiters_.size(); }

  Task<void> acquire() {
    while (!try_acquire()) co_await park();
  }

  /// Acquires without suspending if a permit is free; false otherwise.
  bool try_acquire() noexcept {
    if (count_ == 0) return false;
    --count_;
    return true;
  }

  /// Parks the caller until the next release(); it then re-checks with
  /// try_acquire(). A hot acquirer inlines acquire() as that loop, saving
  /// acquire()'s frame.
  [[nodiscard]] detail::Park park() noexcept {
    return detail::Park{&waiters_};
  }

  void release() {
    ++count_;
    // The woken waiter re-checks: if a try_acquire() took the permit
    // first, it parks again at the tail.
    waiters_.wake_one(*sim_);
  }

 private:
  Simulator* sim_;
  std::uint32_t count_;
  detail::WaitList waiters_;
};

/// Condition variable: waiters park until notify_all(), then re-check their
/// predicate (wait() must be used inside a while-loop, as with
/// std::condition_variable).
class Condition {
 public:
  explicit Condition(Simulator& sim) noexcept : sim_(&sim) {}
  Condition(const Condition&) = delete;
  Condition& operator=(const Condition&) = delete;

  Task<void> wait() { co_await detail::Park{&waiters_}; }

  void notify_all() { waiters_.wake_all(*sim_); }

 private:
  Simulator* sim_;
  detail::WaitList waiters_;
};

/// Countdown latch: wait() completes once count_down() has been called
/// `expected` times. Used by engines to join fan-out sub-operations.
class Latch {
 public:
  Latch(Simulator& sim, std::uint32_t expected)
      : remaining_(expected), event_(sim) {
    if (remaining_ == 0) event_.set();
  }
  Latch(const Latch&) = delete;
  Latch& operator=(const Latch&) = delete;

  void count_down() {
    assert(remaining_ > 0 && "Latch::count_down past zero");
    if (--remaining_ == 0) event_.set();
  }

  [[nodiscard]] std::uint32_t remaining() const noexcept { return remaining_; }

  [[nodiscard]] detail::Park wait() noexcept { return event_.wait(); }

 private:
  std::uint32_t remaining_;
  Event event_;
};

/// A pool of identical compute workers (e.g. a server's worker threads or a
/// client's encoding cores). `execute(d)` occupies one worker for `d`
/// simulated nanoseconds, queueing when all workers are busy.
class WorkerPool {
 public:
  WorkerPool(Simulator& sim, std::uint32_t workers)
      : sim_(&sim), sem_(sim, workers), workers_(workers) {}

  [[nodiscard]] std::uint32_t size() const noexcept { return workers_; }
  [[nodiscard]] SimDur busy_time() const noexcept { return busy_ns_; }

  /// Tasks queued behind busy workers right now. Servers piggyback this on
  /// responses as a load signal for client-side read-set selection.
  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return sem_.waiting();
  }

  /// One frame per call: the permit loop is Semaphore::acquire() inlined.
  Task<void> execute(SimDur duration) {
    while (!sem_.try_acquire()) co_await sem_.park();
    co_await sim_->delay(duration);
    busy_ns_ += duration;
    sem_.release();
  }

 private:
  Simulator* sim_;
  Semaphore sem_;
  std::uint32_t workers_;
  SimDur busy_ns_ = 0;
};

}  // namespace hpres::sim
