#include "sim/simulator.h"

#include "sim/frame_pool.h"

namespace hpres::sim {

void Simulator::spawn(Task<void> task) {
  if (!task.valid()) return;
  // Start from the event loop (never nested inside the spawner) so process
  // start order is FIFO-deterministic at the current simulated time.
  schedule(task.detach(), 0);
}

void Simulator::spawn_at(SimTime at, Task<void> task) {
  if (!task.valid()) return;
  assert(at >= now_ && "spawn_at in the past");
  schedule(task.detach(), at - now_);
}

void Simulator::arm(Timer* timer, SimDur delay) {
  assert(!timer->armed() && "Timer armed twice");
  assert(delay >= 0 && "negative arm() delay");
  timer->at_ = now_ + (delay < 0 ? 0 : delay);
  timer->seq_ = next_seq_++;
  timers_.push_back(timer);
  timer->slot_ = timers_.size() - 1;
  sift_up(timer->slot_);
}

void Simulator::disarm(Timer* timer) noexcept {
  if (!timer->armed()) return;
  erase_timer(timer->slot_);
  timer->slot_ = Timer::kIdle;
}

void Simulator::erase_timer(std::size_t slot) noexcept {
  Timer* last = timers_.back();
  timers_.pop_back();
  if (slot == timers_.size()) return;  // it was the last leaf
  place(last, slot);
  if (slot > 0 && earlier(*last, *timers_[(slot - 1) / 2])) {
    sift_up(slot);
  } else {
    sift_down(slot);
  }
}

void Simulator::sift_up(std::size_t slot) noexcept {
  Timer* timer = timers_[slot];
  while (slot > 0) {
    const std::size_t parent = (slot - 1) / 2;
    if (!earlier(*timer, *timers_[parent])) break;
    place(timers_[parent], slot);
    slot = parent;
  }
  place(timer, slot);
}

void Simulator::sift_down(std::size_t slot) noexcept {
  Timer* timer = timers_[slot];
  const std::size_t n = timers_.size();
  for (;;) {
    std::size_t child = 2 * slot + 1;
    if (child >= n) break;
    if (child + 1 < n && earlier(*timers_[child + 1], *timers_[child])) {
      ++child;
    }
    if (!earlier(*timers_[child], *timer)) break;
    place(timers_[child], slot);
    slot = child;
  }
  place(timer, slot);
}

void Simulator::drain(SimTime last) {
  for (;;) {
    if (ready_head_ < ready_.size()) {
      // Every ready entry is due at now_, so a heap event or a timer runs
      // first only if it is also due at now_ with an earlier sequence.
      const Scheduled& head = ready_[ready_head_];
      if (head.at > last) return;
      const bool heap_first = !queue_.empty() && precedes(queue_.top(), head);
      const bool timer_first =
          !timers_.empty() && precedes(*timers_.front(), head);
      if (!heap_first && !timer_first) {
        const std::uintptr_t item = head.item;
        if (++ready_head_ == ready_.size()) {
          ready_.clear();
          ready_head_ = 0;
        }
        ++executed_;
        run_item(item);
        continue;
      }
    }
    if (!timers_.empty() &&
        (queue_.empty() || precedes(*timers_.front(), queue_.top()))) {
      Timer* timer = timers_.front();
      if (timer->at_ > last) return;
      erase_timer(0);
      timer->slot_ = Timer::kExpired;
      now_ = timer->at_;
      ++executed_;
      push(timer->item_, 0);
      continue;
    }
    if (queue_.empty() || queue_.top().at > last) return;
    const Scheduled item = queue_.top();
    queue_.pop();
    now_ = item.at;
    ++executed_;
    run_item(item.item);
  }
}

SimTime Simulator::run(SimTime before) {
  drain(before - 1);
  // Nothing is left in flight: the cached frames go back to the heap, so
  // the pool retains no more than one run's peak.
  if (idle()) detail::FramePool::trim();
  return now_;
}

SimTime Simulator::run_until(SimTime deadline) {
  drain(deadline);
  assert((now_ >= deadline || ready_head_ == ready_.size()) &&
         "clock advanced past a ready event");
  if (now_ < deadline) now_ = deadline;
  return now_;
}

SimTime Simulator::run_window(SimTime end) {
  drain(end - 1);
  assert((now_ >= end || ready_head_ == ready_.size()) &&
         "clock advanced past a ready event");
  if (now_ < end) now_ = end;
  return now_;
}

}  // namespace hpres::sim
