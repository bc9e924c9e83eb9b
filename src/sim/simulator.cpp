#include "sim/simulator.h"

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

SimTime Simulator::run(SimTime before) {
  while (!queue_.empty() && queue_.top().at < before) {
    const Scheduled item = queue_.top();
    queue_.pop();
    now_ = item.at;
    ++executed_;
    item.handle.resume();
  }
  return now_;
}

SimTime Simulator::run_until(SimTime deadline) {
  while (!queue_.empty() && queue_.top().at <= deadline) {
    const Scheduled item = queue_.top();
    queue_.pop();
    now_ = item.at;
    ++executed_;
    item.handle.resume();
  }
  if (now_ < deadline) now_ = deadline;
  return now_;
}

SimTime Simulator::run_window(SimTime end) {
  while (!queue_.empty() && queue_.top().at < end) {
    const Scheduled item = queue_.top();
    queue_.pop();
    now_ = item.at;
    ++executed_;
    item.handle.resume();
  }
  if (now_ < end) now_ = end;
  return now_;
}

}  // namespace hpres::sim
