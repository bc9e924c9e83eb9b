#include "sim/shard_runtime.h"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <iterator>
#include <thread>
#include <utility>

#include "sim/frame_pool.h"
#include "sim/task.h"

namespace hpres::sim {
namespace {

/// Cross-shard message body, run on the destination shard at its due time.
Task<void> apply_msg(std::function<void()> fn) {
  fn();
  co_return;
}

[[nodiscard]] std::uint64_t wall_ns_since(
    std::chrono::steady_clock::time_point t0,
    std::chrono::steady_clock::time_point t1) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

}  // namespace

ShardRuntime::ShardRuntime(std::size_t shards, SimDur lookahead_ns)
    : lookahead_(lookahead_ns) {
  const std::size_t n = shards == 0 ? 1 : shards;
  assert((n == 1 || lookahead_ns > 0) &&
         "parallel shards need a positive lookahead to make progress");
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Simulator>());
  }
  lanes_.resize(n * n);
  scratch_.resize(n);
  local_.resize(n);
  next_time_ = std::make_unique<std::atomic<SimTime>[]>(n);
  for (std::size_t i = 0; i < n; ++i) next_time_[i] = Simulator::kNever;
}

std::size_t ShardRuntime::add_quiesce_hook(QuiesceHook hook) {
  assert(hook && "quiesce hook must be callable");
  hooks_.push_back(std::move(hook));
  return hooks_.size() - 1;
}

void ShardRuntime::remove_quiesce_hook(std::size_t id) {
  assert(id < hooks_.size());
  hooks_[id] = nullptr;  // slot ids stay stable for other registrants
}

RuntimeProfile ShardRuntime::profile() const {
  RuntimeProfile out;
  out.shards = shards_.size();
  out.lookahead_ns = lookahead_;
  out.rounds = rounds_.load(std::memory_order_relaxed);
  const std::uint64_t advances = adv_count_.load(std::memory_order_relaxed);
  if (advances > 0) {
    out.min_advance_ns = adv_min_.load(std::memory_order_relaxed);
    out.max_advance_ns = adv_max_.load(std::memory_order_relaxed);
    out.mean_advance_ns =
        static_cast<double>(adv_sum_.load(std::memory_order_relaxed)) /
        static_cast<double>(advances);
  }
  out.per_shard.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    ShardProfile p = local_[s].p;
    p.events = shards_[s]->events_executed();
    out.per_shard.push_back(p);
  }
  return out;
}

std::uint64_t ShardRuntime::events_executed() const noexcept {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->events_executed();
  return total;
}

void ShardRuntime::post(std::size_t from, std::size_t to, SimTime due,
                        std::function<void()> fn) {
  assert(from < shards_.size() && to < shards_.size());
  Local& local = local_[from];  // post runs on `from`'s thread
  ++local.p.msgs_out;
  local.posted_min = std::min(local.posted_min, due);
  lane(from, to)[fill_.load(std::memory_order_relaxed)].push_back(
      Msg{due, static_cast<std::uint32_t>(from), std::move(fn)});
}

SimTime ShardRuntime::publish(std::size_t s) {
  Local& local = local_[s];
  const SimTime horizon =
      std::min(shards_[s]->next_event_time(), local.posted_min);
  local.posted_min = Simulator::kNever;
  return horizon;
}

void ShardRuntime::drain(std::size_t s, std::size_t parity) {
  std::vector<Msg>& msgs = scratch_[s];
  ShardProfile& prof = local_[s].p;  // drain runs on `s`'s thread
  for (std::size_t from = 0; from < shards_.size(); ++from) {
    std::vector<Msg>& in = lane(from, s)[parity];
    prof.lane_occupancy_hw =
        std::max<std::uint64_t>(prof.lane_occupancy_hw, in.size());
    std::move(in.begin(), in.end(), std::back_inserter(msgs));
    in.clear();
  }
  if (msgs.empty()) return;
  prof.msgs_in += msgs.size();
  // Canonical merge order — independent of thread interleaving: due time,
  // then source shard, then per-lane FIFO (stable sort keeps push order).
  std::stable_sort(msgs.begin(), msgs.end(), [](const Msg& a, const Msg& b) {
    if (a.due != b.due) return a.due < b.due;
    return a.from < b.from;
  });
  for (Msg& m : msgs) {
    shards_[s]->spawn_at(m.due, apply_msg(std::move(m.fn)));
  }
  msgs.clear();
}

SimTime ShardRuntime::run_hooks(SimTime min_next) noexcept {
  // Each hook applies its pending actions up to min_next and returns its
  // next action time, which caps the window so no event at or after it
  // runs before the hook acts.
  SimTime cap = Simulator::kNever;
  for (const QuiesceHook& hook : hooks_) {
    if (!hook) continue;
    const SimTime due = hook(min_next);
    assert(due == Simulator::kNever || due > min_next);
    cap = std::min(cap, due);
  }
  return cap;
}

void ShardRuntime::compute_window() noexcept {
  // The window about to run posts into the parity the last one drained.
  fill_.store(fill_.load(std::memory_order_relaxed) ^ 1,
              std::memory_order_relaxed);
  SimTime min_next = Simulator::kNever;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    min_next =
        std::min(min_next, next_time_[i].load(std::memory_order_relaxed));
  }
  // Every shard thread is parked in the barrier, so hooks may mutate
  // cross-shard state freely.
  const SimTime cap = run_hooks(min_next);
  if (min_next == Simulator::kNever) {
    done_.store(true, std::memory_order_relaxed);
    return;
  }
  SimTime end = min_next > Simulator::kNever - lookahead_
                    ? Simulator::kNever
                    : min_next + lookahead_;
  if (cap < end) end = cap;
  if (end != Simulator::kNever) {
    // Sim-time gained this round; hook caps shorten it deterministically.
    const SimTime prev = prev_window_end_.load(std::memory_order_relaxed);
    const SimTime adv = end > prev ? end - prev : 0;
    const std::uint64_t n = adv_count_.load(std::memory_order_relaxed);
    if (n == 0 || adv < adv_min_.load(std::memory_order_relaxed)) {
      adv_min_.store(adv, std::memory_order_relaxed);
    }
    if (adv > adv_max_.load(std::memory_order_relaxed)) {
      adv_max_.store(adv, std::memory_order_relaxed);
    }
    adv_sum_.fetch_add(adv, std::memory_order_relaxed);
    adv_count_.store(n + 1, std::memory_order_relaxed);
    prev_window_end_.store(end, std::memory_order_relaxed);
  }
  window_.store(end, std::memory_order_relaxed);
  rounds_.fetch_add(1, std::memory_order_relaxed);
}

SimTime ShardRuntime::run() {
  if (!parallel()) {
    // One shard: hook-capped windows on the calling thread, no threads and
    // no barriers. Without hooks the cap is kNever and this is exactly one
    // Simulator::run(). Windows end strictly before the cap and leave the
    // clock at the last executed event, so a cap never reorders events and
    // the returned time is the last event's. Posts (none from the fabric
    // with one shard) are still honoured so tests exercise the API
    // uniformly: the parity never flips, so each drain takes the posts of
    // the window before it.
    const auto t0 = std::chrono::steady_clock::now();
    Simulator& sim = *shards_[0];
    for (;;) {
      drain(0, fill_.load(std::memory_order_relaxed));
      const SimTime min_next = publish(0);
      const SimTime cap = run_hooks(min_next);
      if (min_next == Simulator::kNever) break;
      sim.run(cap);
    }
    local_[0].p.busy_wall_ns +=
        wall_ns_since(t0, std::chrono::steady_clock::now());
    return sim.now();
  }
  const std::size_t n = shards_.size();
  done_.store(false, std::memory_order_relaxed);

  const auto completion = [this]() noexcept { compute_window(); };
  std::barrier<std::decay_t<decltype(completion)>> round(
      static_cast<std::ptrdiff_t>(n), completion);

  const auto worker = [&](std::size_t s) {
    Simulator& sim = *shards_[s];
    ShardProfile& prof = local_[s].p;
    auto mark = std::chrono::steady_clock::now();
    const auto lap = [&mark]() {
      const auto now = std::chrono::steady_clock::now();
      const std::uint64_t ns = wall_ns_since(mark, now);
      mark = now;
      return ns;
    };
    while (true) {
      next_time_[s].store(publish(s), std::memory_order_relaxed);
      prof.busy_wall_ns += lap();
      round.arrive_and_wait();  // completion: hooks, window_ / done_, parity
      prof.stall_wall_ns += lap();
      if (done_.load(std::memory_order_relaxed)) break;
      // Every other shard's posts from the previous window are visible past
      // the barrier; this window's posts go to the other parity.
      drain(s, fill_.load(std::memory_order_relaxed) ^ 1);
      sim.run_window(window_.load(std::memory_order_relaxed));
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(n - 1);
  for (std::size_t s = 1; s < n; ++s) threads.emplace_back(worker, s);
  worker(0);  // the calling thread drives shard 0
  for (std::thread& t : threads) t.join();
  // As Simulator::run does when idle: the worker threads' cached frames
  // went back to the heap as they exited, the calling thread's go now.
  detail::FramePool::trim();

  SimTime end = 0;
  for (const auto& s : shards_) end = std::max(end, s->now());
  return end;
}

}  // namespace hpres::sim
