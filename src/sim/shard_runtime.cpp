#include "sim/shard_runtime.h"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <thread>
#include <utility>

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
  lanes_.reserve(n * n);
  for (std::size_t i = 0; i < n * n; ++i) {
    lanes_.push_back(std::make_unique<Lane>(kLaneCapacity));
  }
  scratch_.resize(n);
  prof_.resize(n);
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
    ShardProfile p = prof_[s].p;
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
  Lane& ln = lane(from, to);
  ShardProfile& prof = prof_[from].p;  // post runs on `from`'s thread
  ++prof.msgs_out;
  Msg m{due, static_cast<std::uint32_t>(from), std::move(fn)};
  if (ln.ring.try_push(std::move(m))) return;
  // Ring full: spill under a lock. The spill preserves lane FIFO order
  // because a full ring stays full until the next barrier drain, so all
  // later pushes in this window spill too.
  ++prof.spills_out;
  const std::lock_guard<std::mutex> lock(ln.spill_mu);
  ln.spill.push_back(std::move(m));
}

void ShardRuntime::drain(std::size_t s) {
  std::vector<Msg>& msgs = scratch_[s];
  ShardProfile& prof = prof_[s].p;  // drain runs on `s`'s thread
  msgs.clear();
  for (std::size_t from = 0; from < shards_.size(); ++from) {
    Lane& ln = lane(from, s);
    const std::size_t before = msgs.size();
    Msg m;
    while (ln.ring.try_pop(m)) msgs.push_back(std::move(m));
    {
      const std::lock_guard<std::mutex> lock(ln.spill_mu);
      for (Msg& sp : ln.spill) msgs.push_back(std::move(sp));
      ln.spill.clear();
    }
    prof.lane_occupancy_hw =
        std::max<std::uint64_t>(prof.lane_occupancy_hw, msgs.size() - before);
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
    // uniformly.
    const auto t0 = std::chrono::steady_clock::now();
    Simulator& sim = *shards_[0];
    for (;;) {
      drain(0);
      const SimTime min_next = sim.next_event_time();
      const SimTime cap = run_hooks(min_next);
      if (min_next == Simulator::kNever) break;
      sim.run(cap);
    }
    prof_[0].p.busy_wall_ns +=
        wall_ns_since(t0, std::chrono::steady_clock::now());
    return sim.now();
  }
  const std::size_t n = shards_.size();
  done_.store(false, std::memory_order_relaxed);

  const auto completion = [this]() noexcept { compute_window(); };
  std::barrier<std::decay_t<decltype(completion)>> horizon(
      static_cast<std::ptrdiff_t>(n), completion);
  std::barrier<> window_done(static_cast<std::ptrdiff_t>(n));

  const auto worker = [&](std::size_t s) {
    Simulator& sim = *shards_[s];
    ShardProfile& prof = prof_[s].p;
    auto mark = std::chrono::steady_clock::now();
    const auto lap = [&mark]() {
      const auto now = std::chrono::steady_clock::now();
      const std::uint64_t ns = wall_ns_since(mark, now);
      mark = now;
      return ns;
    };
    while (true) {
      // Phase A: merge inbound messages, publish this shard's horizon.
      drain(s);
      next_time_[s].store(sim.next_event_time(), std::memory_order_relaxed);
      prof.busy_wall_ns += lap();
      horizon.arrive_and_wait();  // completion computes window_ / done_
      prof.stall_wall_ns += lap();
      if (done_.load(std::memory_order_relaxed)) break;
      // Phase B: run the window in parallel. Cross-shard sends land in the
      // lanes and are merged by their targets at the next Phase A.
      sim.run_window(window_.load(std::memory_order_relaxed));
      prof.busy_wall_ns += lap();
      window_done.arrive_and_wait();  // all sends visible before next drain
      prof.stall_wall_ns += lap();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(n - 1);
  for (std::size_t s = 1; s < n; ++s) threads.emplace_back(worker, s);
  worker(0);  // the calling thread drives shard 0
  for (std::thread& t : threads) t.join();

  SimTime end = 0;
  for (const auto& s : shards_) end = std::max(end, s->now());
  return end;
}

}  // namespace hpres::sim
