// The allocation budget of one RPC hop. Waiting on a simulator primitive
// allocates nothing: a parked coroutine's wait-list node lives in its own
// suspended frame. Coroutine frames and Promise states come from the
// thread's FramePool, which Simulator::run empties whenever it returns
// idle, so each budget is pinned twice: from a cold pool (the first use
// after an idle run) and from a warm one (while the simulator is kept
// awake). A spawned process costs only its own frame, a worker charge one
// frame, a fabric delivery and overwriting a resident store key nothing,
// and a fragment key one string; a whole Client->Server Get round trip is
// pinned with and without a deadline, and an answered deadline wait
// leaves no timer behind. A whole erasure Get and Set through the engine
// are pinned too, and a degraded materialized Get that decodes. Nothing
// outlives a drained run: once a cluster has run dry and is destroyed,
// every block it allocated is freed. This file replaces the global
// operator new and delete with counting ones, so it builds as its own test
// executable (test_sim_alloc) and the counters reach no other suite.
#include <cstddef>
#include <cstdlib>
#include <new>
#include <optional>
#include <span>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "common/bytes.h"
#include "ec/cost_model.h"
#include "ec/rs_vandermonde.h"
#include "kv/client.h"
#include "kv/server.h"
#include "kv/store.h"
#include "net/fabric.h"
#include "resilience/factory.h"
#include "sim/frame_pool.h"
#include "sim/future.h"
#include "sim/sync.h"

namespace {
std::size_t g_allocations = 0;
std::size_t g_frees = 0;

void* counted_malloc(std::size_t size) noexcept {
  ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

void counted_free(void* p) noexcept {
  if (p != nullptr) ++g_frees;
  std::free(p);
}
}  // namespace

// The replacements pair malloc with free by construction. GCC cannot see
// that once it inlines a delete into a caller that allocated through
// operator new, and warns.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace hpres::sim {
namespace {

/// Keeps `object` observable so the optimizer cannot drop its construction
/// (and with it the allocations under test).
template <typename T>
void escape(T& object) {
  asm volatile("" : : "g"(&object) : "memory");
}

/// Heap allocations made while constructing a T from `args` (the object is
/// destroyed afterwards; frees are not counted).
template <typename T, typename... Args>
std::size_t construct_allocations(Args&... args) {
  const std::size_t before = g_allocations;
  std::optional<T> object;
  object.emplace(args...);
  escape(object);
  return g_allocations - before;
}

/// Keeps `sim` from going idle while it lives: a far-off armed timer, so
/// a run bounded before it (run_awake) never empties the frame pool.
class KeepAwake {
 public:
  static constexpr SimDur kFar = units::kSecond;

  explicit KeepAwake(Simulator& sim) : sim_(&sim) {
    timer_.wake(std::noop_coroutine());
    sim.arm(&timer_, kFar);
  }
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;
  ~KeepAwake() { sim_->disarm(&timer_); }

 private:
  Simulator* sim_;
  Timer timer_;
};

/// Runs every event before the KeepAwake timer; the pool stays warm.
void run_awake(Simulator& sim) { sim.run(sim.now() + KeepAwake::kFar / 2); }

TEST(SimAlloc, ConstructingPrimitivesAllocatesNothing) {
  Simulator sim;
  std::uint32_t count = 3;
  EXPECT_EQ(construct_allocations<Event>(sim), 0u);
  EXPECT_EQ(construct_allocations<Latch>(sim, count), 0u);
  EXPECT_EQ(construct_allocations<Semaphore>(sim, count), 0u);
  EXPECT_EQ(construct_allocations<Condition>(sim), 0u);
  // A Promise owns one pooled shared state; its Event adds nothing. The
  // first takes a block from the heap, the next reuses it.
  detail::FramePool::trim();
  EXPECT_EQ(construct_allocations<Promise<int>>(sim), 1u);
  EXPECT_EQ(construct_allocations<Promise<int>>(sim), 0u);
  detail::FramePool::trim();
}

Task<void> wait_on(Event* ev) { co_await ev->wait(); }

TEST(SimAlloc, SetWakingParkedWaitersAllocatesNothing) {
  Simulator sim;
  // Round 0 is the warm-up: it grows the event queue to its capacity.
  for (int round = 0; round < 2; ++round) {
    Event ev(sim);
    for (int i = 0; i < 8; ++i) sim.spawn(wait_on(&ev));
    sim.run();  // all eight park
    const std::size_t before = g_allocations;
    ev.set();
    sim.run();  // all eight resume and finish
    if (round == 1) {
      EXPECT_EQ(g_allocations - before, 0u);
    }
  }
}

Task<void> acquire_once(Semaphore* sem, bool* acquired) {
  co_await sem->acquire();
  *acquired = true;
}

TEST(SimAlloc, SemaphoreHandoffAllocatesNothing) {
  Simulator sim;
  Semaphore sem(sim, 1);
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(sem.try_acquire());
    bool acquired = false;
    sim.spawn(acquire_once(&sem, &acquired));
    sim.run();  // parks: the permit is held
    ASSERT_FALSE(acquired);
    const std::size_t before = g_allocations;
    sem.release();
    sim.run();  // the parked waiter takes the permit
    ASSERT_TRUE(acquired);
    if (round == 1) {
      EXPECT_EQ(g_allocations - before, 0u);
    }
    sem.release();
  }
}

Task<void> finish_at_once() { co_return; }

/// Runs one process so the event queue has grown its capacity.
void warm_up(Simulator& sim) {
  sim.spawn(finish_at_once());
  sim.run();
}

TEST(SimAlloc, SpawnAllocatesOnlyTheTaskFrame) {
  Simulator sim;
  warm_up(sim);  // its idle run() empties the pool
  std::size_t before = g_allocations;
  sim.spawn(finish_at_once());
  sim.run();
  EXPECT_EQ(g_allocations - before, 1u);

  // Kept awake, the finished frame stays pooled and the next spawn
  // reuses it.
  const KeepAwake awake(sim);
  sim.spawn(finish_at_once());
  run_awake(sim);
  before = g_allocations;
  sim.spawn(finish_at_once());
  run_awake(sim);
  EXPECT_EQ(g_allocations - before, 0u);
}

Task<void> await_future(const Future<int>* future, int* out) {
  *out = co_await future->wait();
}

template <typename Waitable>
Task<void> await_wait(Waitable* waitable, bool* done) {
  co_await waitable->wait();
  *done = true;
}

/// Allocations made while the spawned `process` parks on a pending
/// primitive and `fire` wakes it. The process frame itself is allocated
/// before counting starts.
template <typename Fire>
std::size_t park_and_wake_allocations(Simulator& sim, Task<void> process,
                                      Fire fire) {
  sim.spawn(std::move(process));
  const std::size_t before = g_allocations;
  sim.run();  // the process parks
  fire();
  sim.run();  // it resumes and finishes
  return g_allocations - before;
}

TEST(SimAlloc, AwaitingPendingFutureEventOrLatchAllocatesNothing) {
  Simulator sim;
  warm_up(sim);

  Promise<int> promise(sim);
  const Future<int> future = promise.get_future();
  int value = 0;
  EXPECT_EQ(park_and_wake_allocations(sim, await_future(&future, &value),
                                      [&] { promise.set_value(7); }),
            0u);
  EXPECT_EQ(value, 7);

  Event event(sim);
  bool event_done = false;
  EXPECT_EQ(park_and_wake_allocations(sim, await_wait(&event, &event_done),
                                      [&] { event.set(); }),
            0u);
  EXPECT_TRUE(event_done);

  Latch latch(sim, 1);
  bool latch_done = false;
  EXPECT_EQ(park_and_wake_allocations(sim, await_wait(&latch, &latch_done),
                                      [&] { latch.count_down(); }),
            0u);
  EXPECT_TRUE(latch_done);
}

Task<void> charge_worker(WorkerPool* pool, SimDur duration) {
  co_await pool->execute(duration);
}

TEST(SimAlloc, WorkerPoolExecuteAllocatesOneFrame) {
  Simulator sim;
  WorkerPool pool(sim, 1);
  const auto charge_twice = [&](bool awake) {
    // The second charge queues behind the first on the single worker.
    sim.spawn(charge_worker(&pool, 100));
    sim.spawn(charge_worker(&pool, 100));
    const std::size_t before = g_allocations;
    if (awake) {
      run_awake(sim);
    } else {
      sim.run();
    }
    return g_allocations - before;
  };
  charge_twice(false);  // warms the event queue up
  // From the pool the idle run() emptied: one frame per charge.
  EXPECT_EQ(charge_twice(false), 2u);
  const KeepAwake awake(sim);
  charge_twice(true);  // leaves its frames pooled
  EXPECT_EQ(charge_twice(true), 0u);
  EXPECT_EQ(pool.busy_time(), 800);
}

TEST(SimAlloc, StoreOverwriteOfResidentKeyAllocatesNothing) {
  kv::StorageEngine store(1 << 20);
  const kv::Key key = kv::chunk_key("user0000000000042", 3);
  ASSERT_EQ(key.size(), 19u);  // past the small-string buffer
  const kv::ChunkInfo chunk{16384, 3, 3, 2};
  const SharedBytes first = make_shared_bytes(make_pattern(64, 1));
  const SharedBytes second = make_shared_bytes(make_pattern(64, 2));
  ASSERT_TRUE(store.set(key, first, chunk).ok());
  const std::size_t before = g_allocations;
  const Status status = store.set(key, second, chunk);
  EXPECT_EQ(g_allocations - before, 0u);
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(store.items(), 1u);
}

TEST(SimAlloc, StoreInsertOfNewFragmentKeyAllocatesNothing) {
  kv::StorageEngine store(1 << 20);
  const kv::ChunkInfo chunk{16384, 3, 3, 2};
  const SharedBytes value = make_shared_bytes(make_pattern(64, 1));
  // The first insert allocates the entry page and the probe table; both
  // then have room for the next one.
  ASSERT_TRUE(store.set(kv::chunk_key("user0000000000041", 3), value, chunk)
                  .ok());
  const kv::Key key = kv::chunk_key("user0000000000042", 3);
  ASSERT_EQ(key.size(), 19u);  // past the small-string buffer
  std::size_t before = g_allocations;
  ASSERT_TRUE(store.set(key, value, chunk).ok());
  EXPECT_EQ(g_allocations - before, 0u);

  // A key past the 22 inline bytes takes exactly its own heap buffer.
  const kv::Key long_key(23, 'k');
  before = g_allocations;
  ASSERT_TRUE(store.set(long_key, value, chunk).ok());
  EXPECT_EQ(g_allocations - before, 1u);
  EXPECT_EQ(store.items(), 3u);
}

TEST(SimAlloc, ChunkKeyAllocatesOnce) {
  const kv::Key base = "user000000000042";
  ASSERT_EQ(base.size(), 16u);
  const std::size_t before = g_allocations;
  const kv::Key key = kv::chunk_key(base, 3);
  EXPECT_EQ(g_allocations - before, 1u);
  EXPECT_EQ(key, base + "\x01" "3");
}

/// Sums the bodies node `id` receives, from a dispatch callback bound to
/// its inbox.
class SumReceiver : public Callback {
 public:
  SumReceiver(net::Fabric<int>& fabric, net::NodeId id)
      : Callback{&SumReceiver::dispatch}, inbox_(&fabric.inbox(id)) {
    inbox_->bind(this);
  }
  SumReceiver(const SumReceiver&) = delete;
  SumReceiver& operator=(const SumReceiver&) = delete;
  ~SumReceiver() { inbox_->bind(nullptr); }

  int sum = 0;

 private:
  static void dispatch(Callback* cb) {
    auto* self = static_cast<SumReceiver*>(cb);
    while (std::optional<net::Envelope<int>> env = self->inbox_->try_recv()) {
      self->sum += env->body;
    }
    self->inbox_->drained();
  }

  net::Fabric<int>::Inbox* inbox_;
};

TEST(SimAlloc, FabricDeliveryAllocatesNothing) {
  Simulator sim;
  net::Fabric<int> fabric(sim, net::FabricParams{}, 2);
  SumReceiver receiver(fabric, 1);
  // The first delivery warms up the record pool and the event queues.
  fabric.send(0, 1, 1, 4096);
  sim.run();
  ASSERT_EQ(receiver.sum, 1);
  const std::size_t before = g_allocations;
  fabric.send(0, 1, 2, 4096);
  sim.run();
  EXPECT_EQ(g_allocations - before, 0u);
  EXPECT_EQ(receiver.sum, 3);
  EXPECT_EQ(fabric.stats().messages_delivered, 2u);
}

Task<void> get_once(kv::Client* client, kv::NodeId server, kv::Request req,
                    kv::Response* out) {
  const Future<kv::Response> f = client->call(server, std::move(req));
  *out = co_await f.wait();
}

/// Allocations of one Client->Server kGet round trip under `policy`, from
/// the issuing call() to the caller's resume with the response. A first
/// round trip warms up the event queues, the slot table and the delivery
/// pools; the issuing process frame is allocated before counting starts.
/// `warm`: the simulator is kept awake, so the first round trip's frames,
/// call record and Promise state stay pooled for the second.
std::size_t get_round_trip_allocations(kv::RpcPolicy policy, bool warm) {
  Simulator sim;
  kv::KvFabric fabric(sim, net::FabricParams{}, 2);
  kv::Server server(sim, fabric, 0, kv::ServerParams{});
  kv::Client client(sim, fabric, 1);
  client.set_policy(policy);
  server.start();
  client.start();
  const kv::Key key = kv::chunk_key("user0000000000042", 3);
  EXPECT_TRUE(server.store()
                  .set(key, make_shared_bytes(make_pattern(4096, 1)))
                  .ok());
  kv::Request get;
  get.verb = kv::Verb::kGet;
  get.key = key;
  std::optional<KeepAwake> awake;
  if (warm) awake.emplace(sim);
  std::size_t allocations = 0;
  for (int round = 0; round < 2; ++round) {
    kv::Response resp;
    sim.spawn(get_once(&client, server.id(), get, &resp));
    const std::size_t before = g_allocations;
    if (warm) {
      run_awake(sim);
    } else {
      sim.run();
    }
    allocations = g_allocations - before;
    EXPECT_EQ(resp.code, StatusCode::kOk);
    EXPECT_EQ(resp.value ? resp.value->size() : 0u, 4096u);
  }
  return allocations;
}

TEST(SimAlloc, RpcGetRoundTripBudget) {
  // From a cold pool: the caller's Promise state, its call record, the
  // server's handler frame and one worker frame, which its two charges
  // (dispatch, then the read) take in turn. The slot table and both
  // deliveries are recycled by their owners.
  EXPECT_EQ(get_round_trip_allocations(kv::RpcPolicy{}, false), 4u);
  // A deadline adds nothing: the call record runs the guarded call's steps
  // and holds its deadline Timer, arming reuses the timer heap's capacity,
  // and a single attempt sends the request itself, not a copy.
  EXPECT_EQ(get_round_trip_allocations(
                kv::RpcPolicy{.timeout_ns = units::kMillisecond}, false),
            4u);
  // From a warm pool the whole round trip allocates nothing.
  EXPECT_EQ(get_round_trip_allocations(kv::RpcPolicy{}, true), 0u);
  EXPECT_EQ(get_round_trip_allocations(
                kv::RpcPolicy{.timeout_ns = units::kMillisecond}, true),
            0u);
  // An attempt that may be retried sends a copy and keeps the request:
  // the copy's key (past the small-string buffer) is the one allocation.
  EXPECT_EQ(get_round_trip_allocations(
                kv::RpcPolicy{.timeout_ns = units::kMillisecond,
                              .max_retries = 1},
                true),
            1u);
}

Task<void> await_with_deadline(Simulator* sim, const Future<int>* future,
                               SimDur timeout, bool* ready, bool* idle) {
  *ready = co_await wait_any<int>(std::span<const Future<int>>(future, 1),
                                  sim->now() + timeout);
  *idle = sim->idle();
}

TEST(SimAlloc, AnsweredDeadlineWaitLeavesNothingArmed) {
  Simulator sim;
  for (int round = 0; round < 2; ++round) {  // round 0 warms the heaps up
    Promise<int> promise(sim);
    const Future<int> future = promise.get_future();
    bool ready = false;
    bool idle = false;
    sim.spawn(await_with_deadline(&sim, &future, units::kMillisecond, &ready,
                                  &idle));
    const std::size_t before = g_allocations;
    const SimTime signal_at = sim.run_until(sim.now() + 100);  // it parks
    promise.set_value(1);
    // The answer disarmed the deadline: the run ends at the signal
    // instant, where nothing is queued or armed.
    EXPECT_EQ(sim.run(), signal_at);
    EXPECT_TRUE(ready);
    EXPECT_TRUE(idle);
    EXPECT_EQ(sim.armed_timers(), 0u);
    if (round == 1) {
      // Only the wait_any frame: the waiter and its Timer live inside it.
      EXPECT_EQ(g_allocations - before, 1u);
    }
  }
}

Task<void> set_then_get(kv::Client* client, kv::NodeId server, int keys,
                        int* ok) {
  for (int i = 0; i < keys; ++i) {
    kv::Request set;
    set.verb = kv::Verb::kSet;
    set.key = kv::chunk_key("user0000000000042", static_cast<std::size_t>(i));
    set.value = make_shared_bytes(make_pattern(1024, static_cast<std::uint64_t>(i)));
    kv::Request get;
    get.verb = kv::Verb::kGet;
    get.key = set.key;
    const Future<kv::Response> set_done = client->call(server, std::move(set));
    if ((co_await set_done.wait()).code == StatusCode::kOk) ++*ok;
    const Future<kv::Response> get_done = client->call(server, std::move(get));
    if ((co_await get_done.wait()).code == StatusCode::kOk) ++*ok;
  }
}

/// Live heap blocks left behind by building a three-server cluster,
/// running Set/Get round trips from its client until it drains, destroying
/// it and trimming the frame pool.
std::size_t blocks_left_by_cluster_run() {
  const std::size_t live = g_allocations - g_frees;
  int ok = 0;
  {
    cluster::ClusterConfig config;
    config.num_servers = 3;
    cluster::Cluster cl(config);
    cl.start();
    for (std::size_t s = 0; s < cl.num_servers(); ++s) {
      cl.sim().spawn(set_then_get(&cl.client(0), cl.server_nodes()[s], 4,
                                  &ok));
    }
    cl.run();
  }
  detail::FramePool::trim();
  const std::size_t left = g_allocations - g_frees - live;
  EXPECT_EQ(ok, 24);
  return left;
}

TEST(SimAlloc, DrainedClusterLeavesNoFrameBehind) {
  blocks_left_by_cluster_run();  // builds what the process keeps for good
  // No node's dispatch, handler or worker frame is still parked.
  EXPECT_EQ(blocks_left_by_cluster_run(), 0u);
}

Task<void> engine_op(resilience::Engine* engine, kv::Key key,
                     SharedBytes value, bool* ok) {
  if (value) {
    *ok = (co_await engine->set(std::move(key), std::move(value))).ok();
  } else {
    *ok = (co_await engine->get(std::move(key))).ok();
  }
}

/// How erasure_op_allocations drives its op.
struct ErasureOp {
  bool get = true;           ///< a Get of the key a Set stored first
  bool materialize = false;  ///< real payloads, encoded and decoded
  bool fail_slot0 = false;   ///< the owner of slot 0 fails after the Set
};

/// Allocations of one Era-CE-CD op over RS(3,2) on 5 servers, with the
/// frame pool warm: the op runs once to warm it up and is counted the
/// second time. A Get reads the key a Set stored first. The issuing
/// process frame, with the key moved into it, is allocated before
/// counting.
std::size_t erasure_op_allocations(ErasureOp op) {
  const ec::RsVandermondeCodec codec(3, 2);
  const ec::CostModel cost =
      ec::CostModel::defaults(ec::Scheme::kRsVandermonde, 3, 2);
  cluster::ClusterConfig config;
  config.num_servers = 5;
  cluster::Cluster cl(config);
  const std::unique_ptr<resilience::Engine> engine = resilience::make_engine(
      resilience::Design::kEraCeCd,
      cl.engine_context(0, op.materialize), 3, &codec, cost);
  cl.start();
  const kv::Key key = "user0000000000042";
  const SharedBytes value = make_shared_bytes(make_pattern(1024, 42));
  const KeepAwake awake(cl.sim());
  bool ok = false;
  cl.sim().spawn(engine_op(engine.get(), key, value, &ok));
  run_awake(cl.sim());
  EXPECT_TRUE(ok);
  if (op.fail_slot0) cl.fail_server(cl.ring().place(key).owner(0));
  std::size_t allocations = 0;
  for (int round = 0; round < 2; ++round) {
    ok = false;
    cl.sim().spawn(engine_op(engine.get(), key, op.get ? nullptr : value, &ok));
    const std::size_t before = g_allocations;
    run_awake(cl.sim());
    allocations = g_allocations - before;
    EXPECT_TRUE(ok);
  }
  return allocations;
}

TEST(SimAlloc, ErasureGetAllocationBudget) {
  // The k = 3 fragment keys and the assembled value. Masks, the read set,
  // owners, fetch futures and fragments live in the op's frame.
  EXPECT_EQ(erasure_op_allocations({.get = true}), 4u);
}

TEST(SimAlloc, ErasureDegradedGetAllocationBudget) {
  // Slot 0's owner is down, so the Get binds a parity fragment and decodes
  // data slot 0 into the engine's warm scratch buffer, reading the fetched
  // fragments in place: as healthy, the 3 fragment keys and the value.
  EXPECT_EQ(erasure_op_allocations(
                {.get = true, .materialize = true, .fail_slot0 = true}),
            4u);
}

TEST(SimAlloc, ErasureSetAllocationBudget) {
  // The encoded fragment list (its slots share one cached zero buffer) and
  // the n = 5 fragment keys. The fan-out's futures and owners live in the
  // op's frame.
  EXPECT_EQ(erasure_op_allocations({.get = false}), 6u);
}

}  // namespace
}  // namespace hpres::sim
