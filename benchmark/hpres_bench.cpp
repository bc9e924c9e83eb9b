// hpres_bench — the repository's end-to-end benchmark program.
//
// Runs one YCSB workload against the single-threaded simulation oracle
// (SDSC-Comet testbed, 5 servers, Era-CE-CD over RS(3,2)) and measures it on
// both clocks: simulated latency and throughput (the paper's Figs 11-12) and
// the host time the reproduction itself spends. Clients are closed loop:
// each keeps one blocking op outstanding.
//
//   hpres_bench --workload=<name> --seed=<n> [--traced] [--scale=<f>]
//               [--seconds=<s>] [--shared-keys] [--intact-restart]
//
// A run repeats identical rounds (fresh cluster, preload, measured pass,
// post-pass checks) until --seconds of wall time are used, and at least
// kMinRounds times. Simulated results must agree across rounds exactly; host
// times are reported as medians over rounds. --traced adds the per-layer
// run: a full round's layer counters, a traced and an untraced rerun of a
// short prefix (critical-path phases per op), and timed probes of single
// modules. --shared-keys and --intact-restart select the two defect probes
// described in benchmark/README.md.
//
// Prints one JSON object. Exits 1 when a harness invariant fails (the JSON
// is still printed, with "correct": false), 2 on bad arguments.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <sys/resource.h>

#include "cluster/fault_schedule.h"
#include "cluster/testbeds.h"
#include "ec/chunker.h"
#include "ec/rs_vandermonde.h"
#include "inputs.h"
#include "obs/critical_path.h"
#include "resilience/factory.h"
#include "resilience/repair.h"

#ifndef HPRES_BENCH_BUILD_TYPE
#define HPRES_BENCH_BUILD_TYPE "unknown"
#endif

namespace hpres::benchmark {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string_view name;
  double read_fraction;
  std::size_t value_size;
  std::size_t clients;
  std::uint64_t records;
  std::uint64_t ops_per_client;
  /// Real bytes end to end: every Get is verified and a readback sweep
  /// checks every record after the pass.
  bool materialize;
  /// RPC deadlines, hedged reads, a mid-run crash with an empty restart,
  /// then repair_all.
  bool crash;
};

// Why each workload exists is recorded in benchmark/README.md.
constexpr Workload kWorkloads[] = {
    {"ycsb-a-16k", 0.50, 16 * 1024, 150, 50'000, 1'000, false, false},
    {"ycsb-b-1k-wide", 0.95, 1024, 150, 100'000, 1'000, false, false},
    {"ycsb-a-64k-bytes", 0.50, 64 * 1024, 32, 4'096, 2'500, true, false},
    {"ycsb-b-16k-crash", 0.95, 16 * 1024, 32, 10'000, 2'500, true, true},
};

constexpr std::size_t kServers = 5;
constexpr std::size_t kK = 3;
constexpr std::size_t kM = 2;
/// A failed op is re-issued by its client, after a doubling backoff, up to
/// this many attempts in total: what an application does with a Set that
/// timed out while a dead server was not yet detected. Corrupt reads are
/// never retried.
constexpr int kMaxAttempts = 4;
constexpr SimDur kRetryBackoffNs = 200 * units::kMicrosecond;
/// Traced reruns cover the first ceil(kTracedOps / clients) ops per client:
/// a 75k-op traced prefix of ycsb-a-16k needed 1.35 GB for its spans.
constexpr std::uint64_t kTracedOps = 25'000;
/// Host-time medians need at least two rounds after the first.
constexpr std::size_t kMinRounds = 3;

// Crash schedule of ycsb-b-16k-crash, stated at its 2,500 ops/client and
// scaled with the ops each client actually runs (about 1/3 and 4/7 of the
// pass).
constexpr std::size_t kCrashedServer = 1;
constexpr std::uint64_t kCrashRefOps = 2'500;
constexpr SimDur kCrashAtNs = 25 * units::kMillisecond;
constexpr SimDur kRestartAtNs = 44 * units::kMillisecond;
constexpr SimDur kDetectionLagNs = 500 * units::kMicrosecond;

kv::RpcPolicy crash_policy() {
  kv::RpcPolicy policy;
  policy.timeout_ns = 2 * units::kMillisecond;
  policy.max_retries = 2;
  policy.backoff_ns = 200 * units::kMicrosecond;
  return policy;
}

/// A workload sized for one run.
struct Plan {
  const Workload* w = nullptr;
  std::uint64_t records = 0;
  std::uint64_t ops_per_client = 0;
  /// Materialized workloads give each client its own slice of the records:
  /// the store keeps no per-key version, so overlapping same-key ops can
  /// return torn values (README, defect a). --shared-keys turns this off.
  bool partitioned = false;
  /// The crashed server restarts empty, as an in-memory server does.
  /// --intact-restart keeps its store (README, defect c).
  bool wipe = true;
};

// ---------------------------------------------------------------------------
// Cluster rig

const cluster::Testbed& testbed() {
  static const cluster::Testbed bed = cluster::sdsc_comet();
  return bed;
}

/// The cluster plus one engine per client, all on one codec and cost model.
class Rig {
 public:
  Rig(const Plan& plan, obs::Tracer* tracer)
      : codec_(kK, kM),
        cost_(ec::CostModel::defaults(ec::Scheme::kRsVandermonde, kK, kM,
                                      testbed().cpu_factor)),
        cluster_(cluster::make_config(testbed(), kServers, plan.w->clients)) {
    cluster_.enable_server_ec(codec_, cost_, plan.w->materialize);
    if (plan.w->crash) cluster_.set_rpc_policy(crash_policy());
    if (tracer != nullptr) {
      pid_ = tracer->declare_process(std::string(plan.w->name));
      cluster_.set_tracer(tracer, pid_);
    }
    resilience::HedgeParams hedge;
    if (plan.w->crash) {
      hedge.delta = 1;
      hedge.load_aware = true;
    }
    for (std::size_t i = 0; i < plan.w->clients; ++i) {
      resilience::EngineContext ctx = context(i, plan.w->materialize);
      ctx.tracer = cluster_.tracer_for_client(i);
      ctx.trace_pid = pid_;
      engines_.push_back(resilience::make_engine(
          resilience::Design::kEraCeCd, ctx, /*rep_factor=*/3, &codec_, cost_,
          {}, hedge));
    }
    cluster_.start();
  }

  [[nodiscard]] cluster::Cluster& cluster() noexcept { return cluster_; }
  [[nodiscard]] sim::Simulator& sim() noexcept { return cluster_.sim(); }
  [[nodiscard]] resilience::Engine& engine(std::size_t i) {
    return *engines_.at(i);
  }
  [[nodiscard]] std::size_t engines() const noexcept {
    return engines_.size();
  }
  [[nodiscard]] const ec::Codec& codec() const noexcept { return codec_; }
  [[nodiscard]] const ec::CostModel& cost() const noexcept { return cost_; }
  [[nodiscard]] std::uint32_t pid() const noexcept { return pid_; }

  [[nodiscard]] resilience::EngineContext context(std::size_t client,
                                                  bool materialize) {
    resilience::EngineContext ctx;
    ctx.sim = &cluster_.sim();
    ctx.client = &cluster_.client(client);
    ctx.ring = &cluster_.ring();
    ctx.membership = &cluster_.membership();
    ctx.server_nodes = &cluster_.server_nodes();
    ctx.materialize = materialize;
    return ctx;
  }

 private:
  ec::RsVandermondeCodec codec_;
  ec::CostModel cost_;
  cluster::Cluster cluster_;
  std::vector<std::unique_ptr<resilience::Engine>> engines_;
  std::uint32_t pid_ = 0;
};

/// Layer counters summed over the cluster; passes report deltas.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_dropped = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t rendezvous = 0;
  std::uint64_t store_ops = 0;
  std::uint64_t store_hits = 0;
  std::uint64_t store_misses = 0;
  std::uint64_t rpc_timeouts = 0;
  std::uint64_t rpc_retries = 0;
  std::uint64_t gets = 0;
  std::uint64_t degraded_gets = 0;
  std::uint64_t failover_fetches = 0;
  std::uint64_t hedges_fired = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t hedge_wasted_bytes = 0;
  std::uint64_t window_waits = 0;
  std::uint64_t admitted = 0;

  [[nodiscard]] Counters operator-(const Counters& b) const {
    Counters d;
    d.events = events - b.events;
    d.msgs_sent = msgs_sent - b.msgs_sent;
    d.msgs_dropped = msgs_dropped - b.msgs_dropped;
    d.bytes_sent = bytes_sent - b.bytes_sent;
    d.rendezvous = rendezvous - b.rendezvous;
    d.store_ops = store_ops - b.store_ops;
    d.store_hits = store_hits - b.store_hits;
    d.store_misses = store_misses - b.store_misses;
    d.rpc_timeouts = rpc_timeouts - b.rpc_timeouts;
    d.rpc_retries = rpc_retries - b.rpc_retries;
    d.gets = gets - b.gets;
    d.degraded_gets = degraded_gets - b.degraded_gets;
    d.failover_fetches = failover_fetches - b.failover_fetches;
    d.hedges_fired = hedges_fired - b.hedges_fired;
    d.hedge_wins = hedge_wins - b.hedge_wins;
    d.hedge_wasted_bytes = hedge_wasted_bytes - b.hedge_wasted_bytes;
    d.window_waits = window_waits - b.window_waits;
    d.admitted = admitted - b.admitted;
    return d;
  }
};

Counters snapshot(Rig& rig) {
  cluster::Cluster& cl = rig.cluster();
  Counters c;
  c.events = cl.runtime().events_executed();
  const net::FabricStats& f = cl.fabric().stats();
  c.msgs_sent = f.messages_sent;
  c.msgs_dropped = f.messages_dropped;
  c.bytes_sent = f.bytes_sent;
  c.rendezvous = f.rendezvous_handshakes;
  for (std::size_t s = 0; s < cl.num_servers(); ++s) {
    const kv::StoreStats& st = cl.server(s).store().stats();
    c.store_ops += st.set_ops + st.get_ops;
    c.store_hits += st.hits;
    c.store_misses += st.misses;
    c.rpc_timeouts += cl.server(s).rpc_stats().timeouts;
    c.rpc_retries += cl.server(s).rpc_stats().retries;
  }
  for (std::size_t i = 0; i < rig.engines(); ++i) {
    c.rpc_timeouts += cl.client(i).rpc_stats().timeouts;
    c.rpc_retries += cl.client(i).rpc_stats().retries;
    const resilience::EngineStats& e = rig.engine(i).stats();
    c.gets += e.gets;
    c.degraded_gets += e.degraded_gets;
    c.failover_fetches += e.failover_fetches;
    c.hedges_fired += e.hedges_fired;
    c.hedge_wins += e.hedge_wins;
    c.hedge_wasted_bytes += e.hedge_wasted_bytes;
    c.window_waits += rig.engine(i).arpe().stats().window_waits;
    c.admitted += rig.engine(i).arpe().stats().admitted;
  }
  return c;
}

// ---------------------------------------------------------------------------
// One pass: preload, measured ops, optional repair and readback sweep.

/// Everything a pass's simulated clock produced. Two runs of one seed must
/// produce equal summaries, whatever the host did.
struct SimSummary {
  std::uint64_t ops = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t failed = 0;    ///< ops still erroring after every attempt
  std::uint64_t corrupt = 0;   ///< Gets whose bytes match no write
  std::uint64_t retries = 0;   ///< re-issued attempts
  SimDur makespan_ns = 0;
  SimDur read_p50_ns = 0;
  SimDur read_p999_ns = 0;
  SimDur write_p50_ns = 0;
  SimDur write_p99_ns = 0;
  std::uint64_t latency_digest = 0;  ///< FNV-1a of every op latency
  std::uint64_t lost_keys = 0;
  std::uint64_t fragments = 0;  ///< stored items after the pass
  std::uint64_t bytes_used = 0;

  bool operator==(const SimSummary&) const = default;
};

struct RepairOutcome {
  resilience::RepairStats stats;
  SimDur sim_ns = 0;
  double host_s = 0.0;
};

struct PassResult {
  SimSummary sim;
  Counters layer;   ///< measured-pass deltas
  Counters totals;  ///< preload plus measured pass
  std::uint64_t index_entries = 0;
  std::uint32_t trace_pid = 0;
  std::size_t faults_fired = 0;
  RepairOutcome repair;
  double setup_s = 0.0;
  double run_s = 0.0;
  std::vector<std::string> violations;  ///< harness invariants that failed
};

struct PassOptions {
  std::uint64_t ops_per_client = 0;
  obs::Tracer* tracer = nullptr;  ///< enabled after the preload when set
  bool post = true;               ///< repair + readback sweep
};

/// Write history of one record, kept for materialized workloads.
struct RecordState {
  std::uint64_t last_tag = 0;  ///< tag of the last Set issued (0 = preload)
  std::uint32_t writers = 0;   ///< Sets in flight
  bool last_acked = true;      ///< that Set succeeded
  bool contended = false;      ///< two Sets ever overlapped
};

/// State the client coroutines of one pass share (single-threaded oracle).
struct PassState {
  const Plan* plan = nullptr;
  const OpStreams* ops = nullptr;
  const std::vector<std::string>* keys = nullptr;
  const Payloads* payloads = nullptr;  ///< null for size-only workloads
  SharedBytes zero_value;
  std::uint64_t ops_per_client = 0;
  std::vector<std::uint64_t> issued;  ///< ops started, per client
  std::vector<RecordState> records;   ///< materialized workloads only
  std::vector<SimDur> read_ns;
  std::vector<SimDur> write_ns;
  SimSummary* sim = nullptr;
  std::size_t running = 0;
  SimTime end = 0;

  [[nodiscard]] SharedBytes value(std::uint32_t key, std::uint64_t tag) const {
    return payloads != nullptr ? payloads->make(key, tag) : zero_value;
  }

  /// True when `v` is a value some issued Set (or the preload) wrote to
  /// `key`; stores the writer tag in *tag.
  bool verify(const Bytes& v, std::uint32_t key, std::uint64_t* tag) const {
    if (payloads == nullptr) return v.size() == plan->w->value_size;
    const std::optional<std::uint64_t> t = payloads->tag_of(v, key);
    if (!t) return false;
    *tag = *t;
    if (*t == 0) return true;
    const std::uint64_t client = (*t >> 32) - 1;
    const std::uint64_t index = *t & 0xffffffffULL;
    if (client >= issued.size() || index >= issued[client]) return false;
    const Op& op = ops->per_client[client][index];
    return op.is_set && op.key == key;
  }
};

sim::Task<void> preload_proc(resilience::Engine* engine, PassState* st,
                             std::uint64_t first, std::uint64_t last) {
  for (std::uint64_t id = first; id < last; ++id) {
    (void)engine->iset((*st->keys)[id],
                       st->value(static_cast<std::uint32_t>(id), 0));
    if ((id - first + 1) % 64 == 0) co_await engine->wait_all();
  }
  co_await engine->wait_all();
}

sim::Task<void> client_proc(sim::Simulator* sim, resilience::Engine* engine,
                            PassState* st, std::size_t c) {
  const std::vector<Op>& ops = st->ops->per_client[c];
  SimSummary& out = *st->sim;
  for (std::uint64_t i = 0; i < st->ops_per_client; ++i) {
    const Op op = ops[i];
    const std::string& key = (*st->keys)[op.key];
    st->issued[c] = i + 1;
    const SimTime t0 = sim->now();
    bool ok = false;
    if (op.is_set) {
      const std::uint64_t tag = Payloads::client_tag(c, i);
      const SharedBytes value = st->value(op.key, tag);
      RecordState* rec = st->records.empty() ? nullptr : &st->records[op.key];
      if (rec != nullptr) {
        if (rec->writers++ > 0) rec->contended = true;
        rec->last_tag = tag;
      }
      for (int attempt = 0; attempt < kMaxAttempts && !ok; ++attempt) {
        if (attempt > 0) {
          ++out.retries;
          co_await sim->delay(kRetryBackoffNs << (attempt - 1));
        }
        ok = (co_await engine->set(key, value)).ok();
      }
      if (rec != nullptr) {
        --rec->writers;
        if (rec->last_tag == tag) rec->last_acked = ok;
      }
      ++out.writes;
      st->write_ns.push_back(sim->now() - t0);
    } else {
      std::optional<Result<Bytes>> got;
      for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
        if (attempt > 0) {
          ++out.retries;
          co_await sim->delay(kRetryBackoffNs << (attempt - 1));
        }
        got.emplace(co_await engine->get(key));
        if (got->ok()) break;
      }
      ++out.reads;
      st->read_ns.push_back(sim->now() - t0);
      std::uint64_t tag = 0;
      ok = got->ok();
      if (ok && !st->verify(got->value(), op.key, &tag)) ++out.corrupt;
    }
    ++out.ops;
    if (!ok) ++out.failed;
  }
  if (--st->running == 0) st->end = sim->now();
}

/// Reads back records first, first + stride, ...; a record is lost when it
/// is unreadable, matches no write, or its last Set was acknowledged (with
/// no overlapping Set) yet another value comes back.
sim::Task<void> sweep_proc(resilience::Engine* engine, PassState* st,
                           std::uint64_t first, std::uint64_t stride) {
  for (std::uint64_t id = first; id < st->plan->records; id += stride) {
    const RecordState& rec = st->records[id];
    const Result<Bytes> got = co_await engine->get((*st->keys)[id]);
    std::uint64_t tag = 0;
    const bool intact =
        got.ok() && st->verify(got.value(), static_cast<std::uint32_t>(id),
                               &tag);
    if (!intact || (rec.last_acked && !rec.contended && tag != rec.last_tag)) {
      ++st->sim->lost_keys;
    }
  }
}

/// Empties a crashed server's store at its restart instant: the restarted
/// process has lost all its memory, including Sets its handlers completed
/// after the crash. (A wipe at the crash instant keeps those late writes as
/// stale fragments; README, defect d.)
sim::Task<void> wipe_at(sim::Simulator* sim, kv::StorageEngine* store,
                        SimTime at) {
  co_await sim->delay(at - sim->now());
  store->clear();
}

sim::Task<void> repair_proc(resilience::RepairCoordinator* repair) {
  (void)co_await repair->repair_all();
}

SimDur percentile(std::vector<SimDur> v, double q) {
  if (v.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

std::uint64_t fnv(std::uint64_t h, const std::vector<SimDur>& v) {
  for (const SimDur x : v) h = (h ^ static_cast<std::uint64_t>(x)) * 0x100000001B3ULL;
  return h;
}

PassResult run_pass(const Plan& plan, const OpStreams& ops,
                    const std::vector<std::string>& keys,
                    const Payloads* payloads, const PassOptions& opt) {
  const Workload& w = *plan.w;
  PassResult res;
  const auto violate = [&res](std::string what) {
    res.violations.push_back(std::move(what));
  };

  PassState st;
  st.plan = &plan;
  st.ops = &ops;
  st.keys = &keys;
  st.payloads = payloads;
  st.zero_value = zero_bytes(w.value_size);
  st.ops_per_client = opt.ops_per_client;
  st.issued.assign(w.clients, 0);
  st.sim = &res.sim;
  if (payloads != nullptr) {
    st.records.assign(plan.records, RecordState{});
  }
  st.read_ns.reserve(w.clients * opt.ops_per_client);
  st.write_ns.reserve(w.clients * opt.ops_per_client);

  const Clock::time_point setup_t0 = Clock::now();
  Rig rig(plan, opt.tracer);
  cluster::Cluster& cl = rig.cluster();
  {
    const std::size_t loaders = std::min<std::size_t>(8, w.clients);
    const std::uint64_t stride = (plan.records + loaders - 1) / loaders;
    for (std::size_t l = 0; l < loaders; ++l) {
      const std::uint64_t first = l * stride;
      const std::uint64_t last = std::min(first + stride, plan.records);
      if (first < last) {
        rig.sim().spawn(preload_proc(&rig.engine(l), &st, first, last));
      }
    }
    cl.run();
  }
  res.setup_s = seconds_since(setup_t0);
  std::uint64_t preloaded = 0;
  for (std::size_t s = 0; s < cl.num_servers(); ++s) {
    preloaded += cl.server(s).store().items();
  }
  if (preloaded != plan.records * (kK + kM)) {
    violate("preload stored " + std::to_string(preloaded) +
            " fragments, expected " +
            std::to_string(plan.records * (kK + kM)));
  }

  // Measured pass.
  if (opt.tracer != nullptr) opt.tracer->set_enabled(true);
  const SimTime start = cl.now_quiesced();
  cluster::FaultSchedule faults(cl, kDetectionLagNs);
  if (w.crash) {
    const auto at = [&](SimDur ref) {
      return start + static_cast<SimDur>(
                         static_cast<double>(ref) *
                         static_cast<double>(opt.ops_per_client) /
                         static_cast<double>(kCrashRefOps));
    };
    faults.add_crash(at(kCrashAtNs), kCrashedServer, /*wipe_store=*/false);
    faults.add_restart(at(kRestartAtNs), kCrashedServer);
    faults.arm();
    if (plan.wipe) {
      rig.sim().spawn(wipe_at(&rig.sim(),
                              &cl.server(kCrashedServer).store(),
                              at(kRestartAtNs)));
    }
  }
  const Counters before = snapshot(rig);
  st.running = w.clients;
  for (std::size_t c = 0; c < w.clients; ++c) {
    rig.sim().spawn(client_proc(&rig.sim(), &rig.engine(c), &st, c));
  }
  const Clock::time_point run_t0 = Clock::now();
  cl.run();
  res.run_s = seconds_since(run_t0);
  res.totals = snapshot(rig);
  res.layer = res.totals - before;
  res.trace_pid = rig.pid();
  res.faults_fired = faults.fired();
  if (opt.tracer != nullptr) opt.tracer->set_enabled(false);

  SimSummary& sim = res.sim;
  sim.makespan_ns = st.end - start;
  sim.read_p50_ns = percentile(st.read_ns, 0.50);
  sim.read_p999_ns = percentile(st.read_ns, 0.999);
  sim.write_p50_ns = percentile(st.write_ns, 0.50);
  sim.write_p99_ns = percentile(st.write_ns, 0.99);
  sim.latency_digest =
      fnv(fnv(0xcbf29ce484222325ULL, st.read_ns), st.write_ns);
  for (std::size_t s = 0; s < cl.num_servers(); ++s) {
    res.index_entries += cl.server(s).store().items();
  }

  if (sim.ops != w.clients * opt.ops_per_client) {
    violate("completed " + std::to_string(sim.ops) + " ops, expected " +
            std::to_string(w.clients * opt.ops_per_client));
  }
  if (w.crash && res.faults_fired != 2) {
    violate("faults_fired " + std::to_string(res.faults_fired) +
            ", expected 2");
  }

  if (opt.post) {
    if (w.crash) {
      resilience::RepairCoordinator repair(rig.context(0, w.materialize),
                                           rig.codec(), rig.cost());
      const SimTime t0 = cl.now_quiesced();
      const Clock::time_point host_t0 = Clock::now();
      rig.sim().spawn(repair_proc(&repair));
      cl.run();
      res.repair.host_s = seconds_since(host_t0);
      res.repair.sim_ns = cl.now_quiesced() - t0;
      res.repair.stats = repair.stats();
    }
    if (payloads != nullptr) {
      for (std::size_t c = 0; c < w.clients; ++c) {
        rig.sim().spawn(sweep_proc(&rig.engine(c), &st, c, w.clients));
      }
      cl.run();
    }
  }

  const net::FabricStats& f = cl.fabric().stats();
  if (f.messages_sent != f.messages_delivered + f.messages_dropped ||
      f.bytes_sent != f.bytes_delivered + f.bytes_dropped ||
      cl.fabric().in_flight_bytes() != 0) {
    violate("fabric conservation: sent " + std::to_string(f.messages_sent) +
            " != delivered " + std::to_string(f.messages_delivered) +
            " + dropped " + std::to_string(f.messages_dropped) +
            " with " + std::to_string(cl.fabric().in_flight_bytes()) +
            " bytes in flight");
  }
  for (std::size_t s = 0; s < cl.num_servers(); ++s) {
    sim.fragments += cl.server(s).store().items();
  }
  sim.bytes_used = cl.total_bytes_used();
  return res;
}

// ---------------------------------------------------------------------------
// Probes: timed loops over one module's public entry point, at the
// workload's own sizes and keys.

/// Probe results land here so the compiler cannot drop the probed calls.
volatile std::uint64_t g_sink = 0;

/// Each probe is timed this many times and reports the median: one timing
/// alone moves by several times when a neighbour on the host is busy.
constexpr int kProbeRepeats = 5;

/// Grows the iteration count until one `body(iterations)` call takes at
/// least 20 ms, then times kProbeRepeats calls of that size; returns the
/// median host ns per iteration.
template <typename Body>
double ns_per_iteration(Body body) {
  std::uint64_t n = 1'000;
  for (; n < (1ULL << 34); n *= 4) {
    const Clock::time_point t0 = Clock::now();
    body(n);
    if (seconds_since(t0) >= 0.02) break;
  }
  std::vector<double> ns;
  for (int rep = 0; rep < kProbeRepeats; ++rep) {
    const Clock::time_point t0 = Clock::now();
    body(n);
    ns.push_back(seconds_since(t0) * 1e9 / static_cast<double>(n));
  }
  return median(std::move(ns));
}

sim::Task<void> probe_sleeper(sim::Simulator* sim, std::uint64_t wakeups) {
  for (std::uint64_t i = 0; i < wakeups; ++i) {
    co_await sim->delay(static_cast<SimDur>(1 + i % 7));
  }
}

/// 150 processes (one per client of the widest workload) sleeping 2,000
/// times each: the schedule/resume cost of one event.
double probe_sim_ns_per_event() {
  std::vector<double> ns;
  for (int rep = 0; rep < kProbeRepeats; ++rep) {
    const Clock::time_point t0 = Clock::now();
    sim::Simulator sim;
    for (int p = 0; p < 150; ++p) sim.spawn(probe_sleeper(&sim, 2'000));
    sim.run();
    ns.push_back(seconds_since(t0) * 1e9 /
                 static_cast<double>(sim.events_executed()));
  }
  return median(std::move(ns));
}

struct StoreProbe {
  double get_ns = 0.0;
  double set_ns = 0.0;
};

StoreProbe probe_store(const Plan& plan, const OpStreams& ops,
                       const std::vector<std::string>& keys,
                       std::uint64_t index_entries) {
  const std::size_t frag =
      ec::make_layout(plan.w->value_size, kK, 1).fragment_size;
  const SharedBytes value = zero_bytes(frag);
  const std::uint64_t per_server = std::max<std::uint64_t>(
      1, index_entries / kServers);
  kv::StorageEngine store(1ULL << 62);
  for (std::uint64_t i = 0; i < per_server; ++i) {
    (void)store.set(kv::chunk_key(keys[i % plan.records], i / plan.records),
                    value);
  }
  // Probe keys follow the workload's own op stream, folded into the index.
  std::vector<kv::Key> probe;
  for (const Op& op : ops.per_client[0]) {
    const std::uint64_t i = op.key % per_server;
    probe.push_back(kv::chunk_key(keys[i % plan.records], i / plan.records));
  }
  StoreProbe out;
  out.get_ns = ns_per_iteration([&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      (void)store.get(probe[i % probe.size()]);
    }
  });
  out.set_ns = ns_per_iteration([&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      (void)store.set(probe[i % probe.size()], value);
    }
  });
  return out;
}

double probe_ring_ns(const OpStreams& ops,
                     const std::vector<std::string>& keys) {
  const kv::HashRing ring(kServers);
  const std::vector<Op>& stream = ops.per_client[0];
  return ns_per_iteration([&](std::uint64_t n) {
    std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      sink += ring.primary_index(keys[stream[i % stream.size()].key]);
    }
    g_sink = sink;
  });
}

double probe_encode_gbps(std::size_t value_size) {
  const ec::RsVandermondeCodec codec(kK, kM);
  const std::size_t frag = ec::make_layout(value_size, kK, 1).fragment_size;
  std::vector<Bytes> data;
  for (std::size_t i = 0; i < kK; ++i) data.push_back(make_pattern(frag, i));
  std::vector<Bytes> parity(kM, Bytes(frag));
  const std::vector<ConstByteSpan> in(data.begin(), data.end());
  std::vector<ByteSpan> out(parity.begin(), parity.end());
  const double ns = ns_per_iteration([&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) codec.encode(in, out);
  });
  return static_cast<double>(kK * frag) / ns;  // bytes per ns == GB/s
}

double probe_keygen_ns(const Plan& plan, std::uint64_t seed) {
  const ScrambledZipf zipf(plan.records);
  Xoshiro256 rng(seed);
  return ns_per_iteration([&](std::uint64_t n) {
    std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t id = zipf.next(rng);
      sink += record_key(id).size() +
              (rng.next_double() < plan.w->read_fraction ? 1U : 0U);
    }
    g_sink = sink;
  });
}

double probe_verify_ns(const Plan& plan, const Payloads* payloads) {
  PassState st;
  st.plan = &plan;
  st.payloads = payloads;
  st.issued.assign(plan.w->clients, 0);
  const Bytes value = payloads != nullptr ? Bytes(*payloads->make(7, 0))
                                          : Bytes(plan.w->value_size);
  return ns_per_iteration([&](std::uint64_t n) {
    std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      std::uint64_t tag = 0;
      sink += st.verify(value, 7, &tag) ? 1U : 0U;
    }
    g_sink = sink;
  });
}

/// The process's resident-set high-water mark (Linux reports it in KiB).
double peak_rss_mib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string_view unit;
};

void append_number(std::string& out, double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

double per(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

double us(SimDur ns) { return units::to_us(ns); }

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double scale = 1.0;
  double seconds = 0.0;
  bool traced = false;
  bool shared_keys = false;
  bool intact_restart = false;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "hpres_bench: %s\nusage: hpres_bench --workload=<name> "
               "--seed=<n> [--traced] [--scale=<f>] [--seconds=<s>] "
               "[--shared-keys] [--intact-restart]\n"
               "workloads:",
               why);
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()),
                 w.name.data());
  }
  std::fputc('\n', stderr);
  return 2;
}

bool parse_number(std::string_view text, double* out) {
  const auto r = std::from_chars(text.data(), text.data() + text.size(), *out);
  return r.ec == std::errc{} && r.ptr == text.data() + text.size();
}

bool parse_options(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    double v = 0.0;
    if (arg.starts_with("--workload=")) {
      const std::string_view name = arg.substr(11);
      for (const Workload& w : kWorkloads) {
        if (w.name == name) opt->workload = &w;
      }
      if (opt->workload == nullptr) return false;
    } else if (arg.starts_with("--seed=")) {
      if (!parse_number(arg.substr(7), &v) || v < 0 || v != std::floor(v)) {
        return false;
      }
      opt->seed = static_cast<std::uint64_t>(v);
    } else if (arg.starts_with("--scale=")) {
      if (!parse_number(arg.substr(8), &v) || !(v > 0.0 && v <= 4.0)) {
        return false;
      }
      opt->scale = v;
    } else if (arg.starts_with("--seconds=")) {
      if (!parse_number(arg.substr(10), &v) || !(v >= 0.0 && v <= 600.0)) {
        return false;
      }
      opt->seconds = v;
    } else if (arg == "--traced") {
      opt->traced = true;
    } else if (arg == "--shared-keys") {
      opt->shared_keys = true;
    } else if (arg == "--intact-restart") {
      opt->intact_restart = true;
    } else {
      return false;
    }
  }
  return opt->workload != nullptr;
}

Plan make_plan(const Options& opt) {
  const Workload& w = *opt.workload;
  Plan plan;
  plan.w = &w;
  plan.partitioned = w.materialize && !opt.shared_keys;
  plan.wipe = !opt.intact_restart;
  plan.ops_per_client = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::llround(static_cast<double>(w.ops_per_client) * opt.scale)));
  std::uint64_t records = std::max<std::uint64_t>(
      w.clients, static_cast<std::uint64_t>(std::llround(
                     static_cast<double>(w.records) * opt.scale)));
  if (plan.partitioned) records -= records % w.clients;
  plan.records = records;
  return plan;
}

/// Critical-path phase means over all ops of one kind and over its slowest
/// 1%, in simulated µs per op.
void add_cp_metrics(std::vector<Metric>& out, const char* kind,
                    const std::vector<obs::OpAttribution>& ops) {
  obs::PhaseAggregate all;
  obs::PhaseAggregate tail;
  for (const obs::OpAttribution& op : ops) all.add(op);
  for (const obs::OpAttribution* op : obs::slowest_fraction(ops, 0.01)) {
    tail.add(*op);
  }
  for (const auto& [suffix, agg] :
       {std::pair<const char*, const obs::PhaseAggregate*>{"", &all},
        {"_tail", &tail}}) {
    for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
      const std::string phase(obs::to_string(static_cast<obs::Phase>(p)));
      out.push_back({std::string("cp.") + kind + suffix + "." + phase + "_us",
                     per(static_cast<std::uint64_t>(agg->phase_ns[p]),
                         agg->count) / 1e3,
                     "sim_us"});
    }
  }
}

/// Per-layer metrics of a traced run: counters of the first full round, the
/// traced prefix's critical path, and the module probes.
void add_layer_metrics(std::vector<Metric>& m,
                       std::vector<std::string>& violations, const Plan& plan,
                       const OpStreams& ops,
                       const std::vector<std::string>& keys,
                       const Payloads* payloads, const PassResult& r0,
                       std::uint64_t seed) {
  const Workload& w = *plan.w;
  const SimSummary& s = r0.sim;
  const Counters& c = r0.layer;
  const double host_ns_per_op =
      r0.run_s * 1e9 / static_cast<double>(s.ops);
  m.push_back({"sim.events_per_op", per(c.events, s.ops), "count"});
  m.push_back({"sim.host_ns_per_event",
               r0.run_s * 1e9 / static_cast<double>(c.events), "ns"});
  m.push_back({"sim.probe_ns_per_event", probe_sim_ns_per_event(), "ns"});
  m.push_back({"net.msgs_per_op", per(c.msgs_sent, s.ops), "count"});
  m.push_back({"net.kib_per_op", per(c.bytes_sent, s.ops) / 1024.0, "KiB"});
  m.push_back({"net.rendezvous_per_op", per(c.rendezvous, s.ops), "count"});
  m.push_back({"net.dropped_per_op", per(c.msgs_dropped, s.ops), "count"});
  m.push_back({"kv.store_ops_per_op", per(c.store_ops, s.ops), "count"});
  m.push_back({"kv.store_hit_rate",
               per(c.store_hits, c.store_hits + c.store_misses), "ratio"});
  m.push_back({"kv.index_entries", static_cast<double>(r0.index_entries),
               "count"});
  m.push_back({"kv.rpc_timeouts_per_kop", per(c.rpc_timeouts, s.ops) * 1e3,
               "count"});
  m.push_back({"kv.rpc_retries_per_kop", per(c.rpc_retries, s.ops) * 1e3,
               "count"});
  const StoreProbe store = probe_store(plan, ops, keys, r0.index_entries);
  m.push_back({"kv.probe_store_get_ns", store.get_ns, "ns"});
  m.push_back({"kv.probe_store_set_ns", store.set_ns, "ns"});
  m.push_back({"kv.probe_ring_lookup_ns", probe_ring_ns(ops, keys), "ns"});
  m.push_back({"ec.probe_encode_gbps", probe_encode_gbps(w.value_size),
               "GB/s"});
  m.push_back({"resilience.degraded_get_frac", per(c.degraded_gets, c.gets),
               "ratio"});
  m.push_back({"resilience.failover_per_kget",
               per(c.failover_fetches, c.gets) * 1e3, "count"});
  m.push_back({"resilience.hedges_per_get", per(c.hedges_fired, c.gets),
               "count"});
  m.push_back({"resilience.hedge_win_frac", per(c.hedge_wins, c.hedges_fired),
               "ratio"});
  m.push_back({"resilience.hedge_wasted_kib_per_get",
               per(c.hedge_wasted_bytes, c.gets) / 1024.0, "KiB"});
  m.push_back({"resilience.arpe_window_wait_frac",
               per(r0.totals.window_waits, r0.totals.admitted), "ratio"});
  m.push_back({"resilience.repair_sim_ms", units::to_ms(r0.repair.sim_ns),
               "sim_ms"});
  m.push_back({"resilience.repair_host_s", r0.repair.host_s, "s"});
  m.push_back({"resilience.repair_keys_scanned",
               static_cast<double>(r0.repair.stats.keys_scanned), "count"});
  m.push_back({"resilience.repair_fragments_rebuilt",
               static_cast<double>(r0.repair.stats.fragments_rebuilt),
               "count"});
  m.push_back({"resilience.repair_mib_read",
               static_cast<double>(r0.repair.stats.bytes_read) /
                   static_cast<double>(units::kMiB),
               "MiB"});
  m.push_back({"cluster.faults_fired", static_cast<double>(r0.faults_fired),
               "count"});
  m.push_back({"workload.probe_keygen_ns", probe_keygen_ns(plan, seed), "ns"});
  m.push_back({"workload.verify_ns_per_get", probe_verify_ns(plan, payloads),
               "ns"});
  m.push_back({"workload.corrupt_reads", static_cast<double>(s.corrupt),
               "count"});
  m.push_back({"workload.retries", static_cast<double>(s.retries), "count"});
  m.push_back({"workload.host_ns_per_op", host_ns_per_op, "ns"});

  // The same seed's first ops, untraced and traced. The tracer never feeds
  // back into the simulation, so both must agree on the simulated clock.
  PassOptions prefix;
  prefix.ops_per_client = std::min<std::uint64_t>(
      plan.ops_per_client, (kTracedOps + w.clients - 1) / w.clients);
  prefix.post = false;
  const PassResult plain = run_pass(plan, ops, keys, payloads, prefix);
  obs::Tracer tracer(false);
  prefix.tracer = &tracer;
  const PassResult traced = run_pass(plan, ops, keys, payloads, prefix);
  for (const PassResult* r : {&plain, &traced}) {
    for (const std::string& v : r->violations) violations.push_back(v);
  }
  if (!(traced.sim == plain.sim)) {
    violations.push_back("traced prefix diverged from the untraced prefix");
  }
  const obs::CriticalPathAnalysis cp =
      obs::analyze_critical_path(tracer.tagged_spans(traced.trace_pid));
  std::vector<obs::OpAttribution> gets;
  std::vector<obs::OpAttribution> sets;
  std::uint64_t unbalanced = 0;
  for (const obs::OpAttribution& op : cp.ops) {
    if (op.phase_sum() != op.total_ns) ++unbalanced;
    if (op.op == "get") gets.push_back(op);
    if (op.op == "set") sets.push_back(op);
  }
  if (unbalanced != 0) {
    violations.push_back(std::to_string(unbalanced) +
                         " traced ops whose phase sum differs from latency");
  }
  if (gets.size() + sets.size() < traced.sim.ops) {
    violations.push_back("critical path covers " +
                         std::to_string(gets.size() + sets.size()) + " of " +
                         std::to_string(traced.sim.ops) + " traced ops");
  }
  m.push_back({"obs.trace_overhead", traced.run_s / plain.run_s, "ratio"});
  m.push_back({"obs.spans_per_op",
               per(cp.spans_seen, traced.sim.ops), "count"});
  add_cp_metrics(m, "get", gets);
  add_cp_metrics(m, "set", sets);
}

void print_json(const Options& opt, const Workload& w, const OpStreams& ops,
                std::size_t rounds, const SimSummary& s, bool correct,
                const std::vector<std::string>& violations,
                const std::vector<Metric>& m) {
  std::string out = "{\"workload\":\"";
  out += w.name;
  out += "\",\"seed\":";
  out += std::to_string(opt.seed);
  out += ",\"scale\":";
  append_number(out, opt.scale);
  out += ",\"traced\":";
  out += opt.traced ? "true" : "false";
  out += ",\"build_type\":\"" HPRES_BENCH_BUILD_TYPE "\",\"input_digest\":\"";
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(ops.digest));
  out += digest;
  out += "\",\"rounds\":";
  out += std::to_string(rounds);
  out += ",\"attempted\":";
  out += std::to_string(s.ops);
  out += ",\"failed\":";
  out += std::to_string(s.failed + s.corrupt);
  out += ",\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"violations\":[";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    if (i != 0) out += ',';
    out += '"';
    out += violations[i];
    out += '"';
  }
  out += "],\"metrics\":{";
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (i != 0) out += ',';
    out += '"';
    out += m[i].name;
    out += "\":{\"value\":";
    append_number(out, m[i].value);
    out += ",\"unit\":\"";
    out += m[i].unit;
    out += "\"}";
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
}

int run(const Options& opt) {
  const Plan plan = make_plan(opt);
  const Workload& w = *plan.w;
  const Clock::time_point t_start = Clock::now();

  const OpStreams ops = generate_ops(plan.records, w.clients,
                                     plan.ops_per_client, w.read_fraction,
                                     opt.seed, plan.partitioned);
  std::vector<std::string> keys;
  keys.reserve(plan.records);
  for (std::uint64_t id = 0; id < plan.records; ++id) {
    keys.push_back(record_key(id));
  }
  std::unique_ptr<Payloads> payloads;
  if (w.materialize) payloads = std::make_unique<Payloads>(w.value_size);

  // Rounds repeat until the time budget is spent (one round when traced:
  // the per-layer run needs its counters, not its host-time median).
  PassOptions full;
  full.ops_per_client = plan.ops_per_client;
  std::vector<PassResult> rounds;
  std::vector<std::string> violations;
  double rss_mib = 0.0;
  for (;;) {
    rounds.push_back(run_pass(plan, ops, keys, payloads.get(), full));
    // Read after round 1, so the high-water mark does not depend on how
    // many rounds the host managed.
    if (rounds.size() == 1) rss_mib = peak_rss_mib();
    std::fprintf(stderr, "hpres_bench: round %zu setup %.3f s, pass %.3f s\n",
                 rounds.size(), rounds.back().setup_s, rounds.back().run_s);
    for (const std::string& v : rounds.back().violations) {
      violations.push_back(v);
    }
    if (!(rounds.back().sim == rounds.front().sim)) {
      violations.push_back("round " + std::to_string(rounds.size()) +
                           " diverged from round 1 on the simulated clock");
    }
    const double elapsed = seconds_since(t_start);
    const double per_round = elapsed / static_cast<double>(rounds.size());
    if (opt.traced || (rounds.size() >= kMinRounds &&
                       elapsed + per_round > opt.seconds)) {
      break;
    }
  }

  const SimSummary& s = rounds.front().sim;
  // Host-time medians skip round 1 when there are others: only the first
  // round of a process pays page faults on a fresh heap.
  std::vector<double> kops;
  std::vector<double> setups;
  for (std::size_t i = rounds.size() > 1 ? 1 : 0; i < rounds.size(); ++i) {
    kops.push_back(static_cast<double>(rounds[i].sim.ops) / rounds[i].run_s /
                   1e3);
    setups.push_back(rounds[i].setup_s);
  }
  const double user_bytes =
      static_cast<double>(plan.records) * static_cast<double>(w.value_size);
  const double fragments_expected =
      static_cast<double>(plan.records * (kK + kM));

  std::vector<Metric> m;
  m.push_back({"host_kops", median(kops), "kops/s"});
  m.push_back({"setup_s", median(setups), "s"});
  m.push_back({"peak_rss_mib", rss_mib, "MiB"});
  m.push_back({"sim_kops",
               static_cast<double>(s.ops) / units::to_s(s.makespan_ns) / 1e3,
               "kops/s"});
  m.push_back({"sim_read_p50_us", us(s.read_p50_ns), "sim_us"});
  m.push_back({"sim_write_p50_us", us(s.write_p50_ns), "sim_us"});
  m.push_back({"sim_read_p999_us", us(s.read_p999_ns), "sim_us"});
  m.push_back({"sim_write_p99_us", us(s.write_p99_ns), "sim_us"});
  m.push_back({"bytes_per_user_byte",
               static_cast<double>(s.bytes_used) / user_bytes, "ratio"});
  m.push_back({"error_rate", per(s.failed + s.corrupt, s.ops), "ratio"});
  m.push_back({"redundancy_gap",
               1.0 - static_cast<double>(s.fragments) / fragments_expected,
               "ratio"});
  m.push_back({"lost_keys", static_cast<double>(s.lost_keys), "count"});
  if (opt.traced) {
    add_layer_metrics(m, violations, plan, ops, keys, payloads.get(),
                      rounds.front(), opt.seed);
  }

  const bool correct =
      violations.empty() && s.corrupt == 0 && s.lost_keys == 0;
  print_json(opt, w, ops, rounds.size(), s, correct, violations, m);
  for (const std::string& v : violations) {
    std::fprintf(stderr, "hpres_bench: invariant failed: %s\n", v.c_str());
  }
  return violations.empty() ? 0 : 1;
}

}  // namespace
}  // namespace hpres::benchmark

int main(int argc, char** argv) {
  hpres::benchmark::Options opt;
  if (!hpres::benchmark::parse_options(argc, argv, &opt)) {
    return hpres::benchmark::usage("bad or missing arguments");
  }
  return hpres::benchmark::run(opt);
}
