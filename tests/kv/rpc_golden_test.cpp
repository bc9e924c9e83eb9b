// Golden timeline of the RPC call paths. Each scenario drives scripted
// calls from a Client to a scripted responder on a fresh two-node fabric
// and pins, exactly, when (simulated ns) and at which executed event every
// request reaches the responder and every caller resumes, the status it
// resumes with, the caller's RpcStats, the fabric counters and the event
// count at the end. Any change in how a call is sent, raced against its
// deadline, retried, cancelled or relayed to its caller moves one of them.
// A deliberate change regenerates the table from the `actual:` rows the
// failing test prints.
#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "kv/client.h"
#include "sim/shard_runtime.h"

namespace hpres::kv {
namespace {

constexpr SimDur kSilent = -1;  ///< the responder drops this request

/// Answers its n-th request after `replies[n]` (kSilent: never; past the
/// end: at once) and logs when each request reached it.
class Responder final : public RpcNode {
 public:
  Responder(sim::Simulator& sim, KvFabric& fabric, NodeId id,
            std::vector<SimDur> replies, std::vector<std::string>* log)
      : RpcNode(sim, fabric, id), replies_(std::move(replies)), log_(log) {}

 protected:
  void on_request(KvEnvelope env) override {
    const Request& req = std::get<Request>(env.body);
    std::ostringstream row;
    row << "req rpc=" << req.rpc_id << " at=" << sim().now()
        << " ev=" << sim().events_executed();
    log_->push_back(row.str());
    const SimDur delay = seen_ < replies_.size() ? replies_[seen_] : 0;
    ++seen_;
    if (delay == kSilent) return;
    sim().spawn(reply(this, env.src, req.rpc_id, delay));
  }

 private:
  static sim::Task<void> reply(Responder* self, NodeId dst,
                               std::uint64_t rpc_id, SimDur delay) {
    co_await self->sim().delay(delay);
    Response resp;
    resp.rpc_id = rpc_id;
    self->respond(dst, std::move(resp));
  }

  std::vector<SimDur> replies_;
  std::vector<std::string>* log_;
  std::size_t seen_ = 0;
};

enum class Via { kCall, kCallAsync, kInvoke };

struct Scenario {
  const char* name;
  RpcPolicy policy;
  std::vector<SimDur> replies;
  Via via = Via::kCall;
  std::size_t callers = 1;   ///< concurrent callers, one call each
  bool dst_down = false;     ///< the destination is known-dead: fail fast
  SimDur cancel_after = -1;  ///< cancel(last_call_id()) after this long
  /// The caller sleeps this long after issuing, then logs whether its call
  /// resolved: at the deadline, this pins the deadline's order against an
  /// event scheduled in the same step as the call.
  SimDur probe_after = -1;
};

void log_resume(sim::Simulator& sim, std::size_t caller, const Response& r,
                std::vector<std::string>* log) {
  std::ostringstream row;
  row << "done caller=" << caller << " at=" << sim.now()
      << " ev=" << sim.events_executed()
      << " code=" << static_cast<int>(r.code) << " rpc=" << r.rpc_id;
  log->push_back(row.str());
}

/// Cancels the client's most recent call once `after` has passed (an
/// issued call has its rpc id only after its CPU slice).
sim::Task<void> cancel_later(Client* client, SimDur after) {
  co_await client->sim().delay(after);
  client->cancel(client->last_call_id());
}

sim::Task<void> caller(Client* client, const Scenario* s, std::size_t index,
                       std::vector<std::string>* log) {
  Request req;
  req.verb = Verb::kGet;
  req.key = "golden-key-" + std::to_string(index);
  Response resp;
  if (s->via == Via::kInvoke) {
    resp = co_await client->invoke(0, std::move(req));
  } else {
    const sim::Future<Response> f = s->via == Via::kCall
                                        ? client->call(0, std::move(req))
                                        : client->call_async(0, std::move(req));
    std::ostringstream row;
    row << "issued caller=" << index << " id=" << client->last_call_id();
    log->push_back(row.str());
    if (s->cancel_after >= 0) {
      client->sim().spawn(cancel_later(client, s->cancel_after));
    }
    if (s->probe_after >= 0) {
      co_await client->sim().delay(s->probe_after);
      std::ostringstream probe;
      probe << "probe caller=" << index << " at=" << client->sim().now()
            << " ev=" << client->sim().events_executed()
            << " ready=" << f.ready();
      log->push_back(probe.str());
    }
    resp = co_await f.wait();
  }
  log_resume(client->sim(), index, resp, log);
}

std::vector<std::string> run_scenario(const Scenario& s) {
  std::vector<std::string> log;
  sim::ShardRuntime runtime(1, 0);
  sim::Simulator& sim = runtime.shard(0);
  KvFabric fabric(runtime, net::FabricParams{}, {0, 0});
  Responder responder(sim, fabric, 0, s.replies, &log);
  Client client(sim, fabric, 1);
  client.set_policy(s.policy);
  responder.start();
  client.start();
  if (s.dst_down) fabric.set_node_up(0, false);
  for (std::size_t i = 0; i < s.callers; ++i) {
    sim.spawn(caller(&client, &s, i, &log));
  }
  sim.run();
  const RpcStats& rpc = client.rpc_stats();
  const net::FabricStats& net = fabric.stats();
  std::ostringstream end;
  end << "end at=" << sim.now() << " ev=" << sim.events_executed()
      << " armed=" << sim.armed_timers();
  log.push_back(end.str());
  std::ostringstream stats;
  stats << "timeouts=" << rpc.timeouts << " retries=" << rpc.retries
        << " expired=" << rpc.expired_calls << " sent=" << net.messages_sent
        << " delivered=" << net.messages_delivered
        << " dropped=" << net.messages_dropped;
  log.push_back(stats.str());
  return log;
}

constexpr RpcPolicy kGuarded{.timeout_ns = units::kMillisecond,
                             .max_retries = 2,
                             .backoff_ns = 100 * units::kMicrosecond};
constexpr SimDur kUs = units::kMicrosecond;

struct Golden {
  Scenario scenario;
  std::vector<std::string> timeline;
};

TEST(RpcGolden, GuardedCallTimeline) {
  const std::vector<Golden> table = {
      {{"guarded_first_attempt", kGuarded, {10 * kUs}}, {
        "issued caller=0 id=0",
        "req rpc=1 at=2031 ev=7",
        "done caller=0 at=14057 ev=14 code=0 rpc=1",
        "end at=14057 ev=14 armed=0",
        "timeouts=0 retries=0 expired=0 sent=2 delivered=2 dropped=0",
       }},
      {{"guarded_retry_answered", kGuarded, {kSilent, 10 * kUs}}, {
        "issued caller=0 id=0",
        "req rpc=1 at=2031 ev=7",
        "req rpc=2 at=1102031 ev=13",
        "done caller=0 at=1114057 ev=20 code=0 rpc=2",
        "end at=1114057 ev=20 armed=0",
        "timeouts=1 retries=1 expired=0 sent=3 delivered=3 dropped=0",
       }},
      {{"guarded_all_expire", kGuarded, {kSilent, kSilent, kSilent}}, {
        "issued caller=0 id=0",
        "req rpc=1 at=2031 ev=7",
        "req rpc=2 at=1102031 ev=13",
        "req rpc=3 at=2302031 ev=19",
        "done caller=0 at=3300000 ev=22 code=3 rpc=3",
        "end at=3300000 ev=22 armed=0",
        "timeouts=3 retries=2 expired=1 sent=3 delivered=3 dropped=0",
       }},
      {{"guarded_late_reply_is_stale",
        RpcPolicy{.timeout_ns = units::kMillisecond, .max_retries = 1},
        {1500 * kUs, 700 * kUs}},
       {
        "issued caller=0 id=0",
        "req rpc=1 at=2031 ev=7",
        "req rpc=2 at=1002031 ev=13",
        "done caller=0 at=1704057 ev=24 code=0 rpc=2",
        "end at=1704057 ev=24 armed=0",
        "timeouts=1 retries=1 expired=0 sent=4 delivered=4 dropped=0",
       }},
      {{"guarded_late_reply_after_expiry",
        RpcPolicy{.timeout_ns = units::kMillisecond},
        {1500 * kUs}},
       {
        "issued caller=0 id=0",
        "req rpc=1 at=2031 ev=7",
        "done caller=0 at=1000000 ev=11 code=3 rpc=1",
        "end at=1504057 ev=15 armed=0",
        "timeouts=1 retries=0 expired=1 sent=2 delivered=2 dropped=0",
       }},
      {{"guarded_concurrent", kGuarded,
        {30 * kUs, kSilent, 10 * kUs, 10 * kUs},
        Via::kCall,
        3},
       {
        "issued caller=0 id=0",
        "issued caller=1 id=0",
        "issued caller=2 id=0",
        "req rpc=1 at=2031 ev=13",
        "req rpc=2 at=2360 ev=16",
        "req rpc=3 at=2689 ev=18",
        "done caller=2 at=14715 ev=25 code=0 rpc=3",
        "done caller=0 at=34057 ev=31 code=0 rpc=1",
        "req rpc=4 at=1102031 ev=37",
        "done caller=1 at=1114057 ev=44 code=0 rpc=4",
        "end at=1114057 ev=44 armed=0",
        "timeouts=1 retries=1 expired=0 sent=7 delivered=7 dropped=0",
       }},
      {{"guarded_deadline_tie",
        RpcPolicy{.timeout_ns = units::kMillisecond},
        {kSilent},
        Via::kCall,
        1,
        false,
        -1,
        units::kMillisecond},
       {
        "issued caller=0 id=0",
        "req rpc=1 at=2031 ev=7",
        "probe caller=0 at=1000000 ev=8 ready=0",
        "done caller=0 at=1000000 ev=11 code=3 rpc=1",
        "end at=1000000 ev=11 armed=0",
        "timeouts=1 retries=0 expired=1 sent=1 delivered=1 dropped=0",
       }},
      {{"guarded_fail_fast", kGuarded, {}, Via::kCall, 1, true}, {
        "issued caller=0 id=0",
        "done caller=0 at=0 ev=5 code=2 rpc=0",
        "end at=0 ev=5 armed=0",
        "timeouts=0 retries=0 expired=0 sent=0 delivered=0 dropped=0",
       }},
      {{"plain_answered", RpcPolicy{}, {10 * kUs}}, {
        "issued caller=0 id=1",
        "req rpc=1 at=2031 ev=6",
        "done caller=0 at=14057 ev=12 code=0 rpc=1",
        "end at=14057 ev=12 armed=0",
        "timeouts=0 retries=0 expired=0 sent=2 delivered=2 dropped=0",
       }},
      {{"plain_fail_fast", RpcPolicy{}, {}, Via::kCall, 1, true}, {
        "issued caller=0 id=0",
        "done caller=0 at=0 ev=3 code=2 rpc=0",
        "end at=0 ev=3 armed=0",
        "timeouts=0 retries=0 expired=0 sent=0 delivered=0 dropped=0",
       }},
      {{"plain_cancel", RpcPolicy{}, {kSilent}, Via::kCall, 1, false, 50 * kUs},
       {
        "issued caller=0 id=1",
        "req rpc=1 at=2031 ev=7",
        "done caller=0 at=50000 ev=9 code=8 rpc=1",
        "end at=50000 ev=9 armed=0",
        "timeouts=0 retries=0 expired=0 sent=1 delivered=1 dropped=0",
       }},
      {{"invoke_plain", RpcPolicy{}, {10 * kUs}, Via::kInvoke}, {
        "req rpc=1 at=2431 ev=8",
        "done caller=0 at=14457 ev=15 code=0 rpc=1",
        "end at=14457 ev=15 armed=0",
        "timeouts=0 retries=0 expired=0 sent=2 delivered=2 dropped=0",
       }},
      {{"invoke_guarded", kGuarded, {kSilent, 10 * kUs}, Via::kInvoke}, {
        "req rpc=1 at=2431 ev=8",
        "req rpc=2 at=1102431 ev=14",
        "done caller=0 at=1114457 ev=21 code=0 rpc=2",
        "end at=1114457 ev=21 armed=0",
        "timeouts=1 retries=1 expired=0 sent=3 delivered=3 dropped=0",
       }},
      {{"call_async_plain", RpcPolicy{}, {10 * kUs, 20 * kUs}, Via::kCallAsync,
        2},
       {
        "issued caller=0 id=0",
        "issued caller=1 id=0",
        "req rpc=1 at=2431 ev=13",
        "req rpc=2 at=2831 ev=16",
        "done caller=0 at=14457 ev=23 code=0 rpc=1",
        "done caller=1 at=24857 ev=29 code=0 rpc=2",
        "end at=24857 ev=29 armed=0",
        "timeouts=0 retries=0 expired=0 sent=4 delivered=4 dropped=0",
       }},
      {{"call_async_guarded", kGuarded, {kSilent, 10 * kUs}, Via::kCallAsync},
       {
        "issued caller=0 id=0",
        "req rpc=1 at=2431 ev=8",
        "req rpc=2 at=1102431 ev=14",
        "done caller=0 at=1114457 ev=21 code=0 rpc=2",
        "end at=1114457 ev=21 armed=0",
        "timeouts=1 retries=1 expired=0 sent=3 delivered=3 dropped=0",
       }},
      {{"call_async_fail_fast", kGuarded, {}, Via::kCallAsync, 1, true}, {
        "issued caller=0 id=0",
        "done caller=0 at=400 ev=6 code=2 rpc=0",
        "end at=400 ev=6 armed=0",
        "timeouts=0 retries=0 expired=0 sent=0 delivered=0 dropped=0",
       }},
      {{"call_async_plain_cancel", RpcPolicy{}, {kSilent}, Via::kCallAsync, 1,
        false, 50 * kUs},
       {
        "issued caller=0 id=0",
        "req rpc=1 at=2431 ev=9",
        "done caller=0 at=50000 ev=12 code=8 rpc=1",
        "end at=50000 ev=12 armed=0",
        "timeouts=0 retries=0 expired=0 sent=1 delivered=1 dropped=0",
       }},
  };
  for (const Golden& g : table) {
    const std::vector<std::string> actual = run_scenario(g.scenario);
    if (actual != g.timeline) {
      std::ostringstream rows;
      for (const std::string& row : actual) rows << "\n  \"" << row << "\",";
      ADD_FAILURE() << g.scenario.name << " actual:" << rows.str();
    }
  }
}

}  // namespace
}  // namespace hpres::kv
