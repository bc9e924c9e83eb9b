#include "kv/server.h"

#include <algorithm>
#include <cassert>

#include "ec/chunker.h"

namespace hpres::kv {

namespace {
constexpr SimDur kPeerIssueNs = 300;  // posting one chunk request to a peer
// SSD tier costs, modelling a PCIe SSD.
constexpr SimDur kSsdAccessNs = 60'000;     // device access latency per op
constexpr double kSsdReadNsPerByte = 0.7;   // ~1.4 GB/s read
constexpr double kSsdWriteNsPerByte = 1.1;  // ~0.9 GB/s write (demotion)
}  // namespace

Server::Server(sim::Simulator& sim, KvFabric& fabric, NodeId id,
               ServerParams params)
    : RpcNode(sim, fabric, id),
      store_(params.memory_bytes),
      workers_(sim, params.workers) {
  if (params.ssd_bytes > 0) {
    store_.enable_ssd(SsdConfig{params.ssd_bytes});
  }
}

Server::HandlerTrace::HandlerTrace(Server& server, const Request& req)
    : server_(&server) {
  obs::Tracer* tr = server.sinks().live_tracer();
  if (tr == nullptr || !req.trace.valid()) return;
  tr_ = tr;
  lane_ = server.handler_lanes_.acquire();
  begin_ = server.sim().now();
  const std::uint64_t tid = static_cast<std::uint64_t>(server.id()) *
                                obs::Tracer::kLanesPerNode +
                            lane_;
  ctx_ = req.trace.child(tid);
}

Server::HandlerTrace::~HandlerTrace() {
  if (tr_ == nullptr) return;
  mark_done();
  server_->handler_lanes_.release(lane_);
}

void Server::HandlerTrace::mark_done() {
  if (tr_ == nullptr || done_) return;
  done_ = true;
  tr_->complete(server_->sinks().trace_pid, ctx_.span_id, "server/handle", "server",
                begin_, server_->sim().now() - begin_, ctx_.trace_id);
}

void Server::HandlerTrace::queue_span(SimTime enqueued_ns, SimDur cost_ns) {
  if (tr_ == nullptr) return;
  const SimDur waited = server_->sim().now() - enqueued_ns - cost_ns;
  if (waited <= 0) return;
  tr_->async_span(server_->sinks().trace_pid, tr_->new_async_id(), "server/queue",
                  "server", enqueued_ns, waited, ctx_.trace_id);
}

void Server::HandlerTrace::compute_span(std::string_view name,
                                        SimTime begin_ns) {
  if (tr_ == nullptr) return;
  tr_->complete(server_->sinks().trace_pid, ctx_.span_id, name, "server", begin_ns,
                server_->sim().now() - begin_ns, ctx_.trace_id);
}

void Server::fail() {
  failed_ = true;
  ++crashes_;
  fabric().set_node_up(id(), false);
}

void Server::recover() {
  failed_ = false;
  fabric().set_node_up(id(), true);
}

namespace {
constexpr bool is_write_verb(Verb v) noexcept {
  return v == Verb::kSet || v == Verb::kSetEncode ||
         v == Verb::kSetStripeIndex || v == Verb::kDelete;
}
}  // namespace

void Server::on_request(KvEnvelope env) {
  if (failed_) return;  // dead servers answer nothing
  const auto& req = std::get<Request>(env.body);
  if (req.verb == Verb::kPlacementEpoch) {
    // Control plane: install the new epoch (monotone — a late-arriving
    // older install never rolls the server back). Cheap header-only work,
    // answered inline without a worker slot.
    placement_epoch_ = std::max(placement_epoch_, req.epoch);
    Response resp;
    resp.rpc_id = req.rpc_id;
    resp.code = StatusCode::kOk;
    resp.epoch = placement_epoch_;
    reply(env.src, std::move(resp));
    return;
  }
  if (req.epoch != 0 && req.epoch < placement_epoch_ &&
      is_write_verb(req.verb)) {
    // Stale-epoch write: the sender resolved owners under a ring that was
    // since replaced. Bounce before any stateful work — the retry under
    // the new epoch re-places every fragment, so accepting nothing here is
    // what keeps old-ring residue bounded. Reads are never bounced: during
    // migration both placements may legitimately hold the data.
    ++wrong_epoch_bounces_;
    Response resp;
    resp.rpc_id = req.rpc_id;
    resp.code = StatusCode::kWrongEpoch;
    resp.epoch = placement_epoch_;
    reply(env.src, std::move(resp));
    return;
  }
  switch (req.verb) {
    case Verb::kSet:
    case Verb::kGet:
    case Verb::kDelete:
    case Verb::kScan:
    case Verb::kSetStripeIndex:
      sim().spawn(handle_plain(this, std::move(env)));
      break;
    case Verb::kSetEncode:
      assert(ec_ && "kSetEncode requires enable_ec()");
      sim().spawn(handle_set_encode(this, std::move(env)));
      break;
    case Verb::kGetDecode:
      assert(ec_ && "kGetDecode requires enable_ec()");
      sim().spawn(handle_get_decode(this, std::move(env)));
      break;
    case Verb::kPlacementEpoch:
      break;  // answered above
  }
}

sim::Task<void> Server::handle_plain(Server* self, KvEnvelope env) {
  auto& req = std::get<Request>(env.body);
  HandlerTrace ht(*self, req);
  const std::uint64_t life = self->crashes_;
  std::size_t touched =
      req.value ? req.value->size()
                : (req.verb == Verb::kGet ? 0 : key_bytes(req));
  if (req.verb == Verb::kSetStripeIndex) {
    touched = 0;  // ingest cost scales with the locator batch, not the key
    for (const auto& e : req.stripe_index) {
      touched += e.key.size() + kLocatorEntryBytes;
    }
  }
  const SimTime enqueued = self->sim().now();
  const SimDur first_cost = self->touch_cost(touched);
  co_await self->workers_.execute(first_cost);
  ht.queue_span(enqueued, first_cost);
  if (self->crashed_since(life)) co_return;

  PlainOutcome out = self->apply_plain(req, ht.ctx());
  if (out.device_ns) co_await self->workers_.execute(*out.device_ns);
  if (out.work_ns) co_await self->workers_.execute(*out.work_ns);
  self->reply(env.src, std::move(out.resp));
}

Server::PlainOutcome Server::apply_plain(const Request& req,
                                         const obs::TraceContext& trace) {
  PlainOutcome out;
  Response& resp = out.resp;
  resp.rpc_id = req.rpc_id;
  resp.trace = trace;
  switch (req.verb) {
    case Verb::kSet: {
      if (req.if_absent && store_.get(req.key, req.slot).ok()) {
        // Migration copy racing a fresher write under the new epoch: the
        // resident value wins, and the copy acks as a no-op.
        resp.code = StatusCode::kOk;
        break;
      }
      const std::uint64_t demoted_before = store_.stats().demoted_bytes;
      resp.code = store_.set(req.key, req.slot, req.value, req.chunk).code();
      const std::uint64_t demoted =
          store_.stats().demoted_bytes - demoted_before;
      if (demoted > 0) {
        // Eviction pressure spilled colder items to the SSD tier.
        out.device_ns = kSsdAccessNs +
                        static_cast<SimDur>(kSsdWriteNsPerByte *
                                            static_cast<double>(demoted));
      }
      break;
    }
    case Verb::kGet: {
      if (req.stripe_lookup) {
        // Locator directory probe: metadata only, never touches the LRU
        // store (locators must survive value-eviction pressure).
        auto it = stripe_dir_.find(req.key);
        if (it != stripe_dir_.end()) {
          resp.code = StatusCode::kOk;
          resp.stripe = it->second;
        } else {
          resp.code = StatusCode::kNotFound;
        }
        out.work_ns = read_cost(0);
        break;
      }
      auto got = store_.get(req.key, req.slot);
      if (!got.ok()) {
        resp.code = got.status().code();
        break;
      }
      resp.code = StatusCode::kOk;
      resp.chunk = got->chunk;
      const std::size_t size = got->value ? got->value->size() : 0;
      if (got->from_ssd) {
        // Promotion: the value came off the device, not the slab.
        out.device_ns =
            kSsdAccessNs +
            static_cast<SimDur>(kSsdReadNsPerByte * static_cast<double>(size));
      }
      if (req.head_only) {
        // Presence probe: metadata only, no payload on the wire.
        out.work_ns = read_cost(0);
      } else {
        resp.value = std::move(got->value);
        // Read path: response DMAs out of the registered slab (cheap).
        out.work_ns = read_cost(size);
      }
      break;
    }
    case Verb::kDelete: {
      if (req.stripe_lookup) {
        // Unlink the key's packed-stripe locator (overwrite-by-large-value
        // or delete); the stripe bytes themselves become garbage in place.
        auto it = stripe_dir_.find(req.key);
        if (it != stripe_dir_.end()) {
          stripe_dir_bytes_ -= it->first.size() + it->second.stripe.size() +
                               kLocatorEntryBytes;
          stripe_dir_.erase(it);
          resp.code = StatusCode::kOk;
        } else {
          resp.code = StatusCode::kNotFound;
        }
        break;
      }
      resp.code = store_.erase(req.key, req.slot) ? StatusCode::kOk
                                                  : StatusCode::kNotFound;
      break;
    }
    case Verb::kScan: {
      if (req.stripe_lookup) {
        // Locator-directory walk: the keys whose packed-stripe locators
        // this server hosts (migration discovery for the placement plane).
        resp.keys.reserve(stripe_dir_.size());
        for (const auto& [key, loc] : stripe_dir_) resp.keys.push_back(key);
      } else {
        // Distinct base keys of every fragment held here; repair discovery.
        resp.keys = store_.fragment_bases();
      }
      resp.code = StatusCode::kOk;
      out.work_ns = static_cast<SimDur>(
          200 * resp.keys.size());  // index walk, ~200ns per item
      break;
    }
    case Verb::kSetStripeIndex: {
      // Batched locator install for one packed stripe: every record's user
      // key maps to its sub-slot location inside the stripe named by
      // req.key. Newer installs replace older ones (overwrite wins).
      const std::uint32_t stripe_bytes = static_cast<std::uint32_t>(
          req.chunk ? req.chunk->original_size : 0);
      for (const auto& e : req.stripe_index) {
        auto it = stripe_dir_.find(e.key);
        if (it != stripe_dir_.end()) {
          // Migration re-installs must not clobber a locator a concurrent
          // overwrite already refreshed (see Request::if_absent).
          if (req.if_absent) continue;
          stripe_dir_bytes_ -= it->first.size() + it->second.stripe.size() +
                               kLocatorEntryBytes;
        }
        stripe_dir_[e.key] = StripeLoc{req.key, e.offset, e.len, stripe_bytes};
        stripe_dir_bytes_ +=
            e.key.size() + req.key.size() + kLocatorEntryBytes;
      }
      resp.code = StatusCode::kOk;
      break;
    }
    default:
      resp.code = StatusCode::kInvalidArgument;
      break;
  }
  return out;
}

sim::Task<void> Server::handle_set_encode(Server* self, KvEnvelope env) {
  auto& req = std::get<Request>(env.body);
  HandlerTrace ht(*self, req);
  const ServerEcContext& ec = *self->ec_;
  const std::uint64_t life = self->crashes_;
  const std::size_t value_size = req.value ? req.value->size() : 0;
  const std::size_t n = ec.codec->n();

  // Ingest the full value and stage it locally under the plain key, then
  // acknowledge: the client's one write request completes after a single
  // D-byte transfer (the Era-SE-* advantage, Section VI-B). Encoding and
  // fragment distribution continue below on the server ARPE, overlapped
  // with new requests by the parallel workers. The staged copy guarantees
  // read-after-write: it is only dropped once every fragment is acked, and
  // readers that race the distribution fall back to the stager.
  const SimTime enqueued = self->sim().now();
  const SimDur first_cost = self->touch_cost(value_size);
  co_await self->workers_.execute(first_cost);
  ht.queue_span(enqueued, first_cost);
  if (self->crashed_since(life)) co_return;
  const Status staged = self->store_.set(req.key, req.value);
  {
    Response resp;
    resp.rpc_id = req.rpc_id;
    resp.code = staged.code();
    resp.trace = ht.ctx();
    self->reply(env.src, std::move(resp));
  }
  // The client's op completes at the ack above; the encode + distribution
  // below continue in the background (off the op's critical path, which is
  // exactly what the trace should show).
  ht.mark_done();
  if (!staged.ok()) co_return;

  const SimTime encode_begin = self->sim().now();
  co_await self->workers_.execute(self->slow(ec.cost.encode_ns(value_size)));
  ht.compute_span("server/encode", encode_begin);

  const ec::Fragments fragments = ec::encode_value(
      *ec.codec, req.value.span(), value_size, ec.materialize);

  std::vector<sim::Future<Response>> pending;
  pending.reserve(n);
  Placement place = ec.ring->place(req.key);
  for (std::size_t slot = 0; slot < n; ++slot) {
    if (self->crashed_since(life)) co_return;
    const std::size_t owner = place.owner(slot);
    Request put = fragment_put(req.key, slot, fragments[slot], value_size);
    if (owner == ec.my_index) {
      (void)self->store_.set(put.key, put.slot, put.value, put.chunk);
      continue;
    }
    co_await self->workers_.execute(kPeerIssueNs);
    put.trace = ht.ctx();
    pending.push_back(self->call((*ec.server_nodes)[owner], std::move(put)));
  }
  // A fragment that failed to land is the repair coordinator's to rebuild.
  for (auto& f : pending) (void)co_await f.wait();
  if (self->crashed_since(life)) co_return;
  // All fragments placed: the staged full copy is no longer needed.
  self->store_.erase(req.key);
}

sim::Task<void> Server::handle_get_decode(Server* self, KvEnvelope env) {
  auto& req = std::get<Request>(env.body);
  HandlerTrace ht(*self, req);
  const ServerEcContext& ec = *self->ec_;
  const std::size_t k = ec.codec->k();
  const std::size_t n = ec.codec->n();

  const SimTime enqueued = self->sim().now();
  const SimDur first_cost = self->touch_cost(0);
  co_await self->workers_.execute(first_cost);
  ht.queue_span(enqueued, first_cost);

  // Staged full value (an in-progress or raced server-side Set): serve it
  // directly.
  if (auto staged = self->store_.get(req.key); staged.ok()) {
    co_await self->workers_.execute(self->read_cost(
        staged->value ? staged->value->size() : 0));
    Response resp;
    resp.rpc_id = req.rpc_id;
    resp.code = StatusCode::kOk;
    resp.value = staged->value;
    resp.trace = ht.ctx();
    self->reply(env.src, std::move(resp));
    co_return;
  }

  // Pick the fragments to aggregate, codec-aware (data slots first; LRC
  // skips linearly dependent survivor rows).
  Placement place = ec.ring->place(req.key);
  ec::SlotMask available = 0;
  for (std::size_t slot = 0; slot < n; ++slot) {
    if (ec.membership->up(place.owner(slot))) available |= ec::slot_bit(slot);
  }
  Response resp;
  resp.rpc_id = req.rpc_id;
  resp.trace = ht.ctx();
  const Result<ec::ReadSet> selected =
      ec.codec->select(ec.codec->data_mask(), available);
  if (!selected.ok()) {
    resp.code = selected.status().code();
    self->reply(env.src, std::move(resp));
    co_return;
  }
  const ec::ReadSet& chosen = *selected;

  // Fetch the chosen fragments: local slot from the store, remote slots
  // from peers, all in flight concurrently.
  std::vector<Response> fetched(n);
  std::vector<sim::Future<Response>> remote(n);  // invalid: local slot
  for (const std::size_t slot : chosen) {
    const std::size_t owner = place.owner(slot);
    if (owner == ec.my_index) {
      auto got = self->store_.get(req.key, static_cast<std::uint8_t>(slot));
      fetched[slot].code = got.status().code();
      if (got.ok()) {
        co_await self->workers_.execute(
            self->read_cost(got->value ? got->value->size() : 0));
        fetched[slot].value = got->value;
        fetched[slot].chunk = got->chunk;
      }
      continue;
    }
    co_await self->workers_.execute(kPeerIssueNs);
    Request peer = fragment_request(Verb::kGet, req.key, slot);
    peer.trace = ht.ctx();
    remote[slot] = self->call((*ec.server_nodes)[owner], std::move(peer));
  }
  std::vector<SharedBytes> frags(n);  // fetched fragments by slot
  std::optional<ChunkInfo> meta;
  std::size_t unfetched = chosen.size();
  std::size_t missing_data = k;  // data slots we could not fetch directly
  for (const std::size_t slot : chosen) {
    if (remote[slot].valid()) fetched[slot] = co_await remote[slot].wait();
    if (fetched[slot].code != StatusCode::kOk) continue;
    frags[slot] = std::move(fetched[slot].value);
    if (fetched[slot].chunk) meta = fetched[slot].chunk;
    --unfetched;
    if (slot < k) --missing_data;
  }
  if (unfetched > 0 || !meta) {
    resp.code = StatusCode::kNotFound;
    self->reply(env.src, std::move(resp));
    co_return;
  }

  const std::size_t value_size = meta->original_size;
  if (missing_data > 0) {
    const SimTime decode_begin = self->sim().now();
    co_await self->workers_.execute(self->slow(ec.cost.decode_ns(
        value_size, static_cast<unsigned>(missing_data))));
    ht.compute_span("server/decode", decode_begin);
  }

  Result<Bytes> value = ec::assemble(
      *ec.codec, frags, chosen,
      ec::make_layout(value_size, k, ec.codec->alignment()), std::nullopt,
      ec.materialize);
  if (!value.ok()) {
    resp.code = value.status().code();
    self->reply(env.src, std::move(resp));
    co_return;
  }
  resp.code = StatusCode::kOk;
  resp.value = make_shared_bytes(std::move(*value));
  self->reply(env.src, std::move(resp));
}

}  // namespace hpres::kv
