// Wire protocol of the simulated Memcached-like KV store.
//
// Beyond plain kSet/kGet/kDelete, two verbs implement the paper's
// server-side offload designs: kSetEncode asks the receiving server to
// erasure-code the value and distribute the fragments itself (Era-SE-*),
// and kGetDecode asks it to aggregate fragments from its peers and return
// the reassembled value (Era-*-SD).
//
// A fragment travels as its identity, not as a composed key: the request
// carries the object's base key plus the fragment's slot, and the server
// stores it under that pair. Simulated costs still price a fragment as if
// it were keyed by its composed chunk_key (kSlotKeyBytes more than its
// base key), so the wire and the store charge what a Memcached item would.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "net/fabric.h"

namespace hpres::kv {

using net::NodeId;
using Key = std::string;

enum class Verb : std::uint8_t {
  kSet,
  kGet,
  kDelete,
  kSetEncode,      ///< server-side encode + fragment distribution
  kGetDecode,      ///< server-side fragment aggregation + decode
  kScan,           ///< enumerate stored keys (repair discovery)
  kSetStripeIndex, ///< install packed-stripe locator entries (batched)
  kPlacementEpoch, ///< control plane: install a new placement epoch
};

[[nodiscard]] constexpr std::string_view to_string(Verb v) noexcept {
  switch (v) {
    case Verb::kSet: return "SET";
    case Verb::kGet: return "GET";
    case Verb::kDelete: return "DELETE";
    case Verb::kSetEncode: return "SET_ENCODE";
    case Verb::kGetDecode: return "GET_DECODE";
    case Verb::kScan: return "SCAN";
    case Verb::kSetStripeIndex: return "SET_STRIPE_INDEX";
    case Verb::kPlacementEpoch: return "PLACEMENT_EPOCH";
  }
  return "?";
}

/// Slot of a request (or stored item) that names a whole value rather than
/// one fragment of a coded object.
inline constexpr std::uint8_t kNoSlot = 0xFF;

/// Bytes a fragment's key adds to its base key in every simulated charge:
/// the separator and slot digit that chunk_key appends.
inline constexpr std::size_t kSlotKeyBytes = 2;

/// Metadata stored with (and returned alongside) each erasure-coded
/// fragment, sufficient for any reader to size its reassembly buffers. The
/// fragment's slot is part of its identity (Request::slot), not of this.
struct ChunkInfo {
  std::uint64_t original_size = 0;  ///< whole-value size before chunking

  [[nodiscard]] bool operator==(const ChunkInfo&) const = default;
};

/// Bytes of fragment metadata the capacity model charges per stored
/// fragment: a Memcached item's header of whole-value size, fragment
/// index, k and m.
inline constexpr std::size_t kChunkInfoBytes = 16;

/// Locator for a value packed into a shared stripe: which stripe holds it
/// and where the value bytes sit inside the stripe payload. `stripe_bytes`
/// (the pre-encode payload size of the whole stripe) rides along so a
/// reader can compute the stripe's fragment layout without an extra probe.
struct StripeLoc {
  Key stripe;                     ///< stripe base key (fragment placement)
  std::uint32_t offset = 0;       ///< value offset within stripe payload
  std::uint32_t len = 0;          ///< value length in bytes
  std::uint32_t stripe_bytes = 0; ///< total stripe payload size

  [[nodiscard]] bool operator==(const StripeLoc&) const = default;
};

/// Bytes a locator entry charges beyond its key: offset, len and
/// stripe_bytes, three u32. Priced on the wire (index batches, locator
/// replies) and in each server's stripe directory.
inline constexpr std::size_t kLocatorEntryBytes = 12;

/// One entry of a batched kSetStripeIndex install: the user key plus its
/// sub-slot range. The stripe base key and stripe_bytes are shared by the
/// whole batch and ride in Request::key / Request::chunk->original_size.
struct StripeIndexEntry {
  Key key;
  std::uint32_t offset = 0;
  std::uint32_t len = 0;

  [[nodiscard]] bool operator==(const StripeIndexEntry&) const = default;
};

struct Request {
  Verb verb = Verb::kGet;
  /// kSet/kGet/kDelete: the fragment of `key`'s coded object this names,
  /// or kNoSlot for the whole value stored under `key`.
  std::uint8_t slot = kNoSlot;
  Key key;
  SharedBytes value;  ///< payload for kSet/kSetEncode; null otherwise
  std::optional<ChunkInfo> chunk;
  /// kGet only: return existence + ChunkInfo without the payload (cheap
  /// presence probe for repair discovery).
  bool head_only = false;
  /// kSetStripeIndex: locator entries to install (Request::key is the
  /// stripe base key, chunk->original_size the stripe payload size).
  std::vector<StripeIndexEntry> stripe_index;
  /// kGet/kDelete: operate on the server's stripe locator directory for
  /// `key` instead of the value store (packed-path lookup / unlink).
  /// kScan: enumerate the locator directory instead of stored keys.
  bool stripe_lookup = false;
  /// kSet/kSetStripeIndex: only install when the key (or locator entry) is
  /// absent, replying kOk either way. Migration copies use this so a
  /// concurrent client write under the new epoch is never clobbered by the
  /// older bytes still being moved.
  bool if_absent = false;
  /// Placement epoch the sender resolved owners under; 0 = placement-
  /// unaware (legacy). Servers bounce *writes* with kWrongEpoch when this
  /// is non-zero and older than their installed epoch. For
  /// kPlacementEpoch, the epoch being installed. Metadata like `trace`: it
  /// rides in framing the cost model already charges, so it adds no
  /// simulated wire bytes.
  std::uint64_t epoch = 0;
  std::uint64_t rpc_id = 0;
  /// Causal trace header: tags the fabric transfer and the server handler
  /// with the originating op's trace id. All-zero (invalid) when tracing is
  /// off; carries no simulated bytes (tracing never changes wire timing).
  obs::TraceContext trace;
};

struct Response {
  std::uint64_t rpc_id = 0;
  StatusCode code = StatusCode::kOk;
  SharedBytes value;  ///< payload for successful gets; null otherwise
  std::optional<ChunkInfo> chunk;
  std::vector<Key> keys;  ///< kScan results
  /// Successful stripe_lookup gets: the locator for the requested key.
  std::optional<StripeLoc> stripe;
  /// Causal trace header (see Request::trace): the responder echoes the
  /// request's trace id with its handler span as the new parent.
  obs::TraceContext trace;
  /// Responder's handler queue depth at reply time — the load signal behind
  /// client-side read-set selection. Metadata, like `trace`: it rides in
  /// headers the cost model already charges, so it carries no simulated
  /// wire bytes (payload_bytes excludes it).
  std::uint32_t queue_depth = 0;
  /// Responder's installed placement epoch, echoed on kWrongEpoch bounces
  /// and kPlacementEpoch acks (0 otherwise). Header metadata, no wire
  /// bytes — see `queue_depth`.
  std::uint64_t epoch = 0;
};

using WireBody = std::variant<Request, Response>;
using KvFabric = net::Fabric<WireBody>;
using KvEnvelope = net::Envelope<WireBody>;

/// Simulated size of `r`'s key: a fragment request pays for its composed
/// chunk_key.
[[nodiscard]] inline std::size_t key_bytes(const Request& r) noexcept {
  return r.key.size() + (r.slot != kNoSlot ? kSlotKeyBytes : 0);
}

/// Payload size used for wire timing (key + value + fixed verb framing).
/// Stripe-index batches and locator replies are charged per entry; both
/// contribute zero bytes when absent, so the legacy paths are unchanged.
[[nodiscard]] inline std::size_t payload_bytes(const Request& r) noexcept {
  std::size_t index_bytes = 0;
  for (const auto& e : r.stripe_index) {
    index_bytes += e.key.size() + kLocatorEntryBytes;
  }
  return key_bytes(r) + (r.value ? r.value->size() : 0) + index_bytes + 16;
}

[[nodiscard]] inline std::size_t payload_bytes(const Response& r) noexcept {
  std::size_t keys_bytes = 0;
  for (const auto& k : r.keys) keys_bytes += k.size() + 4;
  const std::size_t loc_bytes =
      r.stripe ? r.stripe->stripe.size() + kLocatorEntryBytes : 0;
  return (r.value ? r.value->size() : 0) + keys_bytes + loc_bytes + 16;
}

/// The composed key of fragment `index` of `key` — what a Memcached client
/// would store the fragment under, and what simulated charges price a
/// fragment's key as. The separator byte cannot occur in benchmarks'
/// printable keys, so chunk keys never collide with user keys.
[[nodiscard]] inline Key chunk_key(const Key& key, std::size_t index) {
  Key out;
  out.reserve(key.size() + kSlotKeyBytes);  // one allocation, no regrow
  out.append(key);
  out.push_back('\x01');
  out.push_back(static_cast<char>('0' + index));
  return out;
}

/// A `verb` request for fragment `slot` of the coded object under `base`.
[[nodiscard]] inline Request fragment_request(Verb verb, const Key& base,
                                              std::size_t slot) {
  Request req;
  req.verb = verb;
  req.slot = static_cast<std::uint8_t>(slot);
  req.key = base;
  return req;
}

/// The kSet that stores fragment `slot` of a coded object of
/// `original_size` bytes under `base`; every fragment write is built here.
[[nodiscard]] inline Request fragment_put(const Key& base, std::size_t slot,
                                          SharedBytes fragment,
                                          std::uint64_t original_size) {
  Request req = fragment_request(Verb::kSet, base, slot);
  req.value = std::move(fragment);
  req.chunk = ChunkInfo{original_size};
  return req;
}

/// The kGet of `key`'s stripe locator at one of its directory owners.
[[nodiscard]] inline Request locator_lookup(const Key& key) {
  Request req;
  req.verb = Verb::kGet;
  req.key = key;
  req.stripe_lookup = true;
  return req;
}

/// The kDelete of `key`'s stripe locator at one of its directory owners.
[[nodiscard]] inline Request locator_unlink(const Key& key) {
  Request req = locator_lookup(key);
  req.verb = Verb::kDelete;
  return req;
}

/// The kSetStripeIndex that points `entries` into the `stripe_bytes`-byte
/// stripe under base key `stripe`, at one directory owner.
[[nodiscard]] inline Request locator_install(
    const Key& stripe, std::uint64_t stripe_bytes,
    std::vector<StripeIndexEntry> entries) {
  Request req;
  req.verb = Verb::kSetStripeIndex;
  req.key = stripe;
  req.chunk = ChunkInfo{stripe_bytes};
  req.stripe_index = std::move(entries);
  return req;
}

/// The kScan of a server's stored base keys, or of its locator directory
/// when `locators`.
[[nodiscard]] inline Request scan_request(bool locators) {
  Request req;
  req.verb = Verb::kScan;
  req.stripe_lookup = locators;
  return req;
}

/// Synthetic base key for packed stripe `seq` minted by `client`. The
/// leading '\x02' byte keeps stripe keys disjoint from printable user keys;
/// the client id makes concurrently packing clients mint non-colliding
/// stripes.
[[nodiscard]] inline Key stripe_key(NodeId client, std::uint64_t seq) {
  Key out;
  out.push_back('\x02');
  out.push_back('s');
  out += std::to_string(client);
  out.push_back('.');
  out += std::to_string(seq);
  return out;
}

}  // namespace hpres::kv
