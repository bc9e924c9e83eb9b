// Online erasure-coding engine: the paper's primary contribution
// (Section IV). One engine instance implements one of the four offload
// designs, combining client- or server-side encode with client- or
// server-side decode:
//
//   Era-CE-CD  client encodes + distributes; client aggregates + decodes
//   Era-SE-SD  server encodes + distributes; server aggregates + decodes
//   Era-SE-CD  server encodes; client aggregates + decodes (hybrid)
//   Era-CE-SD  client encodes; server aggregates + decodes (hybrid,
//              included for completeness; the paper sets it aside)
#pragma once

#include <array>
#include <span>
#include <unordered_map>

#include "ec/chunker.h"
#include "ec/codec.h"
#include "ec/cost_model.h"
#include "ec/stripe.h"
#include "resilience/engine.h"

namespace hpres::resilience {

[[nodiscard]] constexpr bool client_encodes(Design d) noexcept {
  return d == Design::kEraCeCd || d == Design::kEraCeSd;
}
[[nodiscard]] constexpr bool client_decodes(Design d) noexcept {
  return d == Design::kEraCeCd || d == Design::kEraSeCd;
}

class ErasureEngine final : public Engine {
 public:
  /// Packed-stripe payload budget: a stripe seals when the next record
  /// would exceed it. Bigger stripes amortize fragment/key overhead over
  /// more records but raise the group-commit batch latency.
  static constexpr std::size_t kStripeCapacity = 16 * 1024;

  /// Widest codec (k+m) an engine runs: an op keeps its per-slot fetch and
  /// fan-out state in arrays of this size inside its coroutine frame.
  static constexpr std::size_t kMaxSlots = ec::kMaxSlots;

  /// The codec must outlive the engine. Server-side designs additionally
  /// require every server to have ServerEcContext enabled (see
  /// Cluster::enable_server_ec). `hedge` arms late-binding hedged,
  /// load-ranked fetches on the client-decode Get; the default (delta 0)
  /// fetches exactly the k-fragment read set. `pack` configures the
  /// batched small-object write path (stripe packing + group commit); the
  /// default (threshold 0) keeps every Set on the legacy per-key path.
  /// Packing requires client-side encode AND decode (kEraCeCd) — other
  /// designs ignore it. `design` must be one of the four erasure designs.
  ErasureEngine(EngineContext ctx, const ec::Codec& codec,
                ec::CostModel cost, Design design, ArpeParams arpe = {},
                HedgeParams hedge = {}, PackParams pack = {});

  [[nodiscard]] std::string_view name() const noexcept override {
    return to_string(design_);
  }
  [[nodiscard]] std::size_t fault_tolerance() const noexcept override {
    return codec_->m();
  }
  /// Packing is live for this engine (configured on, and the design is
  /// client-encode + client-decode).
  [[nodiscard]] bool packing_active() const noexcept {
    return pack_.enabled() && design_ == Design::kEraCeCd;
  }
  [[nodiscard]] const NodeLoadTracker* load_tracker()
      const noexcept override {
    return &load_;
  }

 protected:
  sim::Task<Status> do_set(kv::Key key, SharedBytes value,
                           OpContext* op) override;
  sim::Task<Result<Bytes>> do_get(kv::Key key, OpContext* op) override;

  /// Deletes every fragment (and any staged full copy) of the key.
  sim::Task<Status> do_del(kv::Key key, const kv::HashRing& ring) override;

 private:
  // Set paths.
  sim::Task<Status> set_client_encode(kv::Key key, SharedBytes value,
                                      OpContext* op);
  sim::Task<Status> set_server_encode(kv::Key key, SharedBytes value,
                                      OpContext* op);
  // Get paths.
  sim::Task<Result<Bytes>> get_client_decode(kv::Key key, OpContext* op);
  /// `place` is `key`'s placement (the caller may already hold it).
  sim::Task<Result<Bytes>> get_server_decode(kv::Key key, kv::Placement place,
                                             OpContext* op);

  /// One erasure read's fetch state, owned by the Get's frame and driven by
  /// fetch_fragments, which leaves the slots it bound in `decode_set`
  /// (empty when the read failed). Per-slot arrays hold kMaxSlots entries,
  /// of which the codec's n are used.
  struct FragmentFetch {
    FragmentFetch(kv::Key base_key, kv::Placement owners, std::size_t n,
                  ec::SlotMask want_slots,
                  std::optional<ec::ValueSlice> record = std::nullopt)
        : base(std::move(base_key)), place(owners), want(want_slots),
          slice(record), available(ec::first_slots(n)) {}
    kv::Key base;                     ///< every slot's base key
    kv::Placement place;              ///< base's owners
    /// Data slots the read needs: all k for a whole value, or the slots
    /// covering `slice`, one record of a packed stripe.
    ec::SlotMask want;
    std::optional<ec::ValueSlice> slice;
    ec::SlotMask available;           ///< slots not (yet) known-failed
    ec::SlotMask have = 0;            ///< slots whose frags[slot] arrived
    std::array<SharedBytes, kMaxSlots> frags;  ///< arrived fragments by slot
    /// In-flight bookkeeping per slot, private to fetch_fragments.
    struct Slot {
      SimTime issued_at = 0;
      std::uint64_t rpc_id = 0;       ///< cancellable unguarded call or 0
      bool attempted = false;         ///< fetched, in flight, or pre-loaded
      bool hedge = false;             ///< that fetch was a hedge
    };
    std::array<Slot, kMaxSlots> slots;
    /// Invalid = idle.
    std::array<sim::Future<kv::Response>, kMaxSlots> inflight;
    ec::ReadSet decode_set;
    std::optional<kv::ChunkInfo> meta;  ///< chunk header of any arrival
    StatusCode worst = StatusCode::kNotFound;
    bool counted = false;   ///< the op already counted in degraded_gets
    bool degraded = false;  ///< this read worked around a down owner
    bool posted = false;    ///< the fan-out went out
    bool failed = false;              ///< a fetch failed since re-selection
  };

  /// The late-binding fetch machine behind every client-decode Get (the
  /// paper's Era-*-CD read, Equations 4 and 8), whole value or packed
  /// record. Selects a codec-aware read set and posts its fetches from one
  /// CPU slice. A packed record whose covering owners are all live fetches
  /// only those slots of it; any other read charges T_check when an owner
  /// is down, fetches the whole set and arms up to hedge_.delta hedges. It
  /// then waits on the fetches with sim::wait_any and on every wake folds
  /// each resolved fetch in slot order, re-selects (load-ranked) over the
  /// survivors as soon as one fails, fires hedges once due, and binds once
  /// the wanted slots or any k decodable slots arrived, cancelling the
  /// stragglers.
  sim::Task<Status> fetch_fragments(FragmentFetch* f, OpContext* op);

  /// Counts `f`'s read degraded once (a packed record read also in
  /// packed_degraded_gets) and marks the op degraded.
  void mark_degraded(FragmentFetch* f, OpContext* op);

  /// Issues one fragment fetch for `slot` of `f`.
  void issue_fetch(FragmentFetch* f, std::size_t slot, bool hedge,
                   const obs::TraceContext& trace);

  /// Folds every resolved in-flight fetch of `f` into its state.
  void fold_arrivals(FragmentFetch* f);

  /// Once `f` bound, charges T_decode when its read set misses a wanted
  /// slot, then assembles the coded object, or only the record `f` reads.
  sim::Task<Result<Bytes>> decode_fragments(const FragmentFetch* f,
                                            OpContext* op);

  /// One coded object's fragment puts, by slot; a down owner's slot stays
  /// an invalid future.
  struct FragmentPuts {
    std::array<sim::Future<kv::Response>, kMaxSlots> pending;
    std::array<std::size_t, kMaxSlots> owners{};
  };

  /// Posts each of `fragments` (of an `original_size`-byte object under
  /// `base`) to its live owner in `place`.
  void post_fragments(FragmentPuts* puts, const kv::Key& base,
                      kv::Placement& place, const ec::Fragments& fragments,
                      std::size_t original_size,
                      const obs::TraceContext& trace);

  /// Awaits `puts` in slot order, learning each acking owner's load from
  /// its round trip since `t0`.
  sim::Task<WriteTally> await_fragments(FragmentPuts* puts, SimTime t0);

  // ---- Packed-stripe (batched small-object) write path ----------------

  /// One stripe being filled or committed. shared_ptr-held: the group
  /// commit coroutine, the seal timer and every waiting Set all reference
  /// it, and any of them can outlive the others.
  struct StripeState {
    explicit StripeState(sim::Simulator& s) : done(s) {}
    kv::Key skey;                 ///< synthetic stripe base key
    Bytes buffer;                 ///< packed records (materialize mode),
                                  ///< freed once the stripe is encoded
    std::size_t used = 0;         ///< payload bytes appended so far
    std::vector<kv::StripeIndexEntry> records;
    std::vector<SharedBytes> values;  ///< staged copy per record
    bool sealed = false;
    sim::Event done;              ///< set at durability (or failure)
    Status result = Status::Ok();
  };

  /// Set router when packing is active: small values append into stripes;
  /// large values take the per-key path and unlink any stale locator left
  /// by an earlier packed life of the key.
  sim::Task<Status> set_routed_packed(kv::Key key, SharedBytes value,
                                      OpContext* op);

  /// Appends the record into the primary's active stripe (sealing and
  /// rolling over when it would not fit) and waits for that stripe's group
  /// commit to reach durability.
  sim::Task<Status> set_packed(kv::Key key, SharedBytes value,
                               OpContext* op);

  /// Resolves a Get through the stripe locator directory: staging-map hit,
  /// else locator query at the key's directory owners, then read_packed.
  /// Falls back to the per-key path when no locator exists.
  sim::Task<Result<Bytes>> get_packed(kv::Key key, OpContext* op);

  /// get_packed's read once the locator is known: fetch_fragments over the
  /// slots covering the record. `counted`: the op already counted itself
  /// degraded. A frame of its own keeps both coroutine frames within the
  /// frame pool's 2 KiB size classes.
  sim::Task<Result<Bytes>> read_packed(kv::StripeLoc loc, bool counted,
                                       OpContext* op);

  /// Detaches the active stripe of `primary` and spawns its group commit.
  void seal_stripe(std::size_t primary, bool by_timer);

  /// Group-commit timer: seals `st` after the group-commit interval if a
  /// capacity seal has not beaten it to it.
  static sim::Task<void> stripe_timer(ErasureEngine* self,
                                      std::shared_ptr<StripeState> st,
                                      std::size_t primary);

  /// Encodes the sealed stripe once, fans fragments + locator installs
  /// out, resolves durability and wakes every waiting Set.
  static sim::Task<void> commit_stripe(ErasureEngine* self,
                                       std::shared_ptr<StripeState> st);

  /// Posts the removal of the key's locator entry to its live directory
  /// owners under `ring` (overwrite-by-large-value and deletes).
  void unlink_locator(const kv::Key& key, const kv::HashRing& ring,
                      std::vector<sim::Future<kv::Response>>* out);

  /// Ranks the codec's n slots by their owners' load scores into
  /// `storage`, near-equal neighbours swapped by a seeded coin when
  /// `randomize`, and returns the ranked prefix; empty while the tracker is
  /// cold (natural order).
  [[nodiscard]] std::span<const std::size_t> load_preference(
      kv::Placement& place, bool randomize,
      std::array<std::size_t, kMaxSlots>& storage);

  const ec::Codec* codec_;
  ec::CostModel cost_;
  Design design_;
  HedgeParams hedge_;
  PackParams pack_;
  /// Active (filling) stripe per primary server index. Sealed stripes are
  /// detached and live on only through their commit coroutine.
  std::unordered_map<std::size_t, std::shared_ptr<StripeState>> active_;
  /// Read-your-writes staging: key -> value appended to a stripe that has
  /// not reached durability yet. Erased at commit only when the pointer
  /// still matches (a newer overwrite keeps its own entry).
  std::unordered_map<kv::Key, SharedBytes> staging_;
  std::uint64_t stripe_seq_ = 0;
  std::uint64_t fill_permille_sum_ = 0;  ///< feeds stripe_fill_x1000 mean
  /// Per-server queue-depth/RTT EWMAs, fed passively by every response this
  /// engine sees (piggybacked Server::queue_depth). Only consulted when a
  /// read path asks for a load preference.
  NodeLoadTracker load_;
};

}  // namespace hpres::resilience
