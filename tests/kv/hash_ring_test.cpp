// Consistent hashing and chunk placement properties.
#include "kv/hash_ring.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"

namespace hpres::kv {
namespace {

TEST(HashRing, PrimaryIsStable) {
  const HashRing ring(5);
  for (int i = 0; i < 100; ++i) {
    const std::string key = "key-" + std::to_string(i);
    EXPECT_EQ(ring.primary_index(key), ring.primary_index(key));
  }
}

TEST(HashRing, PrimaryInRange) {
  const HashRing ring(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(ring.primary_index("k" + std::to_string(i)), 5u);
  }
}

TEST(HashRing, DistributionIsRoughlyBalanced) {
  const HashRing ring(5);
  std::vector<int> counts(5, 0);
  constexpr int kKeys = 20'000;
  for (int i = 0; i < kKeys; ++i) {
    ++counts[ring.primary_index("user:" + std::to_string(i))];
  }
  for (const int c : counts) {
    // Each server should own 20% +- 8% absolute of keys.
    EXPECT_NEAR(c, kKeys / 5, kKeys * 8 / 100);
  }
}

TEST(HashRing, SlotPlacementIsListSuccessors) {
  const HashRing ring(5);
  const std::string key = "abc";
  const std::size_t p = ring.primary_index(key);
  for (std::size_t slot = 0; slot < 5; ++slot) {
    EXPECT_EQ(ring.slot_index(key, slot), (p + slot) % 5);
  }
}

TEST(HashRing, NSlotsCoverNDistinctServers) {
  // The paper places K+M fragments on K+M unique nodes.
  const HashRing ring(5);
  for (int i = 0; i < 50; ++i) {
    const std::string key = "obj" + std::to_string(i);
    std::set<std::size_t> owners;
    for (std::size_t slot = 0; slot < 5; ++slot) {
      owners.insert(ring.slot_index(key, slot));
    }
    EXPECT_EQ(owners.size(), 5u);
  }
}

TEST(HashRing, SingleServerOwnsEverything) {
  const HashRing ring(1);
  EXPECT_EQ(ring.primary_index("anything"), 0u);
  EXPECT_EQ(ring.slot_index("anything", 3), 0u);
}

TEST(HashRing, HashAvoidsTrivialCollisions) {
  std::set<std::uint64_t> hashes;
  for (int i = 0; i < 10'000; ++i) {
    hashes.insert(HashRing::hash_key("key-" + std::to_string(i)));
  }
  EXPECT_EQ(hashes.size(), 10'000u);
}

// --- Elastic placement: epochs, active sets, moved-range diffs ------------

TEST(HashRingEpoch, GrownRingMatchesFixedMembershipRing) {
  // A partial ring grown to the full provisioned set places every key and
  // slot exactly like the classic constructor — migration converges to the
  // same layout a fresh cluster of that size would have.
  const HashRing fixed(5);
  HashRing grown(5, /*initial_active=*/3);
  EXPECT_EQ(grown.num_active(), 3u);
  EXPECT_EQ(grown.epoch(), 1u);
  grown.add_server(3);
  grown.add_server(4);
  EXPECT_EQ(grown.num_active(), 5u);
  EXPECT_EQ(grown.epoch(), 3u);
  for (int i = 0; i < 500; ++i) {
    const std::string key = "k" + std::to_string(i);
    EXPECT_EQ(grown.primary_index(key), fixed.primary_index(key));
    for (std::size_t slot = 0; slot < 5; ++slot) {
      EXPECT_EQ(grown.slot_index(key, slot), fixed.slot_index(key, slot));
    }
  }
}

TEST(HashRingEpoch, PartialRingOnlyUsesActiveServers) {
  const HashRing ring(6, /*initial_active=*/4);
  EXPECT_TRUE(ring.is_active(0));
  EXPECT_TRUE(ring.is_active(3));
  EXPECT_FALSE(ring.is_active(4));
  EXPECT_FALSE(ring.is_active(5));
  EXPECT_EQ(ring.num_servers(), 6u);  // provisioned space is unchanged
  for (int i = 0; i < 500; ++i) {
    const std::string key = "k" + std::to_string(i);
    for (std::size_t slot = 0; slot < 4; ++slot) {
      EXPECT_LT(ring.slot_index(key, slot), 4u);
    }
  }
}

TEST(HashRingEpoch, JoinMovesKeysOnlyToTheJoiner) {
  // Consistent-hashing minimality: after a join, a key either keeps its
  // primary or moves to the joining server — never between two incumbents.
  HashRing before(6, /*initial_active=*/4);
  HashRing after = before;
  after.add_server(4);
  const auto ranges = HashRing::moved_ranges(before, after);
  EXPECT_FALSE(ranges.empty());
  for (const auto& r : ranges) {
    EXPECT_NE(r.from, 4u);
    EXPECT_EQ(r.to, 4u);
  }
  for (int i = 0; i < 2000; ++i) {
    const std::string key = "k" + std::to_string(i);
    const std::size_t was = before.primary_index(key);
    const std::size_t now = after.primary_index(key);
    if (now != was) {
      EXPECT_EQ(now, 4u);
    }
    // The range diff is exact: a key moved iff some range covers its hash.
    EXPECT_EQ(now != was,
              HashRing::any_covers(ranges, HashRing::hash_key(key)));
  }
  // Roughly 1/5 of the circle should move to the fifth active server.
  EXPECT_NEAR(HashRing::moved_fraction(ranges), 0.2, 0.1);
}

TEST(HashRingEpoch, LeaveSpillsKeysOnlyFromTheLeaver) {
  HashRing before(6, /*initial_active=*/5);
  HashRing after = before;
  after.remove_server(2);
  for (const auto& r : HashRing::moved_ranges(before, after)) {
    EXPECT_EQ(r.from, 2u);
    EXPECT_NE(r.to, 2u);
  }
  for (int i = 0; i < 2000; ++i) {
    const std::string key = "k" + std::to_string(i);
    if (before.primary_index(key) != 2u) {
      EXPECT_EQ(after.primary_index(key), before.primary_index(key));
    } else {
      EXPECT_NE(after.primary_index(key), 2u);
    }
  }
}

TEST(HashRingEpoch, AddThenRemoveRoundTripsPlacement) {
  const HashRing original(6, /*initial_active=*/4);
  HashRing ring = original;
  ring.add_server(5);
  ring.remove_server(5);
  EXPECT_EQ(ring.epoch(), 3u);  // epochs only move forward
  EXPECT_TRUE(HashRing::moved_ranges(original, ring).empty());
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "k" + std::to_string(i);
    for (std::size_t slot = 0; slot < 4; ++slot) {
      EXPECT_EQ(ring.slot_index(key, slot), original.slot_index(key, slot));
    }
  }
}

TEST(HashRingEpoch, UnmovedPrimariesKeepOwnersWithinOldUnionJoiner) {
  // For a key whose primary did not move, the joiner merely splices into
  // the successor walk: the new owner set is drawn from the old owners
  // plus the joiner, so at most one fragment of such a key migrates.
  HashRing before(6, /*initial_active=*/5);
  HashRing after = before;
  after.add_server(5);
  int checked = 0;
  for (int i = 0; i < 500; ++i) {
    const std::string key = "k" + std::to_string(i);
    if (after.primary_index(key) != before.primary_index(key)) continue;
    ++checked;
    std::set<std::size_t> old_owners;
    for (std::size_t slot = 0; slot < 4; ++slot) {
      old_owners.insert(before.slot_index(key, slot));
    }
    old_owners.insert(5);
    for (std::size_t slot = 0; slot < 4; ++slot) {
      EXPECT_TRUE(old_owners.count(after.slot_index(key, slot)) == 1)
          << "key " << key << " slot " << slot;
    }
  }
  EXPECT_GT(checked, 300);  // most keys keep their primary after one join
}

TEST(HashRingEpoch, MovedRangesCoverMutuallyExclusiveArcs) {
  HashRing before(8, /*initial_active=*/6);
  HashRing after = before;
  after.add_server(6);
  const auto ranges = HashRing::moved_ranges(before, after);
  // Arcs are disjoint: no hash may be covered twice (the migration pass
  // would otherwise move a key twice).
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    int covered = 0;
    for (const auto& r : ranges) {
      if (r.covers(ranges[i].end)) ++covered;
    }
    EXPECT_EQ(covered, 1) << "arc " << i;
  }
  EXPECT_GT(HashRing::moved_fraction(ranges), 0.0);
  EXPECT_LT(HashRing::moved_fraction(ranges), 0.5);
}

// --- One placement per op ------------------------------------------------

/// The paper's placement rule, spelled out: the primary, then the following
/// active servers in list order, wrapping.
std::size_t reference_owner(const HashRing& ring, std::string_view key,
                            std::size_t slot) {
  const std::vector<std::size_t>& active = ring.active();
  const std::size_t primary = ring.primary_index(key);
  std::size_t pos = 0;
  while (active[pos] != primary) ++pos;
  return active[(pos + slot) % active.size()];
}

TEST(HashRingPlacement, PlaceMatchesReferenceRuleThroughMembershipChanges) {
  // Random joins and leaves over 8 provisioned servers, from 3 active up:
  // below a 5-wide codec the slots wrap, and slots past num_active() wrap
  // more than once.
  HashRing ring(8, /*initial_active=*/3);
  Xoshiro256 rng(31);
  std::vector<std::string> keys;
  for (int i = 0; i < 200; ++i) {
    keys.push_back("k" + std::to_string(rng()));
  }
  for (int step = 0; step < 30; ++step) {
    const std::size_t server = rng.next_below(8);
    if (!ring.is_active(server)) {
      ring.add_server(server);
    } else if (ring.num_active() > 1) {
      ring.remove_server(server);
    }
    for (const std::string& key : keys) {
      Placement place = ring.place(key);
      EXPECT_EQ(place.epoch(), ring.epoch());
      EXPECT_FALSE(place.stale());
      for (std::size_t slot = 0; slot < 2 * ring.num_servers(); ++slot) {
        ASSERT_EQ(place.owner(slot), reference_owner(ring, key, slot))
            << key << " slot " << slot << " active " << ring.num_active();
      }
    }
  }
}

TEST(HashRingPlacement, StalePlacementReResolvesUnderTheNewEpoch) {
  HashRing ring(6, /*initial_active=*/4);
  // A key whose slot-2 owner changes when server 4 joins.
  HashRing grown = ring;
  grown.add_server(4);
  std::string key;
  for (int i = 0; key.empty(); ++i) {
    const std::string candidate = "k" + std::to_string(i);
    if (ring.slot_index(candidate, 2) != grown.slot_index(candidate, 2)) {
      key = candidate;
    }
  }
  Placement place = ring.place(key);
  const std::size_t before = place.owner(2);
  EXPECT_EQ(place.epoch(), 1u);

  ring.add_server(4);
  EXPECT_TRUE(place.stale());
  EXPECT_EQ(place.epoch(), 1u);  // nothing re-resolves until it is asked
  // The next lookup answers for the new ring, then the placement is current.
  EXPECT_NE(place.owner(2), before);
  EXPECT_EQ(place.owner(2), grown.slot_index(key, 2));
  EXPECT_FALSE(place.stale());
  EXPECT_EQ(place.epoch(), ring.epoch());
  for (std::size_t slot = 0; slot < 6; ++slot) {
    EXPECT_EQ(place.owner(slot), reference_owner(ring, key, slot));
  }
}

}  // namespace
}  // namespace hpres::kv
