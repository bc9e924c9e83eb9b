// Wire-protocol helpers: payload sizing, fragment identity, verb names.
#include "kv/protocol.h"

#include <gtest/gtest.h>

namespace hpres::kv {
namespace {

TEST(Protocol, ChunkKeysAreDistinctPerSlot) {
  EXPECT_NE(chunk_key("k", 0), chunk_key("k", 1));
  EXPECT_NE(chunk_key("k", 0), chunk_key("q", 0));
}

TEST(Protocol, ChunkKeysNeverCollideWithPrintableUserKeys) {
  // The separator is \x01, unreachable from printable benchmark keys.
  const Key user = "user000000000001";
  EXPECT_NE(chunk_key(user, 0), user);
  EXPECT_EQ(chunk_key(user, 0).size(), user.size() + kSlotKeyBytes);
}

TEST(Protocol, FragmentRequestsCarryBaseKeyAndSlot) {
  const Request get = fragment_request(Verb::kGet, "obj", 4);
  EXPECT_EQ(get.verb, Verb::kGet);
  EXPECT_EQ(get.key, "obj");
  EXPECT_EQ(get.slot, 4u);
  const Request put = fragment_put("obj", 2, zero_bytes(10), 30);
  EXPECT_EQ(put.verb, Verb::kSet);
  EXPECT_EQ(put.key, "obj");
  EXPECT_EQ(put.slot, 2u);
  EXPECT_EQ(put.chunk, std::optional<ChunkInfo>(ChunkInfo{30}));
  EXPECT_EQ(Request{}.slot, kNoSlot);  // a whole value by default
}

TEST(Protocol, LocatorRequestsAddressTheDirectoryNotTheStore) {
  const Request lookup = locator_lookup("k");
  EXPECT_EQ(lookup.verb, Verb::kGet);
  EXPECT_EQ(lookup.key, "k");
  EXPECT_TRUE(lookup.stripe_lookup);
  EXPECT_EQ(lookup.slot, kNoSlot);
  const Request unlink = locator_unlink("k");
  EXPECT_EQ(unlink.verb, Verb::kDelete);
  EXPECT_EQ(unlink.key, "k");
  EXPECT_TRUE(unlink.stripe_lookup);
  const Request install =
      locator_install("stripe", 300, {StripeIndexEntry{"k", 11, 89}});
  EXPECT_EQ(install.verb, Verb::kSetStripeIndex);
  EXPECT_EQ(install.key, "stripe");
  EXPECT_EQ(install.chunk, std::optional<ChunkInfo>(ChunkInfo{300}));
  ASSERT_EQ(install.stripe_index.size(), 1u);
  EXPECT_EQ(install.stripe_index[0], (StripeIndexEntry{"k", 11, 89}));
  EXPECT_FALSE(install.if_absent);
  EXPECT_EQ(scan_request(false).verb, Verb::kScan);
  EXPECT_FALSE(scan_request(false).stripe_lookup);
  EXPECT_TRUE(scan_request(true).stripe_lookup);
}

TEST(Protocol, RequestPayloadCountsKeyAndValue) {
  Request r;
  r.key = "0123456789";  // 10 bytes
  EXPECT_EQ(payload_bytes(r), 10u + 16u);
  r.value = make_shared_bytes(Bytes(100));
  EXPECT_EQ(payload_bytes(r), 10u + 100u + 16u);
}

TEST(Protocol, SlottedRequestPaysComposedKeyBytes) {
  // A fragment request is priced as if keyed by chunk_key(base, slot).
  for (const Verb verb : {Verb::kGet, Verb::kSet, Verb::kDelete}) {
    Request slotted = fragment_request(verb, "user000000000042", 3);
    Request composed;
    composed.verb = verb;
    composed.key = chunk_key("user000000000042", 3);
    EXPECT_EQ(payload_bytes(slotted), payload_bytes(composed));
    EXPECT_EQ(key_bytes(slotted), composed.key.size());
    slotted.value = composed.value = zero_bytes(700);
    EXPECT_EQ(payload_bytes(slotted), payload_bytes(composed));
  }
}

TEST(Protocol, ResponsePayloadCountsValueAndKeys) {
  Response r;
  EXPECT_EQ(payload_bytes(r), 16u);
  r.value = make_shared_bytes(Bytes(50));
  EXPECT_EQ(payload_bytes(r), 66u);
  r.keys = {"abc", "defgh"};  // 3+4 + 5+4
  EXPECT_EQ(payload_bytes(r), 66u + 16u);
}

TEST(Protocol, VerbNamesAreStable) {
  EXPECT_EQ(to_string(Verb::kSet), "SET");
  EXPECT_EQ(to_string(Verb::kGet), "GET");
  EXPECT_EQ(to_string(Verb::kDelete), "DELETE");
  EXPECT_EQ(to_string(Verb::kSetEncode), "SET_ENCODE");
  EXPECT_EQ(to_string(Verb::kGetDecode), "GET_DECODE");
  EXPECT_EQ(to_string(Verb::kScan), "SCAN");
}

TEST(Protocol, ChunkInfoEquality) {
  const ChunkInfo a{100};
  ChunkInfo b = a;
  EXPECT_EQ(a, b);
  b.original_size = 101;
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace hpres::kv
