// Flight recorder: ring-wrap keeps the freshest window, memory is a pure
// function of (nodes, ring_size) and provably invariant under load, and
// dumps are well-formed and deterministic.
#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace hpres::obs {
namespace {

TEST(FlightRecorder, RecordsAreCompact) {
  // The hot-path contract: one 24-byte store per event.
  EXPECT_EQ(sizeof(FlightRecord), 24u);
}

TEST(FlightRecorder, RingWrapKeepsFreshestWindow) {
  FlightRecorder fr(/*ring_size=*/8);
  fr.ensure_nodes(1);
  for (std::uint64_t i = 0; i < 20; ++i) {
    fr.record(static_cast<SimTime>(i), 0, FlightEventType::kOpStart, i);
  }
  EXPECT_EQ(fr.written(0), 20u);
  const std::vector<FlightRecord> ev = fr.events(0);
  ASSERT_EQ(ev.size(), 8u);  // only the ring's worth retained
  // Oldest-first chronological order, and it is the *last* 8 events.
  for (std::size_t i = 0; i < ev.size(); ++i) {
    EXPECT_EQ(ev[i].t_ns, static_cast<SimTime>(12 + i));
    EXPECT_EQ(ev[i].a, 12 + i);
  }
}

TEST(FlightRecorder, MemoryIsInvariantUnderLoad) {
  FlightRecorder fr(/*ring_size=*/64);
  fr.ensure_nodes(4);
  const std::size_t budget = fr.memory_bytes();
  EXPECT_EQ(budget, 4u * 64u * sizeof(FlightRecord));
  // Hammer the rings far past capacity: the budget must not move a byte.
  for (std::uint64_t i = 0; i < 100'000; ++i) {
    fr.record(static_cast<SimTime>(i), i % 4, FlightEventType::kRpcTimeout,
              i, 7, 1);
  }
  EXPECT_EQ(fr.memory_bytes(), budget);
  EXPECT_EQ(fr.written(0), 25'000u);
  EXPECT_EQ(fr.events(0).size(), 64u);
}

TEST(FlightRecorder, UnknownNodesCountAsDroppedNeverCrash) {
  FlightRecorder fr(8);
  fr.ensure_nodes(2);
  fr.record(1, 5, FlightEventType::kNetDrop);  // node never wired
  fr.record(2, 1, FlightEventType::kNetDrop);
  EXPECT_EQ(fr.dropped_records(), 1u);
  EXPECT_EQ(fr.written(1), 1u);
}

TEST(FlightRecorder, EnsureNodesGrowthKeepsContents) {
  FlightRecorder fr(8);
  fr.set_node_label(0, "server0");
  fr.record(9, 0, FlightEventType::kOpEnd, 123);
  fr.ensure_nodes(5);  // grow after recording
  EXPECT_EQ(fr.num_nodes(), 5u);
  ASSERT_EQ(fr.events(0).size(), 1u);
  EXPECT_EQ(fr.events(0)[0].a, 123u);
}

TEST(FlightRecorder, DumpCarriesLabelsReasonAndEvents) {
  FlightRecorder fr(8);
  fr.set_node_label(0, "server0");
  fr.set_node_label(1, "client0");
  fr.record(100, 0, FlightEventType::kRpcTimeout, 2'000'000, 6);
  fr.record(200, 1, FlightEventType::kOpEnd, 555, 1);
  const std::string json = fr.dump("unit-test", 12345);
  EXPECT_NE(json.find("\"reason\":\"unit-test\""), std::string::npos);
  EXPECT_NE(json.find("\"dumped_at_ns\":12345"), std::string::npos);
  EXPECT_NE(json.find("\"label\":\"server0\""), std::string::npos);
  EXPECT_NE(json.find("\"e\":\"rpc_timeout\""), std::string::npos);
  EXPECT_NE(json.find("\"e\":\"op_end\""), std::string::npos);
  // Deterministic: same state, same bytes.
  EXPECT_EQ(json, fr.dump("unit-test", 12345));
}

TEST(FlightRecorder, DumpToFileNeedsAPathAndCountsDumps) {
  FlightRecorder fr(8);
  fr.ensure_nodes(1);
  EXPECT_FALSE(fr.dump_to_file("no-path", 0));  // no default path set
  EXPECT_EQ(fr.dumps_written(), 0u);

  const std::string path = ::testing::TempDir() + "flight_dump_test.json";
  fr.set_dump_path(path);
  fr.record(1, 0, FlightEventType::kDump, 0);
  EXPECT_TRUE(fr.dump_to_file("crash", 99));
  EXPECT_EQ(fr.dumps_written(), 1u);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  const std::string body((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(body.find("\"reason\":\"crash\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightRecorder, EventNamesAreStable) {
  // health_report matches on these strings; renaming one is a breaking
  // change to the dump format.
  EXPECT_STREQ(flight_event_name(FlightEventType::kRpcTimeout),
               "rpc_timeout");
  EXPECT_STREQ(flight_event_name(FlightEventType::kNetDrop), "net_drop");
  EXPECT_STREQ(flight_event_name(FlightEventType::kHealthState),
               "health_state");
  EXPECT_STREQ(flight_event_name(FlightEventType::kQueueDepth),
               "queue_depth");
}

}  // namespace
}  // namespace hpres::obs
