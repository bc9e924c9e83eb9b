// Lustre model, Boldio client streaming, and TestDFSIO map tasks.
#include <gtest/gtest.h>

#include <algorithm>

#include "boldio/dfsio.h"
#include "testing/fixtures.h"

namespace hpres::boldio {
namespace {

using hpres::testing::FiveNodeClusterTest;
using hpres::testing::run_sim;

// --- LustreModel --------------------------------------------------------------

constexpr std::uint64_t kMB = 1'000'000;

/// One `bytes`-long transfer; stamps its completion time into *done_at
/// (the latest of all transfers sharing it).
sim::Task<void> lustre_io(sim::Simulator* sim, LustreModel* l,
                          std::uint64_t bytes, bool write, SimTime* done_at) {
  if (write) {
    co_await l->write(bytes);
  } else {
    co_await l->read(bytes);
  }
  *done_at = std::max(*done_at, sim->now());
}

TEST(Lustre, SingleStreamBoundByStreamRate) {
  static_assert(LustreModel::kPerStreamGbps <
                LustreModel::kAggregateWriteGbps);
  sim::Simulator sim;
  LustreModel lustre(sim);
  SimTime done = 0;
  sim.spawn(lustre_io(&sim, &lustre, kMB, /*write=*/true, &done));
  sim.run();
  // The stream cap, not the fatter aggregate pipe, bounds one stream.
  EXPECT_EQ(done, units::transfer_time_ns(kMB, LustreModel::kPerStreamGbps) +
                      LustreModel::kMetadataNs);
}

TEST(Lustre, ConcurrentStreamsShareAggregate) {
  // 8 streams ask for 8 x 2.4 Gbps of a 9 Gbps pipe: they queue on it, and
  // the last finishes after all 8 MB have crossed it.
  sim::Simulator sim;
  LustreModel lustre(sim);
  SimTime done = 0;
  for (int i = 0; i < 8; ++i) {
    sim.spawn(lustre_io(&sim, &lustre, kMB, /*write=*/true, &done));
  }
  sim.run();
  EXPECT_EQ(done, 8 * units::transfer_time_ns(
                          kMB, LustreModel::kAggregateWriteGbps) +
                      LustreModel::kMetadataNs);
}

TEST(Lustre, ReadAndWritePipesAreIndependent) {
  // 8 writers and 8 readers at once (8 x 2.4 Gbps overruns both the 9 and
  // the 18.5 Gbps pipe): each direction finishes as if it ran alone on its
  // own pipe (full duplex).
  sim::Simulator sim;
  LustreModel lustre(sim);
  SimTime writes_done = 0;
  SimTime reads_done = 0;
  for (int i = 0; i < 8; ++i) {
    sim.spawn(lustre_io(&sim, &lustre, kMB, /*write=*/true, &writes_done));
    sim.spawn(lustre_io(&sim, &lustre, kMB, /*write=*/false, &reads_done));
  }
  sim.run();
  EXPECT_EQ(writes_done, 8 * units::transfer_time_ns(
                                 kMB, LustreModel::kAggregateWriteGbps) +
                             LustreModel::kMetadataNs);
  EXPECT_EQ(reads_done, 8 * units::transfer_time_ns(
                                kMB, LustreModel::kAggregateReadGbps) +
                            LustreModel::kMetadataNs);
  EXPECT_EQ(lustre.stats().bytes_written, 8 * kMB);
  EXPECT_EQ(lustre.stats().bytes_read, 8 * kMB);
}

TEST(Lustre, MetadataCostPerOperation) {
  // Empty transfers cost only the metadata round trip, once per operation.
  sim::Simulator sim;
  LustreModel lustre(sim);
  struct Body {
    static sim::Task<void> run(LustreModel* l) {
      co_await l->write(0);
      co_await l->read(0);
    }
  };
  sim.spawn(Body::run(&lustre));
  sim.run();
  EXPECT_EQ(sim.now(), 2 * LustreModel::kMetadataNs);
  EXPECT_EQ(lustre.stats().write_ops, 1u);
  EXPECT_EQ(lustre.stats().read_ops, 1u);
}

// --- BoldioClient ---------------------------------------------------------------

constexpr std::uint64_t kChunk = BoldioClient::kChunkBytes;

class BoldioTest : public FiveNodeClusterTest {
 protected:
  BoldioTest() : lustre_(cluster_.sim()) {}
  LustreModel lustre_;
};

TEST_F(BoldioTest, WriteFileStoresAllChunksResiliently) {
  auto engine = make_engine(resilience::Design::kEraCeCd);
  cluster_.start();
  BoldioClient client(cluster_.sim(), *engine, &lustre_);
  struct Body {
    static sim::Task<void> run(BoldioClient* c, cluster::Cluster* cl) {
      const Status s = co_await c->write_file("job/part-0", 4 * kChunk);
      EXPECT_TRUE(s.ok());
      // 4 chunks x 5 fragments spread across the cluster.
      std::size_t items = 0;
      for (std::size_t i = 0; i < 5; ++i) {
        items += cl->server(i).store().items();
      }
      EXPECT_EQ(items, 20u);
    }
  };
  run_sim(cluster_.sim(), Body::run, &client, &cluster_);
  EXPECT_EQ(client.stats().files_written, 1u);
  EXPECT_EQ(client.stats().bytes_written, 4 * kChunk);
  EXPECT_EQ(client.stats().chunk_failures, 0u);
  // Asynchronous persistence reached Lustre.
  EXPECT_EQ(lustre_.stats().bytes_written, 4 * kChunk);
}

TEST_F(BoldioTest, ReadBackFromBurstBuffer) {
  auto engine = make_engine(resilience::Design::kEraCeCd);
  cluster_.start();
  BoldioClient client(cluster_.sim(), *engine, &lustre_);
  struct Body {
    static sim::Task<void> run(BoldioClient* c) {
      // Two whole chunks and a short tail chunk.
      (void)co_await c->write_file("f", 2 * kChunk + 1000);
      const Status s = co_await c->read_file("f", 2 * kChunk + 1000);
      EXPECT_TRUE(s.ok());
    }
  };
  run_sim(cluster_.sim(), Body::run, &client);
  EXPECT_EQ(client.stats().files_read, 1u);
  EXPECT_EQ(client.stats().chunk_failures, 0u);
}

TEST_F(BoldioTest, ReadSurvivesTolerableServerFailures) {
  auto engine = make_engine(resilience::Design::kEraCeCd);
  cluster_.start();
  BoldioClient client(cluster_.sim(), *engine, &lustre_);
  struct Body {
    static sim::Task<void> run(BoldioClient* c, cluster::Cluster* cl) {
      (void)co_await c->write_file("resilient", 3 * kChunk);
      cl->fail_server(0);
      cl->fail_server(1);
      const Status s = co_await c->read_file("resilient", 3 * kChunk);
      EXPECT_TRUE(s.ok()) << s;
    }
  };
  run_sim(cluster_.sim(), Body::run, &client, &cluster_);
}

TEST_F(BoldioTest, MissingFileReadFails) {
  auto engine = make_engine(resilience::Design::kEraCeCd);
  cluster_.start();
  BoldioClient client(cluster_.sim(), *engine, &lustre_);
  struct Body {
    static sim::Task<void> run(BoldioClient* c) {
      const Status s = co_await c->read_file("never-written", kChunk);
      EXPECT_FALSE(s.ok());
    }
  };
  run_sim(cluster_.sim(), Body::run, &client);
}

// --- TestDFSIO map tasks ---------------------------------------------------------

TEST_F(BoldioTest, DfsioBoldioMapsCompleteAndCountDown) {
  auto engine = make_engine(resilience::Design::kEraCeCd);
  cluster_.start();
  BoldioClient client(cluster_.sim(), *engine, &lustre_);
  sim::Latch done(cluster_.sim(), 4);
  std::uint64_t failures = 0;
  for (int m = 0; m < 4; ++m) {
    cluster_.sim().spawn(dfsio_boldio_map(&client,
                                          "dfsio/f" + std::to_string(m),
                                          2 * kChunk, /*write=*/true,
                                          &done, &failures));
  }
  cluster_.run();
  EXPECT_EQ(done.remaining(), 0u);
  EXPECT_EQ(failures, 0u);
}

TEST(DfsioDirect, LustreDirectMapsStreamAllBytes) {
  // Chunk-sized requests: 4 whole chunks and a short tail per map.
  sim::Simulator sim;
  LustreModel lustre(sim);
  sim::Latch done(sim, 3);
  for (int m = 0; m < 3; ++m) {
    sim.spawn(dfsio_direct_map(&lustre, 4 * kChunk + 1000, /*write=*/true,
                               &done));
  }
  sim.run();
  EXPECT_EQ(done.remaining(), 0u);
  EXPECT_EQ(lustre.stats().bytes_written, 3 * (4 * kChunk + 1000));
  EXPECT_EQ(lustre.stats().write_ops, 15u);
}

TEST(DfsioResult, ThroughputMath) {
  DfsioResult r;
  r.total_bytes = 100 * 1024 * 1024;
  r.makespan_ns = units::kSecond;
  EXPECT_DOUBLE_EQ(r.throughput_mib_s(), 100.0);
  r.makespan_ns = 0;
  EXPECT_EQ(r.throughput_mib_s(), 0.0);
}

}  // namespace
}  // namespace hpres::boldio
