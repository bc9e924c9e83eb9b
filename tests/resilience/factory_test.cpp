// Engine factory: design names, construction, fault tolerance reporting.
#include "resilience/factory.h"

#include <gtest/gtest.h>

#include "testing/fixtures.h"

namespace hpres::resilience {
namespace {

using hpres::testing::FiveNodeClusterTest;

class FactoryTest : public FiveNodeClusterTest {};

TEST_F(FactoryTest, NamesMatchDesigns) {
  EXPECT_EQ(to_string(Design::kNoRep), "no-rep");
  EXPECT_EQ(to_string(Design::kSyncRep), "sync-rep");
  EXPECT_EQ(to_string(Design::kAsyncRep), "async-rep");
  EXPECT_EQ(to_string(Design::kEraCeCd), "era-ce-cd");
  EXPECT_EQ(to_string(Design::kEraSeSd), "era-se-sd");
  EXPECT_EQ(to_string(Design::kEraSeCd), "era-se-cd");
  EXPECT_EQ(to_string(Design::kEraCeSd), "era-ce-sd");
}

TEST_F(FactoryTest, IsErasureClassifier) {
  EXPECT_FALSE(is_erasure(Design::kNoRep));
  EXPECT_FALSE(is_erasure(Design::kSyncRep));
  EXPECT_FALSE(is_erasure(Design::kAsyncRep));
  EXPECT_TRUE(is_erasure(Design::kEraCeCd));
  EXPECT_TRUE(is_erasure(Design::kEraSeSd));
  EXPECT_TRUE(is_erasure(Design::kEraSeCd));
  EXPECT_TRUE(is_erasure(Design::kEraCeSd));
}

TEST_F(FactoryTest, EnginesReportTheirNames) {
  for (const Design d :
       {Design::kSyncRep, Design::kAsyncRep, Design::kEraCeCd,
        Design::kEraSeSd, Design::kEraSeCd, Design::kEraCeSd}) {
    const auto engine = make_engine(d);
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->name(), to_string(d)) << to_string(d);
  }
  // kNoRep maps onto single-copy async replication.
  EXPECT_EQ(make_engine(Design::kNoRep)->name(), "async-rep");
}

TEST_F(FactoryTest, FaultToleranceByDesign) {
  EXPECT_EQ(make_engine(Design::kNoRep)->fault_tolerance(), 0u);
  EXPECT_EQ(make_engine(Design::kSyncRep, 3)->fault_tolerance(), 2u);
  EXPECT_EQ(make_engine(Design::kAsyncRep, 2)->fault_tolerance(), 1u);
  EXPECT_EQ(make_engine(Design::kEraCeCd)->fault_tolerance(), 2u);  // m = 2
}

TEST_F(FactoryTest, ErasureDesignPredicates) {
  EXPECT_TRUE(client_encodes(Design::kEraCeCd));
  EXPECT_TRUE(client_encodes(Design::kEraCeSd));
  EXPECT_FALSE(client_encodes(Design::kEraSeCd));
  EXPECT_FALSE(client_encodes(Design::kEraSeSd));
  EXPECT_TRUE(client_decodes(Design::kEraCeCd));
  EXPECT_TRUE(client_decodes(Design::kEraSeCd));
  EXPECT_FALSE(client_decodes(Design::kEraCeSd));
  EXPECT_FALSE(client_decodes(Design::kEraSeSd));
}

}  // namespace
}  // namespace hpres::resilience
