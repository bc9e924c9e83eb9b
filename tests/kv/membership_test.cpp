#include "kv/membership.h"

#include <gtest/gtest.h>

namespace hpres::kv {
namespace {

TEST(Membership, AllUpInitially) {
  const Membership m(5);
  EXPECT_EQ(m.size(), 5u);
  EXPECT_EQ(m.alive(), 5u);
  EXPECT_TRUE(m.all_up());
  for (std::size_t i = 0; i < 5; ++i) EXPECT_TRUE(m.up(i));
}

TEST(Membership, FailAndRecover) {
  Membership m(3);
  m.set_up(1, false);
  EXPECT_FALSE(m.up(1));
  EXPECT_EQ(m.alive(), 2u);
  EXPECT_FALSE(m.all_up());
  m.set_up(1, true);
  EXPECT_TRUE(m.all_up());
}

TEST(Membership, EpochBumpsOnChangeOnly) {
  Membership m(2);
  const auto e0 = m.epoch();
  m.set_up(0, true);  // no change
  EXPECT_EQ(m.epoch(), e0);
  m.set_up(0, false);
  EXPECT_EQ(m.epoch(), e0 + 1);
  m.set_up(0, false);  // idempotent
  EXPECT_EQ(m.epoch(), e0 + 1);
  m.set_up(0, true);
  EXPECT_EQ(m.epoch(), e0 + 2);
}

}  // namespace
}  // namespace hpres::kv
