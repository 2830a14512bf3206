#include "sim/engine.hpp"

#include <gtest/gtest.h>

namespace lac::sim {
namespace {

TEST(Resource, SequentialAcquisition) {
  Resource r;
  EXPECT_DOUBLE_EQ(r.acquire(0.0), 0.0);
  EXPECT_DOUBLE_EQ(r.acquire(0.0), 1.0);  // slot taken, next cycle
  EXPECT_DOUBLE_EQ(r.acquire(5.0), 5.0);  // idle gap allowed
  EXPECT_DOUBLE_EQ(r.acquire(3.0), 6.0);  // cannot start before next_free
  EXPECT_EQ(r.ops(), 4);
  EXPECT_DOUBLE_EQ(r.busy_cycles(), 4.0);
}

TEST(Resource, DurationBasedOccupancy) {
  Resource dma;
  // 10 words at 2 words/cycle = 5 cycles.
  EXPECT_DOUBLE_EQ(dma.acquire(0.0, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(dma.next_free(), 5.0);
  EXPECT_DOUBLE_EQ(dma.acquire(1.0, 2.5), 5.0);
  EXPECT_DOUBLE_EQ(dma.next_free(), 7.5);
}

TEST(Resource, Reset) {
  Resource r;
  r.acquire(0.0, 3.0);
  r.reset();
  EXPECT_DOUBLE_EQ(r.next_free(), 0.0);
  EXPECT_EQ(r.ops(), 0);
}

TEST(Stats, AccumulateAndFlops) {
  Stats a;
  a.mac_ops = 10;
  a.mul_ops = 4;
  Stats b;
  b.mac_ops = 5;
  b.row_bus_xfers = 7;
  a += b;
  EXPECT_EQ(a.mac_ops, 15);
  EXPECT_EQ(a.row_bus_xfers, 7);
  EXPECT_EQ(a.flops(), 2 * 15 + 4);
}

TEST(TimedVal, Helper) {
  TimedVal v = at(3.5, 12.0);
  EXPECT_DOUBLE_EQ(v.v, 3.5);
  EXPECT_DOUBLE_EQ(v.ready, 12.0);
}

}  // namespace
}  // namespace lac::sim
