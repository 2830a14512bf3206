#include <gtest/gtest.h>

#include "arch/presets.hpp"
#include "arch/technology.hpp"

namespace lac::arch {
namespace {

TEST(Presets, BaselineLacMatchesPaperParameters) {
  CoreConfig c = lac_4x4_dp();
  EXPECT_EQ(c.nr, 4);
  EXPECT_EQ(c.pes(), 16);
  EXPECT_EQ(c.pe.precision, Precision::Double);
  EXPECT_DOUBLE_EQ(c.pe.mem_a_kbytes, 16.0);
  EXPECT_DOUBLE_EQ(c.pe.mem_b_kbytes, 2.0);
  EXPECT_EQ(c.pe.mem_a_ports, 1);
  EXPECT_EQ(c.pe.mem_b_ports, 2);
  EXPECT_EQ(c.pe.register_file_entries, 4);
  EXPECT_DOUBLE_EQ(c.peak_gflops(), 32.0);  // 16 PEs * 2 flops * 1 GHz
}

TEST(Presets, LocalStoreWordsHonorPrecision) {
  CoreConfig dp = lac_4x4_dp();
  CoreConfig sp = lac_4x4_sp();
  EXPECT_DOUBLE_EQ(dp.pe.local_store_words(), 18.0 * 1024 / 8);
  EXPECT_DOUBLE_EQ(sp.pe.local_store_words(), 18.0 * 1024 / 4);
}

TEST(Presets, ThroughputMatchedLaps) {
  ChipConfig sp = lap30_sp();
  ChipConfig dp = lap15_dp();
  EXPECT_EQ(sp.cores, 30);
  EXPECT_EQ(dp.cores, 15);
  // §4.5: 1200 SP / 600 DP GFLOPS hardware peak at ~90% utilization:
  EXPECT_NEAR(sp.peak_gflops(), 1344.0, 1.0);
  EXPECT_NEAR(dp.peak_gflops(), 672.0, 1.0);
  EXPECT_NEAR(sp.peak_gflops() * 0.9, 1200.0, 20.0);
  EXPECT_NEAR(dp.peak_gflops() * 0.9, 600.0, 10.0);
}

TEST(Presets, Lap8TotalPes) {
  ChipConfig chip = lap_s8();
  EXPECT_EQ(chip.total_pes(), 128);
}

TEST(Technology, ScalingMonotonic) {
  // Scaling a 65nm design down to 45nm shrinks area (~(45/65)^2) and
  // dynamic power (~45/65); a 32nm design scales the other way.
  EXPECT_LT(area_scale_to_45(TechNode::nm65), 1.0);
  EXPECT_GT(area_scale_to_45(TechNode::nm32), 1.0);
  EXPECT_LT(power_scale_to_45(TechNode::nm65), 1.0);
  EXPECT_GT(power_scale_to_45(TechNode::nm32), 1.0);
  EXPECT_GE(idle_fraction(TechNode::nm45), 0.25);
  EXPECT_LE(idle_fraction(TechNode::nm45), 0.30);
  EXPECT_EQ(to_string(TechNode::nm45), "45nm");
}

TEST(Technology, TypedScaleFrom45PinsNodeFactors) {
  // The typed overloads pick the scaling law from the quantity's dimension:
  // energy and power scale ~L, area ~L^2. Pin the 45nm -> 32nm factors a
  // technology sweep relies on, in each typed representation.
  const double p = power_scale_from_45(TechNode::nm32);
  const double a = area_scale_from_45(TechNode::nm32);
  EXPECT_NEAR(p, 32.0 / 45.0, 1e-12);
  EXPECT_NEAR(a, (32.0 / 45.0) * (32.0 / 45.0), 1e-12);
  EXPECT_DOUBLE_EQ(
      scale_from_45(units::Picojoules(12.0), TechNode::nm32).value(), 12.0 * p);
  EXPECT_DOUBLE_EQ(
      scale_from_45(units::Nanojoules(3.0), TechNode::nm32).value(), 3.0 * p);
  EXPECT_DOUBLE_EQ(
      scale_from_45(units::Milliwatts(40.0), TechNode::nm32).value(), 40.0 * p);
  EXPECT_DOUBLE_EQ(scale_from_45(units::Watts(2.0), TechNode::nm32).value(),
                   2.0 * p);
  EXPECT_DOUBLE_EQ(
      scale_from_45(units::SquareMillimeters(1.5), TechNode::nm32).value(),
      1.5 * a);
  // 45nm is the identity node in every representation.
  EXPECT_DOUBLE_EQ(
      scale_from_45(units::Picojoules(12.0), TechNode::nm45).value(), 12.0);
  EXPECT_DOUBLE_EQ(
      scale_from_45(units::SquareMillimeters(1.5), TechNode::nm45).value(), 1.5);
  // The pJ and nJ overloads agree across the scale boundary: scaling then
  // converting equals converting then scaling.
  const units::Picojoules pj45(750.0);
  EXPECT_DOUBLE_EQ(
      units::to_nanojoules(scale_from_45(pj45, TechNode::nm32)).value(),
      scale_from_45(units::to_nanojoules(pj45), TechNode::nm32).value());
}

TEST(Configs, EnumNames) {
  EXPECT_EQ(to_string(SfuOption::Software), "SW");
  EXPECT_EQ(to_string(SfuOption::IsolatedUnit), "Isolate");
  EXPECT_EQ(to_string(SfuOption::DiagonalPEs), "Diag PEs");
  EXPECT_EQ(to_string(OnChipMemKind::BankedSram), "SRAM");
  EXPECT_EQ(to_string(OnChipMemKind::Nuca), "NUCA");
}

}  // namespace
}  // namespace lac::arch
