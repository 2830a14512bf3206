#include "model/factor_model.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "arch/presets.hpp"
#include "fabric/model_executor.hpp"

namespace lac::model {
namespace {

TEST(FactorModel, CholeskyClosedForm) {
  EXPECT_EQ(cholesky_unblocked_cycles(4, 5, 13), 2 * 5 * 3 + 13 * 4);
  EXPECT_EQ(cholesky_unblocked_cycles(8, 9, 13), 2 * 9 * 7 + 13 * 8);
}

TEST(FactorModel, TrsmVariantsOrdering) {
  const int nr = 4, p = 8;
  const cycle_t basic = trsm_basic_cycles(nr, p);
  const cycle_t stacked = trsm_stacked_cycles(nr, p);
  EXPECT_EQ(basic, 64);
  EXPECT_EQ(stacked, basic + p);
  // Stacked amortizes p blocks in ~the time of one basic solve: per-block
  // cost collapses by ~p.
  EXPECT_LT(static_cast<double>(stacked) / p, static_cast<double>(basic) / 2);
  // Software pipelining g groups: p*nr*(g+1) for g*p blocks.
  EXPECT_EQ(trsm_swp_cycles(nr, p, 4), 8 * 4 * 5);
  const double per_block_swp = static_cast<double>(trsm_swp_cycles(nr, p, 4)) / (4 * p);
  EXPECT_LT(per_block_swp, static_cast<double>(stacked) / p);
}

TEST(FactorModel, RecipLatencyPerSfuOption) {
  arch::CoreConfig c = arch::lac_4x4_dp();
  c.sfu = arch::SfuOption::IsolatedUnit;
  EXPECT_EQ(recip_latency(c), c.sfu_latency_recip);
  c.sfu = arch::SfuOption::DiagonalPEs;
  EXPECT_EQ(recip_latency(c), c.sfu_latency_recip + 2);
  c.sfu = arch::SfuOption::Software;
  EXPECT_EQ(recip_latency(c), c.sw_emulation_cycles);
  EXPECT_GT(rsqrt_latency(c), recip_latency(c));
}

/// The model backend's cycles for a k x nr LU panel and a k-element VNORM.
double lu_cycles(index_t k, const arch::CoreConfig& core) {
  return fabric::model_cycles(fabric::make_lu(core, MatrixD(k, core.nr, 1.0))).value();
}
double vnorm_cycles(index_t k, const arch::CoreConfig& core) {
  return fabric::model_cycles(
             fabric::make_vnorm(core, std::vector<double>(static_cast<std::size_t>(k), 1.0)))
      .value();
}

TEST(FactorModel, LuCyclesScaleWithK) {
  arch::CoreConfig c = arch::lac_4x4_dp();
  const double c64 = lu_cycles(64, c);
  const double c128 = lu_cycles(128, c);
  const double c256 = lu_cycles(256, c);
  EXPECT_LT(c64, c128);
  EXPECT_LT(c128, c256);
  // Fixed per-iteration overheads mean less than 2x growth per doubling.
  EXPECT_LT(c256 / c128, 2.0);
}

TEST(FactorModel, ComparatorExtensionShrinksLu) {
  arch::CoreConfig base = arch::lac_4x4_dp();
  arch::CoreConfig ext = base;
  ext.pe.extensions.comparator = true;
  EXPECT_LT(lu_cycles(128, ext), lu_cycles(128, base));
}

TEST(FactorModel, ExponentExtensionShrinksVnorm) {
  arch::CoreConfig base = arch::lac_4x4_dp();
  arch::CoreConfig ext = base;
  ext.pe.extensions.extended_exponent = true;
  EXPECT_LT(vnorm_cycles(256, ext), vnorm_cycles(256, base));
  // The guard pass dominates for long vectors: extension saves >30%.
  const double ratio = vnorm_cycles(1024, ext) / vnorm_cycles(1024, base);
  EXPECT_LT(ratio, 0.7);
}

TEST(FactorModel, SfuOptionOrderingForVnorm) {
  arch::CoreConfig sw = arch::lac_4x4_dp();
  sw.sfu = arch::SfuOption::Software;
  arch::CoreConfig iso = arch::lac_4x4_dp();
  iso.sfu = arch::SfuOption::IsolatedUnit;
  EXPECT_GT(vnorm_cycles(128, sw), vnorm_cycles(128, iso));
}

}  // namespace
}  // namespace lac::model
