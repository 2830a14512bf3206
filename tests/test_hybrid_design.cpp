#include "fft/hybrid_design.hpp"

#include <gtest/gtest.h>

namespace lac::fft {
namespace {

TEST(HybridDesign, MenuCoversPublishedOptions) {
  auto menu = sram_menu();
  ASSERT_GE(menu.size(), 5u);
  for (const auto& o : menu) {
    EXPECT_GT(o.area_mm2, 0.0);
    EXPECT_GT(o.mw_per_ghz, 0.0);
    EXPECT_GT(o.access_pj, 0.0);
  }
  // Dual-porting costs area at equal capacity.
  const auto& s16_1 = menu[0];
  const auto& s16_2 = menu[1];
  EXPECT_LT(s16_1.area_mm2, s16_2.area_mm2);
}

TEST(HybridDesign, ThreeDesignsWithExpectedCapabilities) {
  auto designs = pe_designs();
  ASSERT_EQ(designs.size(), 3u);
  EXPECT_TRUE(designs[0].supports_gemm);
  EXPECT_FALSE(designs[0].supports_fft);
  EXPECT_FALSE(designs[1].supports_gemm);
  EXPECT_TRUE(designs[1].supports_fft);
  EXPECT_TRUE(designs[2].supports_gemm);
  EXPECT_TRUE(designs[2].supports_fft);
}

TEST(HybridDesign, HybridPaysSmallAreaPremium) {
  auto d = pe_designs();
  const double lac = d[0].total_mm2;
  const double hybrid = d[2].total_mm2;
  EXPECT_GT(hybrid, lac);            // extra RF + second SRAM organisation
  EXPECT_LT(hybrid, 1.35 * lac);     // ...but only a modest premium
}

TEST(HybridDesign, AreaBreakdownSumsToTotal) {
  for (const auto& d : pe_designs()) {
    EXPECT_NEAR(d.fmac_mm2 + d.sram_mm2 + d.rf_ctrl_mm2, d.total_mm2, 1e-12);
    EXPECT_GT(d.sram_mm2, d.fmac_mm2);  // storage dominates PE area
  }
}

TEST(HybridDesign, PowerOrderingActualVsMax) {
  for (const auto& d : pe_designs()) {
    if (d.gemm_power_mw > 0) {
      EXPECT_LE(d.gemm_power_mw, d.max_power_mw);
    }
    if (d.fft_power_mw > 0) {
      EXPECT_LE(d.fft_power_mw, d.max_power_mw);
    }
  }
}

TEST(HybridDesign, Fig69NormalizedEfficiencies) {
  auto d = pe_designs();
  // Original LAC on GEMM is the 1.0 reference.
  EXPECT_NEAR(d[0].gemm_eff_norm, 1.0, 1e-12);
  // Hybrid GEMM efficiency within ~15% of the original (the paper's
  // "minimal loss in efficiency" claim).
  EXPECT_GT(d[2].gemm_eff_norm, 0.85);
  // FFT efficiencies land below GEMM (lower useful-flop density).
  EXPECT_LT(d[2].fft_eff_norm, d[2].gemm_eff_norm);
  EXPECT_GT(d[2].fft_eff_norm, 0.3);
}

TEST(HybridDesign, PlatformComparisonOrdersOurDesignsFirst) {
  auto rows = fft_platform_comparison();
  ASSERT_GE(rows.size(), 5u);
  double best_ours = 0.0, best_published = 0.0;
  for (const auto& r : rows) {
    if (r.from_model) best_ours = std::max(best_ours, r.gflops_per_w);
    else if (r.name.find("ASIC") == std::string::npos)
      best_published = std::max(best_published, r.gflops_per_w);
  }
  // Table 6.2 claim: an order of magnitude over programmable platforms.
  EXPECT_GT(best_ours, 5.0 * best_published);
}

}  // namespace
}  // namespace lac::fft
