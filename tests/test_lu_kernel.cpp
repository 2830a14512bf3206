#include "kernels/lu_kernel.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "arch/presets.hpp"
#include "blas/ref_lapack.hpp"
#include "common/numeric.hpp"
#include "common/random.hpp"
#include "fabric/model_executor.hpp"

namespace lac::kernels {
namespace {

TEST(LuKernel, PanelMatchesReferenceFactorsAndPivots) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD a = random_matrix(16, 4, 1);
  LuResult r = lu_panel(cfg, a.view());
  MatrixD expect = to_matrix<double>(ConstViewD(a.view()));
  std::vector<index_t> piv;
  ASSERT_TRUE(blas::lu_partial_pivot(expect.view(), piv));
  ASSERT_EQ(r.pivots.size(), piv.size());
  for (std::size_t i = 0; i < piv.size(); ++i) EXPECT_EQ(r.pivots[i], piv[i]);
  EXPECT_LT(rel_error(r.kernel.out.view(), expect.view()), 1e-12);
}

TEST(LuKernel, MultipliersBoundedByOne) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD a = random_matrix(32, 4, 2);
  LuResult r = lu_panel(cfg, a.view());
  for (index_t j = 0; j < 4; ++j)
    for (index_t i = j + 1; i < 32; ++i)
      EXPECT_LE(std::abs(r.kernel.out(i, j)), 1.0 + 1e-12);
}

TEST(LuKernel, ComparatorExtensionSpeedsPivotSearch) {
  MatrixD a = random_matrix(64, 4, 3);
  arch::CoreConfig base = arch::lac_4x4_dp();
  arch::CoreConfig ext = base;
  ext.pe.extensions.comparator = true;
  LuResult slow = lu_panel(base, a.view());
  LuResult fast = lu_panel(ext, a.view());
  EXPECT_LT(fast.kernel.cycles.value(), slow.kernel.cycles.value());
  EXPECT_LT(rel_error(fast.kernel.out.view(), slow.kernel.out.view()), 1e-15);
}

TEST(LuKernel, SfuOptionsOrderedAsInTableA2) {
  // Table A.2 column ordering: SW emulation slowest, isolated unit in the
  // middle, diagonal-PE extension adds routing but beats software.
  MatrixD a = random_matrix(64, 4, 4);
  auto cycles_for = [&](arch::SfuOption opt) {
    arch::CoreConfig c = arch::lac_4x4_dp();
    c.sfu = opt;
    c.pe.extensions.comparator = true;
    return lu_panel(c, a.view()).kernel.cycles.value();
  };
  const double sw = cycles_for(arch::SfuOption::Software);
  const double iso = cycles_for(arch::SfuOption::IsolatedUnit);
  const double diag = cycles_for(arch::SfuOption::DiagonalPEs);
  EXPECT_GT(sw, iso);
  EXPECT_GT(sw, diag);
}

class LuSizeSweep : public ::testing::TestWithParam<index_t> {};

TEST_P(LuSizeSweep, CycleCountTracksAnalyticalModel) {
  const index_t k = GetParam();
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  cfg.pe.extensions.comparator = true;
  MatrixD a = random_matrix(k, 4, 17 + k);
  LuResult r = lu_panel(cfg, a.view());
  const double model = fabric::model_cycles(fabric::make_lu(cfg, a.view())).value();
  EXPECT_GT(r.kernel.cycles.value(), 0.5 * model);
  EXPECT_LT(r.kernel.cycles.value(), 2.0 * model);
}

INSTANTIATE_TEST_SUITE_P(TableA2Sizes, LuSizeSweep,
                         ::testing::Values(64, 128, 256));

TEST(LuKernel, IllConditionedPanelSelfConsistent) {
  // With a nearly dependent column the fused-MAC updates can legitimately
  // pick different (tied-to-rounding) pivots than the reference, so check
  // the invariant that matters: P*A == L*U for the kernel's own factors.
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  const index_t k = 16;
  MatrixD a = random_matrix(k, 4, 5);
  for (index_t i = 0; i < k; ++i) a(i, 2) = 2.0 * a(i, 0) + 1e-7 * a(i, 1);
  LuResult r = lu_panel(cfg, a.view());

  MatrixD pa = to_matrix<double>(ConstViewD(a.view()));
  blas::apply_pivots(pa.view(), r.pivots);
  for (index_t j = 0; j < 4; ++j)
    for (index_t i = 0; i < k; ++i) {
      double acc = 0.0;
      const index_t lim = std::min<index_t>(i, j);
      for (index_t p = 0; p <= lim; ++p) {
        const double lval = p == i ? 1.0 : r.kernel.out(i, p);
        acc += lval * r.kernel.out(p, j);
      }
      EXPECT_NEAR(acc, pa(i, j), 1e-9 * std::max(1.0, std::abs(pa(i, j))))
          << i << "," << j;
    }
}

}  // namespace
}  // namespace lac::kernels
