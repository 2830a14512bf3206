// TRMM and SYMM through the accelerator driver: the remaining level-3
// BLAS operations, cast into accelerated GEMM tiles (§5.1).
#include <gtest/gtest.h>

#include "arch/presets.hpp"
#include "blas/lap_driver.hpp"
#include "blas/ref_blas.hpp"
#include "common/numeric.hpp"
#include "common/random.hpp"
#include "fabric/sim_executor.hpp"

namespace lac::blas {
namespace {

const fabric::SimExecutor kSim;

TEST(LapTrmm, MatchesReference) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  const index_t m = 24, n = 16;
  MatrixD l = random_lower_triangular(m, 1);
  MatrixD b = random_matrix(m, n, 2);
  MatrixD expect = to_matrix<double>(ConstViewD(b.view()));
  trmm(Side::Left, Uplo::Lower, Trans::No, Diag::NonUnit, 1.0, l.view(),
       expect.view());
  DriverReport rep = lap_trmm(kSim, cfg, 2.0, 8, l.view(), b.view());
  EXPECT_LT(rel_error(b.view(), expect.view()), 1e-11);
  // Tile count: lower-triangular block count = t(t+1)/2 for t = m/block.
  EXPECT_EQ(rep.kernel_calls, 6);
}

TEST(LapTrmm, PanelLengthGrowsPerIteration) {
  // §5.1: "the length of the panels increases in each iteration" -- the
  // last row panel multiplies against every block column of L.
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  const index_t m = 32;
  MatrixD l = random_lower_triangular(m, 3);
  MatrixD b = random_matrix(m, 8, 4);
  DriverReport rep = lap_trmm(kSim, cfg, 2.0, 8, l.view(), b.view());
  EXPECT_EQ(rep.kernel_calls, 10);  // 1+2+3+4
}

TEST(LapSymm, MatchesReferenceUsingOnlyLowerStorage) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  const index_t m = 16, n = 8;
  MatrixD a = random_spd(m, 5);
  MatrixD a_lower = to_matrix<double>(ConstViewD(a.view()));
  for (index_t j = 0; j < m; ++j)
    for (index_t i = 0; i < j; ++i) a_lower(i, j) = -777.0;  // poison upper
  MatrixD b = random_matrix(m, n, 6);
  MatrixD c = random_matrix(m, n, 7);
  MatrixD expect = to_matrix<double>(ConstViewD(c.view()));
  symm(Side::Left, Uplo::Lower, 1.0, a_lower.view(), b.view(), 1.0, expect.view());
  DriverReport rep = lap_symm(kSim, cfg, 2.0, 8, a_lower.view(), b.view(), c.view());
  EXPECT_LT(rel_error(c.view(), expect.view()), 1e-11);
  EXPECT_EQ(rep.kernel_calls, 4);  // full 2x2 tile grid
}

TEST(LapSymm, UtilizationComparableToGemm) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  const index_t m = 32, n = 32;
  MatrixD a = random_spd(m, 8);
  MatrixD b = random_matrix(m, n, 9);
  MatrixD c(m, n, 0.0);
  DriverReport symm_rep = lap_symm(kSim, cfg, 2.0, 16, a.view(), b.view(), c.view());
  MatrixD c2(m, n, 0.0);
  DriverReport gemm_rep = lap_gemm(kSim, cfg, 2.0, 16, 16, a.view(), b.view(), c2.view());
  // SYMM is GEMM plus staging transposes: within ~15% of GEMM utilization.
  EXPECT_GT(symm_rep.utilization, 0.85 * gemm_rep.utilization);
}

}  // namespace
}  // namespace lac::blas
