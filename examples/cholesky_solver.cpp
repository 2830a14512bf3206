// End-to-end SPD solve on the accelerator (the Fig 1.2 programming model):
// the host library factors A = L L^T by blocks -- a POTRF/TRSM/SYRK/GEMM
// kernel graph whose every tile kernel runs on the simulated LAC -- then
// solves L L^T x = b and reports the residual plus accelerator statistics.
//
// The same factorization is then priced on 4 LAC cores: independent tiles
// overlap in the 4-core list schedule, so its makespan falls below the
// serial node-by-node sum, while the factor stays byte-identical. The program
// exits nonzero if the solve's relative error exceeds 1e-8 or the two
// factors differ.
#include <cstdio>
#include <cstring>

#include "arch/presets.hpp"
#include "blas/lap_driver.hpp"
#include "blas/ref_blas.hpp"
#include "common/numeric.hpp"
#include "common/random.hpp"
#include "fabric/sim_executor.hpp"

int main() {
  using namespace lac;
  arch::CoreConfig core = arch::lac_4x4_dp(1.0);
  const double bw_words = 1.0;
  const index_t n = 32;
  const index_t block = 8;

  // Build an SPD system A x = rhs with a known solution.
  MatrixD a = random_spd(n, 42);
  MatrixD a0 = to_matrix<double>(ConstViewD(a.view()));
  MatrixD x_true = random_matrix(n, 1, 43);
  MatrixD rhs(n, 1, 0.0);
  blas::gemm(blas::Trans::No, blas::Trans::No, 1.0, a0.view(), x_true.view(), 0.0,
             rhs.view());

  // Factor on the accelerator, one kernel at a time.
  const fabric::SimExecutor sim;
  blas::DriverReport rep = blas::lap_cholesky(sim, core, bw_words, block, a.view());
  std::printf("Cholesky by blocks on the LAC: n=%lld, block=%lld\n",
              static_cast<long long>(n), static_cast<long long>(block));
  std::printf("  kernel calls: %d (potrf, trsm, syrk and gemm tiles)\n",
              rep.kernel_calls);
  std::printf("  accumulated accelerator cycles: %.0f (utilization %.1f%%)\n",
              rep.total_cycles.value(), 100.0 * rep.utilization);
  std::printf("  SFU ops (rsqrt/recip): %lld, bus transfers: %lld\n",
              static_cast<long long>(rep.stats.sfu_ops),
              static_cast<long long>(rep.stats.row_bus_xfers + rep.stats.col_bus_xfers));

  // Forward/backward substitution with the produced factor.
  blas::trsm(blas::Side::Left, blas::Uplo::Lower, blas::Trans::No,
             blas::Diag::NonUnit, 1.0, a.view(), rhs.view());
  blas::trsm(blas::Side::Left, blas::Uplo::Lower, blas::Trans::Yes,
             blas::Diag::NonUnit, 1.0, a.view(), rhs.view());
  const double err = rel_error(rhs.view(), x_true.view());
  std::printf("solution rel error: %.2e\n", err);

  // The same kernel graph with panel-level parallelism across 4 virtual
  // LAC cores.
  MatrixD ag = to_matrix<double>(ConstViewD(a0.view()));
  blas::DriverReport grep =
      blas::lap_cholesky(sim, core, bw_words, block, ag.view(), 4);
  std::printf("\nOn %u LAC cores (%d kernels):\n", grep.graph_workers,
              grep.kernel_calls);
  std::printf("  serial node-by-node cycles: %.0f\n", grep.total_cycles.value());
  std::printf("  %u-core makespan: %.0f cycles -> graph speedup %.2fx\n",
              grep.graph_workers, grep.makespan_cycles.value(), grep.graph_speedup);
  const bool same = std::memcmp(ag.data(), a.data(),
                                static_cast<std::size_t>(n * n) * sizeof(double)) == 0;
  std::printf("  factor byte-equal to the 1-worker run: %s\n", same ? "yes" : "no");

  if (!(err <= 1e-8) || !same) {
    std::fprintf(stderr, "cholesky_solver: %s\n",
                 same ? "solve error above 1e-8" : "4-worker factor differs");
    return 1;
  }
  return 0;
}
