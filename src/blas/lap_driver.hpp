#pragma once
// The LAP programming model (Fig 1.2): a host-side library layer that
// decomposes large problems into LAC-sized atomic kernels
// (algorithms-by-blocks) and dispatches them to the fabric execution layer,
// accumulating cycle counts and activity statistics across calls.
//
// The level-3 drivers (GEMM, TRMM, SYMM) loop over GEMM tiles here. The
// factorizations (Cholesky, LU, QR) have one implementation, the kernel
// graphs of sched/graph_builders.hpp: each driver builds its graph, runs it
// and rolls the nodes up into its report. The graph runs in topological
// order on the calling thread, with no pool and no scheduler, each node
// through sched::run_node (as a GraphScheduler worker runs it); a width
// passed to lap_cholesky only sets the makespan figures.
//
// Every driver takes the fabric::Executor to run on: the cycle-exact
// SimExecutor or the instant ModelExecutor produce the same numerics, so
// the backend is a deployment choice, not an algorithm change.
#include <vector>

#include "arch/configs.hpp"
#include "common/units.hpp"
#include "common/matrix.hpp"
#include "fabric/executor.hpp"

namespace lac::blas {

struct DriverReport {
  units::Cycles total_cycles;    ///< accumulated accelerator cycles
  double utilization = 0.0;      ///< useful MACs / (cycles * nr^2)
  units::Nanojoules energy_nj;   ///< accumulated kernel energy
  units::Watts avg_power_w;      ///< energy over the accumulated makespan
  units::SquareMillimeters area_mm2;  ///< silicon evaluated (max over kernels)
  sim::Stats stats;              ///< zero when run on the analytical backend
  int kernel_calls = 0;
  /// Kernel-graph figures, filled by the factorizations (CHOL, LU, QR) and
  /// zero for GEMM, TRMM and SYMM: the W-worker list-schedule length of the
  /// kernel DAG and the serial-sum-over-makespan speedup it implies.
  units::Cycles makespan_cycles;
  double graph_speedup = 0.0;
  unsigned graph_workers = 0;
};

/// Accelerated GEMM: C += A * B for arbitrary (m, n, k) padded to nr
/// multiples, blocked into mc x kc resident tiles per §3.3.
///
/// GEMM, TRMM and SYMM run each tile through fabric::run_request; a failed
/// tile (a backend exception or a cost that is not finite and >= 0
/// included) throws std::runtime_error ("lap driver kernel failed: <why>").
DriverReport lap_gemm(const fabric::Executor& ex, const arch::CoreConfig& cfg,
                      double bw_words_per_cycle, index_t mc, index_t kc,
                      ConstViewD a, ConstViewD b, ViewD c);

/// Accelerated blocked Cholesky (algorithm-by-blocks, Ch. 6): the tiled
/// POTRF/TRSM/SYRK/GEMM DAG of sched::build_cholesky_graph, run on the
/// calling thread. `a` (n x n, n % block == 0, block % nr == 0) is
/// overwritten with L (lower). The factor and every cost are the same for
/// any `workers`: the width only sets the makespan figures, the length of
/// a `workers`-core list schedule of the DAG (0 sizes it to the hardware
/// concurrency).
///
/// A failed kernel throws std::runtime_error ("lap driver kernel failed:
/// <node>: <why>") and leaves `a` as it was; so do LU and QR. A shape the
/// graph builder rejects throws its std::invalid_argument, before any
/// kernel runs (LU and QR: m >= n, both multiples of nr).
DriverReport lap_cholesky(const fabric::Executor& ex, const arch::CoreConfig& cfg,
                          double bw_words_per_cycle, index_t block, ViewD a,
                          unsigned workers = 1);

/// Accelerated blocked LU with partial pivoting (§6.1.2): the LAC factors
/// each k x nr panel (pivot search + reciprocal scale + rank-1 updates);
/// the U row panel is a TRSM and the trailing update an accelerated GEMM.
/// Runs sched::build_lu_graph with one column tile, a chain of kernels, on
/// the calling thread. `a` becomes L\U, pivots out.
DriverReport lap_lu(const fabric::Executor& ex, const arch::CoreConfig& cfg,
                    double bw_words_per_cycle, ViewD a,
                    std::vector<index_t>& pivots);

/// Accelerated blocked Householder QR (§6.1.3): the LAC factors each
/// m x nr panel (vector norms + reflectors); each reflector's trailing
/// update (w = u^T A2 / tau, A2 -= u w^T) runs as two accelerated GEMMs.
/// Runs sched::build_qr_graph with one column tile, a chain of kernels, on
/// the calling thread.
DriverReport lap_qr(const fabric::Executor& ex, const arch::CoreConfig& cfg,
                    double bw_words_per_cycle, ViewD a, std::vector<double>& taus);

/// Accelerated TRMM (§5.1): B := L * B for lower-triangular L, cast into
/// accelerated GEMM tiles over the non-zero blocks of L (panel lengths
/// grow per iteration, exactly the paper's description).
DriverReport lap_trmm(const fabric::Executor& ex, const arch::CoreConfig& cfg,
                      double bw_words_per_cycle, index_t block, ConstViewD l,
                      ViewD b);

/// Accelerated SYMM (§5.1): C := C + A * B with symmetric A stored lower;
/// above-diagonal tiles of A are recovered by transposing the mirrored
/// block before dispatch (the paper's "some blocks need transposition").
DriverReport lap_symm(const fabric::Executor& ex, const arch::CoreConfig& cfg,
                      double bw_words_per_cycle, index_t block, ConstViewD a_lower,
                      ConstViewD b, ViewD c);

}  // namespace lac::blas
