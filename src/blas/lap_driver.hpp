#pragma once
// The LAP programming model (Fig 1.2): a host-side library layer that
// decomposes large problems into LAC-sized atomic kernels
// (algorithms-by-blocks) and dispatches them to the fabric execution layer,
// accumulating cycle counts and activity statistics across calls.
//
// Every driver takes the fabric::Executor to run on: the cycle-exact
// SimExecutor or the instant ModelExecutor produce the same numerics, so
// the backend is a deployment choice, not an algorithm change.
#include <vector>

#include "arch/configs.hpp"
#include "common/units.hpp"
#include "common/matrix.hpp"
#include "common/thread_pool.hpp"
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
  /// Graph-mode extras (zero on the serial driver paths): the W-worker
  /// list-schedule length of the kernel DAG and the serial-sum-over-
  /// makespan speedup it implies.
  units::Cycles makespan_cycles;
  double graph_speedup = 0.0;
  unsigned graph_workers = 0;
};

/// Accelerated GEMM: C += A * B for arbitrary (m, n, k) padded to nr
/// multiples, blocked into mc x kc resident tiles per §3.3.
DriverReport lap_gemm(const fabric::Executor& ex, const arch::CoreConfig& cfg,
                      double bw_words_per_cycle, index_t mc, index_t kc,
                      ConstViewD a, ConstViewD b, ViewD c);

/// Accelerated blocked Cholesky (algorithm-by-blocks, Ch. 6): diagonal
/// Cholesky + TRSM panel + SYRK/GEMM trailing updates, every kernel run on
/// the fabric. `a` is overwritten with L (lower).
DriverReport lap_cholesky(const fabric::Executor& ex, const arch::CoreConfig& cfg,
                          double bw_words_per_cycle, index_t block, ViewD a);

/// Blocked Cholesky re-expressed as a tile-level kernel graph
/// (POTRF/TRSM/SYRK/GEMM DAG, see sched::build_cholesky_graph) executed
/// with panel-level parallelism on the kernel-graph scheduler. Same
/// contract and numerics class as lap_cholesky; the report additionally
/// carries the makespan/speedup figures, and total cycles/energy stay
/// within the graph-vs-serial regression tolerance of the serial driver.
/// `workers` sets the scheduler width; pass it explicitly when the
/// makespan figures must be host-independent (0 sizes to the hardware
/// concurrency). `pool` reuses a caller-owned ThreadPool across calls
/// (e.g. a sweep); by default each call runs a dedicated pool -- never
/// the shared one, because this call blocks on the graph future and
/// parking a shared-pool thread on work that needs shared-pool workers
/// can deadlock.
DriverReport lap_cholesky_graph(const fabric::Executor& ex,
                                const arch::CoreConfig& cfg,
                                double bw_words_per_cycle, index_t block,
                                ViewD a, unsigned workers = 0,
                                ThreadPool* pool = nullptr);

/// Accelerated blocked LU with partial pivoting (§6.1.2): the LAC factors
/// each k x nr panel (pivot search + reciprocal scale + rank-1 updates);
/// the trailing updates are accelerated GEMMs. `a` becomes L\U, pivots out.
DriverReport lap_lu(const fabric::Executor& ex, const arch::CoreConfig& cfg,
                    double bw_words_per_cycle, ViewD a,
                    std::vector<index_t>& pivots);

/// Accelerated blocked Householder QR (§6.1.3): the LAC factors each
/// m x nr panel (vector norms + reflectors); the trailing block update
/// A2 -= V (V^T A2 scaled by tau) runs as accelerated GEMMs.
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
