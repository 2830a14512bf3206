#pragma once
// Builders that express the paper's blocked factorizations as KernelGraphs.
//
// Blocked Cholesky/LU/QR are not single kernels: they are DAGs of
// POTRF/TRSM/SYRK/GEMM panel operations (Ch. 6). These builders are the
// only implementation of the three factorizations: they emit the DAG
// itself, so the GraphScheduler can overlap independent panels -- at step
// k of a tiled Cholesky every TRSM of the panel and every SYRK/GEMM of the
// trailing update is independent work -- and the LAP drivers in src/blas
// (lap_cholesky, lap_lu, lap_qr) run them. At `block` = n the LU and QR
// graphs are chains: one panel, then whole-width trailing updates.
//
// Each graph is data. A node is a descriptor: an op code (potrf, trsm,
// syrk, gemm; lu_panel, lu_trsm, lu_gemm; qr_panel, qr_w, qr_rank1) and the
// tile coordinates its name prints. The structure -- descriptors, edges,
// dependency counts, dependents, topological order -- depends only on
// (family, m, n, block, nr); each build indexes and validates it once, into
// one GraphShape, so admission copies its dependency counts instead of
// indexing the graph again. Each build also gets a program of its own, one
// per family, that owns the job's workspace: a copy of the input (`work`),
// the LU pivots or QR taus, and QR's w buffer (one slot per column).
//
// The program's `make` copies each tile a node reads once, straight into
// an immutable request payload, and builds its other operands (transposes,
// negated panels, padded reflectors) in place of a second copy; its
// `commit` writes the output back, after which the scheduler frees it.
// Conflicting accesses are fully ordered by edges, so the factor is
// byte-identical for any worker count. `make` runs when a worker takes the
// node, so every later writer of what it reads is ordered after the node
// itself (KernelGraph's contract): Cholesky never rewrites a finished tile;
// an LU panel swaps rows only after every update of the previous step; QR
// writes each reflector and tau once, before any node reads it, and a w
// slot's next writer is the next qr_w of its column tile, after the
// qr_rank1 that read it.
//
// Each builder throws std::invalid_argument, naming the shape, when its
// shape precondition below does not hold, in every build type.
#include <memory>
#include <vector>

#include "arch/configs.hpp"
#include "common/matrix.hpp"
#include "sched/kernel_graph.hpp"

namespace lac::sched {

/// A factorization expressed as a kernel graph. After the graph has run
/// (all nodes ok), `work` holds the factor:
///   - Cholesky: L in the lower triangle, strict upper *tiles* of the
///     diagonal zeroed; use extract_lower() for the full L contract.
///   - LU: L\U in-place with `pivots` filled (global row indices).
///   - QR: Householder vectors below the diagonal, R on/above, `taus`.
struct FactorGraph {
  KernelGraph graph;
  std::shared_ptr<MatrixD> work;                 ///< factor accumulates here
  std::shared_ptr<std::vector<index_t>> pivots;  ///< LU only
  std::shared_ptr<std::vector<double>> taus;     ///< QR only
  index_t block = 0;                             ///< tile width used
};

/// Tiled Cholesky (POTRF/TRSM/SYRK/GEMM DAG) of the SPD matrix `a`
/// (n x n, n % block == 0, block % cfg.nr == 0). Node count is
/// T + T(T-1)/2 + T(T-1)/2 + T(T-1)(T-2)/6 for T = n/block tiles.
FactorGraph build_cholesky_graph(const arch::CoreConfig& cfg,
                                 double bw_words_per_cycle, ConstViewD a,
                                 index_t block);

/// Tiled LU with partial pivoting (m x n, m >= n, both multiples of
/// cfg.nr; trailing updates split into `block`-wide column tiles). The
/// pivot application serializes each panel against the previous step's
/// updates -- the realistic LU DAG shape -- while the per-step trailing
/// GEMMs run in parallel.
FactorGraph build_lu_graph(const arch::CoreConfig& cfg,
                           double bw_words_per_cycle, ConstViewD a,
                           index_t block);

/// Tiled Householder QR (m x n, m >= n, both multiples of cfg.nr). The
/// per-reflector w = (u^T/tau) A2 and rank-1 update A2 -= u w^T chains run
/// independently per `block`-wide trailing column tile.
FactorGraph build_qr_graph(const arch::CoreConfig& cfg,
                           double bw_words_per_cycle, ConstViewD a,
                           index_t block);

/// Copy the Cholesky factor out of `fg.work` with the reference contract
/// applied (strict upper triangle zeroed, as blas::cholesky leaves it).
void extract_lower(const FactorGraph& fg, ViewD out);

}  // namespace lac::sched
