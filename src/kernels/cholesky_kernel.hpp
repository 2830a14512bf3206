#pragma once
// Cholesky factorization on the LAC (§6.1.1, Fig 6.1): the nr x nr inner
// kernel with the inverse-square-root special function, plus a blocked
// driver (Cholesky = chol(diag) + TRSM panel + SYRK update).
#include <vector>

#include "arch/configs.hpp"
#include "common/matrix.hpp"
#include "kernels/gemm_kernel.hpp"
#include "sim/core.hpp"

namespace lac::kernels {

/// Unblocked nr x nr Cholesky: A (SPD, mirrored to the upper triangle as
/// the mapping requires) -> L in the lower triangle. Cycle count tracks
/// the published 2p(nr-1) + q*nr closed form.
KernelResult cholesky_inner(const arch::CoreConfig& cfg, ConstViewD a);

/// Blocked Cholesky of an (k*nr x k*nr) SPD matrix resident on the core:
/// per iteration a diagonal chol, a TRSM column panel and a SYRK trailing
/// update, all on the simulated core.
KernelResult cholesky_core(const arch::CoreConfig& cfg, double bw_words_per_cycle,
                           ConstViewD a);

/// Trailing update of iteration `d` of cholesky_core on its timed value
/// lattice (n x n, row major, the L21 panel of column block d in place):
/// A22 -= L21 * L21^T as block rank-nr updates. For each block (bi, bj)
/// with d < bj <= bi, in that order, step p broadcasts L(bi*nr + r, d*nr + p)
/// on row bus r and L(bj*nr + c, d*nr + p) on column bus c, and PE (r, c)
/// updates element (bi*nr + r, bj*nr + c) with one general FMA. Each PE
/// steps until its inputs can no longer bind, then closes its remaining
/// FMA chains in bulk (the argument is in cholesky_kernel.cpp); outputs,
/// cycles and Stats are those of stepping every PE, bit for bit.
void chol_trailing_update(sim::Core& core, std::vector<sim::TimedVal>& lattice, index_t n,
                          index_t d);

}  // namespace lac::kernels
