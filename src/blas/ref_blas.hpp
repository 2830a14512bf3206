#pragma once
// Reference (host-side) dense BLAS-3 used as the golden model for every
// simulator kernel and as the model backend's numerics. Column-major loops
// with bit-level determinism.
//
// Exactness contract. gemm, syrk and trsm (Left/Lower/NoTrans), and
// blas::cholesky, run most of their work on a 4 x 4 register tile
// (blas/register_tile.hpp) with 16 independent accumulation chains; edges,
// remainders and every other variant run one chain per element. Either way
// each output element sees the same operations: the products in the
// operand order the signatures below give (a(i, p) * b(p, j) for gemm),
// added or subtracted one at a time in ascending p, each rounded on its
// own. So every output is bit-identical to a per-element triple loop, and
// so are the model backend's results, costs and graph digests that depend
// on them. The one exception is the NaN that survives where two different
// NaNs meet in one add: which one x86 returns follows the order the
// compiler puts the operands in, for the per-element loop too.
//
// These loops stay out of LAC_FMA_CLONES (sim/mac_pipeline.hpp): the
// baseline ISA has no FMA, so nothing contracts and each product rounds
// before its add. Each step keeps the shape "one product, then one add or
// subtract", so a build that enables FMA contracts the tiled and the
// per-element forms alike.
#include "common/matrix.hpp"

namespace lac::blas {

enum class Side { Left, Right };
enum class Uplo { Lower, Upper };
enum class Trans { No, Yes };
enum class Diag { NonUnit, Unit };

/// C := alpha * op(A) * op(B) + beta * C
void gemm(Trans ta, Trans tb, double alpha, ConstViewD a, ConstViewD b, double beta,
          ViewD c);

/// C := alpha * A * A^T + beta * C (only the `uplo` triangle of C updated).
void syrk(Uplo uplo, double alpha, ConstViewD a, double beta, ViewD c);

/// C := alpha*(A*B^T + B*A^T) + beta*C (only the `uplo` triangle updated).
void syr2k(Uplo uplo, double alpha, ConstViewD a, ConstViewD b, double beta, ViewD c);

/// B := alpha * op(A) * B (Left) or alpha * B * op(A) (Right), A triangular.
void trmm(Side side, Uplo uplo, Trans trans, Diag diag, double alpha, ConstViewD a,
          ViewD b);

/// Solve op(A) * X = alpha * B (Left) or X * op(A) = alpha * B (Right);
/// B is overwritten with X.
void trsm(Side side, Uplo uplo, Trans trans, Diag diag, double alpha, ConstViewD a,
          ViewD b);

/// C := alpha * A * B + beta * C with symmetric A (only `uplo` stored).
void symm(Side side, Uplo uplo, double alpha, ConstViewD a, ConstViewD b, double beta,
          ViewD c);

/// y := alpha * op(A) * x + beta * y (level-2 helper for QR).
void gemv(Trans trans, double alpha, ConstViewD a, const double* x, double beta,
          double* y);

/// Rank-1 update A := A + alpha * x * y^T.
void ger(double alpha, const double* x, const double* y, ViewD a);

/// Euclidean norm of a vector, two-pass overflow-safe variant (§6.1.3).
double nrm2(index_t n, const double* x);

}  // namespace lac::blas
