#pragma once
// Reference factorizations (host-side golden models for Ch. 6 kernels):
// unblocked Cholesky, LU with partial pivoting, and Householder QR.
#include <vector>

#include "common/matrix.hpp"

namespace lac::blas {

/// In-place lower Cholesky: A (SPD) -> L with A = L*L^T (lower triangle),
/// strict upper triangle zeroed. Left-looking: column j's pivot and each
/// element below it take the products a(i, p) * a(j, p), p < j, in
/// ascending p, so the result is bit-identical to the per-column loop
/// (ref_blas.hpp's exactness contract; 4-column blocks run on the register
/// tile). Returns false at the first non-positive pivot, leaving the
/// columns before it finished and the rest untouched.
bool cholesky(ViewD a);

/// In-place LU with partial pivoting: A -> L\U, pivot rows recorded in
/// `piv` (piv[i] = row swapped with row i at step i). Returns false on a
/// zero pivot.
bool lu_partial_pivot(ViewD a, std::vector<index_t>& piv);

/// Apply recorded row interchanges to another matrix (for solving).
void apply_pivots(ViewD b, const std::vector<index_t>& piv);

/// Solve A x = b via the LU factors produced above.
void lu_solve(ConstViewD lu, const std::vector<index_t>& piv, ViewD b);

/// Householder reflector from x = (alpha, x2): returns tau and overwrites
/// x2 with the scaled reflector tail u2 and alpha with rho (Table 6.1).
struct Householder {
  double tau = 0.0;
  double rho = 0.0;
};
Householder house(double& alpha, index_t n2, double* x2);

/// Unblocked Householder QR: A (m x n, m >= n) -> R in the upper triangle,
/// reflectors below the diagonal, taus returned.
std::vector<double> qr_householder(ViewD a);

/// Reconstruct Q (m x n thin) from the factored form (for testing).
MatrixD qr_form_q(ConstViewD a_fact, const std::vector<double>& taus);

}  // namespace lac::blas
