#pragma once
// Host-side FFT reference: naive DFT (golden model) and an iterative
// radix-4 DIF FFT (the algorithm the LAC mapping mirrors, Appendix B).
#include <complex>
#include <vector>

#include "common/types.hpp"

namespace lac::fft {

using cplx = std::complex<double>;

/// O(n^2) DFT, the ultimate golden model.
std::vector<cplx> dft(const std::vector<cplx>& x);

/// Iterative radix-4 DIF FFT. Output in natural order (digit reversal
/// applied at the end). Throws std::invalid_argument naming the size when
/// it is not a power of 4.
std::vector<cplx> fft_radix4(const std::vector<cplx>& x);

/// Base-4 digit reversal permutation of indices [0, n).
std::vector<index_t> digit_reversal4(index_t n);

/// 2D FFT of an n x n grid (row FFTs then column FFTs), radix-4 per line.
/// Throws std::invalid_argument when x does not hold n * n points.
std::vector<cplx> fft2d(const std::vector<cplx>& x, index_t n);

/// Large 1D FFT via the four-step decomposition N = n1*n2 (Fig B.4):
/// column FFTs, twiddle scaling, row FFTs, transpose readout. Throws
/// std::invalid_argument when x does not hold n1 * n2 points.
std::vector<cplx> fft_four_step(const std::vector<cplx>& x, index_t n1, index_t n2);

}  // namespace lac::fft
