#include "fft/reference_fft.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>
#include <utility>

namespace lac::fft {
namespace {
constexpr double kTau = 2.0 * std::numbers::pi;

/// log4(n): the base-4 digits of an index below n, for n a power of 4.
index_t digits4(index_t n) {
  index_t digits = 0;
  for (index_t t = n; t > 1; t /= 4) ++digits;
  return digits;
}

/// i with its `digits` low base-4 digits in reverse order.
index_t reverse_digits4(index_t i, index_t digits) {
  index_t r = 0;
  for (index_t d = 0; d < digits; ++d, i >>= 2) r = r * 4 + (i & 3);
  return r;
}
}  // namespace

std::vector<cplx> dft(const std::vector<cplx>& x) {
  const index_t n = static_cast<index_t>(x.size());
  std::vector<cplx> out(static_cast<std::size_t>(n));
  for (index_t k = 0; k < n; ++k) {
    cplx acc{0.0, 0.0};
    for (index_t j = 0; j < n; ++j) {
      const double ang = -kTau * static_cast<double>(k) * j / n;
      acc += x[static_cast<std::size_t>(j)] * cplx{std::cos(ang), std::sin(ang)};
    }
    out[static_cast<std::size_t>(k)] = acc;
  }
  return out;
}

std::vector<index_t> digit_reversal4(index_t n) {
  std::vector<index_t> perm(static_cast<std::size_t>(n));
  const index_t digits = digits4(n);
  for (index_t i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = reverse_digits4(i, digits);
  return perm;
}

std::vector<cplx> fft_radix4(const std::vector<cplx>& x) {
  const index_t n = static_cast<index_t>(x.size());
  // The stages below stop at len == 4 and the reversal assumes whole base-4
  // digits: any other size would index past the vector.
  const index_t digits = digits4(n);
  if (n != index_t{1} << (2 * digits))
    throw std::invalid_argument("fft_radix4: " + std::to_string(n) +
                                " points is not a power of 4");
  std::vector<cplx> a = x;
  const cplx neg_i{0.0, -1.0};
  for (index_t len = n; len >= 4; len /= 4) {
    const index_t quarter = len / 4;
    // One twiddle set per q serves every block of the stage; the blocks'
    // butterflies touch disjoint elements, so their order is free.
    for (index_t q = 0; q < quarter; ++q) {
      const double ang = -kTau * static_cast<double>(q) / len;
      const cplx w1{std::cos(ang), std::sin(ang)};
      const cplx w2 = w1 * w1;
      const cplx w3 = w2 * w1;
      for (index_t base = 0; base < n; base += len) {
        cplx& p0 = a[static_cast<std::size_t>(base + q)];
        cplx& p1 = a[static_cast<std::size_t>(base + q + quarter)];
        cplx& p2 = a[static_cast<std::size_t>(base + q + 2 * quarter)];
        cplx& p3 = a[static_cast<std::size_t>(base + q + 3 * quarter)];
        const cplx t0 = p0 + p2;
        const cplx t1 = p0 - p2;
        const cplx t2 = p1 + p3;
        const cplx t3 = (p1 - p3) * neg_i;
        p0 = t0 + t2;            // base-4 digit 0
        p1 = (t1 + t3) * w1;     // digit 1
        p2 = (t0 - t2) * w2;     // digit 2
        p3 = (t1 - t3) * w3;     // digit 3
      }
    }
  }
  // Digit reversal to natural order. Reversing the digits twice is the
  // identity, so swapping each pair once permutes in place.
  for (index_t i = 0; i < n; ++i) {
    const index_t r = reverse_digits4(i, digits);
    if (i < r) std::swap(a[static_cast<std::size_t>(i)], a[static_cast<std::size_t>(r)]);
  }
  return a;
}

std::vector<cplx> fft2d(const std::vector<cplx>& x, index_t n) {
  if (static_cast<index_t>(x.size()) != n * n)
    throw std::invalid_argument("fft2d: " + std::to_string(x.size()) +
                                " points for a " + std::to_string(n) + " x " +
                                std::to_string(n) + " grid");
  std::vector<cplx> work = x;
  std::vector<cplx> line(static_cast<std::size_t>(n));
  // Row FFTs (row-major storage: element (r, c) at r*n + c).
  for (index_t r = 0; r < n; ++r) {
    for (index_t c = 0; c < n; ++c) line[static_cast<std::size_t>(c)] = work[static_cast<std::size_t>(r * n + c)];
    line = fft_radix4(line);
    for (index_t c = 0; c < n; ++c) work[static_cast<std::size_t>(r * n + c)] = line[static_cast<std::size_t>(c)];
  }
  // Column FFTs.
  for (index_t c = 0; c < n; ++c) {
    for (index_t r = 0; r < n; ++r) line[static_cast<std::size_t>(r)] = work[static_cast<std::size_t>(r * n + c)];
    line = fft_radix4(line);
    for (index_t r = 0; r < n; ++r) work[static_cast<std::size_t>(r * n + c)] = line[static_cast<std::size_t>(r)];
  }
  return work;
}

std::vector<cplx> fft_four_step(const std::vector<cplx>& x, index_t n1, index_t n2) {
  const index_t n = n1 * n2;
  if (static_cast<index_t>(x.size()) != n)
    throw std::invalid_argument("fft_four_step: " + std::to_string(x.size()) +
                                " points for " + std::to_string(n1) + " x " +
                                std::to_string(n2));
  // View x as an n1 x n2 matrix stored row-major: x[j1*n2 + j2].
  std::vector<cplx> work = x;
  std::vector<cplx> line;
  // 1) FFT each column (length n1).
  line.resize(static_cast<std::size_t>(n1));
  for (index_t j2 = 0; j2 < n2; ++j2) {
    for (index_t j1 = 0; j1 < n1; ++j1) line[static_cast<std::size_t>(j1)] = work[static_cast<std::size_t>(j1 * n2 + j2)];
    line = fft_radix4(line);
    for (index_t j1 = 0; j1 < n1; ++j1) work[static_cast<std::size_t>(j1 * n2 + j2)] = line[static_cast<std::size_t>(j1)];
  }
  // 2) Twiddle scaling: w^(k1*j2), k1 row index after the column FFTs.
  for (index_t k1 = 0; k1 < n1; ++k1)
    for (index_t j2 = 0; j2 < n2; ++j2) {
      const double ang = -kTau * static_cast<double>(k1) * j2 / n;
      work[static_cast<std::size_t>(k1 * n2 + j2)] *= cplx{std::cos(ang), std::sin(ang)};
    }
  // 3) FFT each row (length n2).
  line.resize(static_cast<std::size_t>(n2));
  for (index_t k1 = 0; k1 < n1; ++k1) {
    for (index_t j2 = 0; j2 < n2; ++j2) line[static_cast<std::size_t>(j2)] = work[static_cast<std::size_t>(k1 * n2 + j2)];
    line = fft_radix4(line);
    for (index_t j2 = 0; j2 < n2; ++j2) work[static_cast<std::size_t>(k1 * n2 + j2)] = line[static_cast<std::size_t>(j2)];
  }
  // 4) Transpose readout: X[k2*n1 + k1] = work[k1*n2 + k2].
  std::vector<cplx> out(static_cast<std::size_t>(n));
  for (index_t k1 = 0; k1 < n1; ++k1)
    for (index_t k2 = 0; k2 < n2; ++k2)
      out[static_cast<std::size_t>(k2 * n1 + k1)] = work[static_cast<std::size_t>(k1 * n2 + k2)];
  return out;
}

}  // namespace lac::fft
