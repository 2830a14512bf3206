#include "blas/ref_blas.hpp"

#include <cassert>
#include <cmath>

#include "blas/register_tile.hpp"

namespace lac::blas {
namespace {

using detail::load2;
using detail::load_tile;
using detail::rank1_steps;
using detail::splat;
using detail::store2;
using detail::store_tile;
using detail::Tile;
using detail::v2d;

double elem(ConstViewD a, Trans t, index_t i, index_t j) {
  return t == Trans::No ? a(i, j) : a(j, i);
}

/// c := alpha * t + beta * c on the 4 x 4 block at `c`, lane by lane.
void store_scaled(const Tile& t, double alpha, double beta, double* c, index_t ldc) {
  const v2d va = splat(alpha), vb = splat(beta);
  for (int j = 0; j < 4; ++j) {
    double* cj = c + j * ldc;
    store2(cj, va * t.lo[j] + vb * load2(cj));
    store2(cj + 2, va * t.hi[j] + vb * load2(cj + 2));
  }
}

/// trsm's Left/Lower/NoTrans solve of A X = B (B already scaled): 4 x 4
/// tiles of X, left-looking down each 4-column group. A tile takes the
/// rows above it (every p < i0) as rank-1 steps, then solves its 4 x 4
/// triangle in registers; so b(i, j) still sees acc = b(i, j), acc -=
/// a(i, p) * b(p, j) for p = 0 .. i-1, b(i, j) = acc / a(i, i) (1.0 for a
/// unit diagonal). The rows below the last whole tile and the last n % 4
/// columns go element by element.
void lower_left_solve(Diag diag, ConstViewD a, ViewD b) {
  const index_t m = b.rows();
  const index_t n = b.cols();
  auto d = [&](index_t i) { return diag == Diag::Unit ? 1.0 : a(i, i); };
  auto element = [&](index_t i, index_t j) {
    double acc = b(i, j);
    for (index_t p = 0; p < i; ++p) acc -= a(i, p) * b(p, j);
    b(i, j) = acc / d(i);
  };
  const index_t m4 = m - m % 4;
  const index_t n4 = n - n % 4;
  for (index_t j = 0; j < n4; j += 4) {
    for (index_t i = 0; i < m4; i += 4) {
      Tile t = load_tile(&b(i, j), b.ld());
      if (i > 0)
        rank1_steps<true, true>(t, &a(i, 0), 1, a.ld(), &b(0, j), 1, b.ld(), i);
      const double l10 = a(i + 1, i), l32 = a(i + 3, i + 2);
      const v2d l_0 = {a(i + 2, i), a(i + 3, i)};
      const v2d l_1 = {a(i + 2, i + 1), a(i + 3, i + 1)};
      const double d0 = d(i), d1 = d(i + 1), d2 = d(i + 2), d3 = d(i + 3);
      for (int c = 0; c < 4; ++c) {
        v2d& lo = t.lo[c];
        v2d& hi = t.hi[c];
        const double x0 = lo[0] / d0;
        double acc = lo[1];
        acc -= l10 * x0;
        const double x1 = acc / d1;
        hi -= l_0 * splat(x0);
        hi -= l_1 * splat(x1);
        const double x2 = hi[0] / d2;
        acc = hi[1];
        acc -= l32 * x2;
        lo = v2d{x0, x1};
        hi = v2d{x2, acc / d3};
      }
      store_tile(t, &b(i, j), b.ld());
    }
    for (index_t jj = j; jj < j + 4; ++jj)
      for (index_t i = m4; i < m; ++i) element(i, jj);
  }
  for (index_t j = n4; j < n; ++j)
    for (index_t i = 0; i < m; ++i) element(i, j);
}

}  // namespace

void gemm(Trans ta, Trans tb, double alpha, ConstViewD a, ConstViewD b, double beta,
          ViewD c) {
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = ta == Trans::No ? a.cols() : a.rows();
  assert((ta == Trans::No ? a.rows() : a.cols()) == m);
  assert((tb == Trans::No ? b.rows() : b.cols()) == k);
  assert((tb == Trans::No ? b.cols() : b.rows()) == n);
  auto element = [&](index_t i, index_t j) {
    double acc = 0.0;
    for (index_t p = 0; p < k; ++p) acc += elem(a, ta, i, p) * elem(b, tb, p, j);
    c(i, j) = alpha * acc + beta * c(i, j);
  };
  // op(A)(i, p) at a_rs * i + a_ps * p, op(B)(p, j) at b_ps * p + b_cs * j.
  const index_t a_rs = ta == Trans::No ? 1 : a.ld();
  const index_t a_ps = ta == Trans::No ? a.ld() : 1;
  const index_t b_ps = tb == Trans::No ? 1 : b.ld();
  const index_t b_cs = tb == Trans::No ? b.ld() : 1;
  // No tiles at k = 0, where A and B may hold no storage to point into.
  const index_t m4 = k > 0 ? m - m % 4 : 0;
  const index_t n4 = k > 0 ? n - n % 4 : 0;
  for (index_t j = 0; j < n4; j += 4) {
    for (index_t i = 0; i < m4; i += 4) {
      Tile t{};
      const double* ap = a.data() + i * a_rs;
      const double* bp = b.data() + j * b_cs;
      if (a_rs == 1)
        rank1_steps<false, true>(t, ap, 1, a_ps, bp, b_ps, b_cs, k);
      else
        rank1_steps<false, false>(t, ap, a_rs, a_ps, bp, b_ps, b_cs, k);
      store_scaled(t, alpha, beta, &c(i, j), c.ld());
    }
    for (index_t jj = j; jj < j + 4; ++jj)
      for (index_t i = m4; i < m; ++i) element(i, jj);
  }
  for (index_t j = n4; j < n; ++j)
    for (index_t i = 0; i < m; ++i) element(i, j);
}

void syrk(Uplo uplo, double alpha, ConstViewD a, double beta, ViewD c) {
  const index_t n = c.rows();
  const index_t k = a.cols();
  assert(a.rows() == n && c.cols() == n);
  auto element = [&](index_t i, index_t j) {
    double acc = 0.0;
    for (index_t p = 0; p < k; ++p) acc += a(i, p) * a(j, p);
    c(i, j) = alpha * acc + beta * c(i, j);
  };
  auto column = [&](index_t j, index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) element(i, j);
  };
  // Tiles off the diagonal block of each 4-column group; the diagonal
  // block, the rows below the last whole tile and the last n % 4 columns go
  // element by element (everything at k = 0, as in gemm).
  const index_t n4 = k > 0 ? n - n % 4 : 0;
  for (index_t j = 0; j < n4; j += 4) {
    const index_t first = uplo == Uplo::Lower ? j + 4 : 0;
    const index_t last = uplo == Uplo::Lower ? n - (n - first) % 4 : j;
    for (index_t i = first; i < last; i += 4) {
      Tile t{};
      rank1_steps<false, true>(t, a.data() + i, 1, a.ld(), a.data() + j, a.ld(), 1, k);
      store_scaled(t, alpha, beta, &c(i, j), c.ld());
    }
    for (index_t jj = j; jj < j + 4; ++jj) {
      if (uplo == Uplo::Lower) {
        column(jj, jj, j + 4);
        column(jj, last, n);
      } else {
        column(jj, j, jj + 1);
      }
    }
  }
  for (index_t j = n4; j < n; ++j)
    column(j, uplo == Uplo::Lower ? j : 0, uplo == Uplo::Lower ? n : j + 1);
}

void syr2k(Uplo uplo, double alpha, ConstViewD a, ConstViewD b, double beta, ViewD c) {
  const index_t n = c.rows();
  const index_t k = a.cols();
  assert(a.rows() == n && b.rows() == n && b.cols() == k && c.cols() == n);
  for (index_t j = 0; j < n; ++j) {
    const index_t lo = uplo == Uplo::Lower ? j : 0;
    const index_t hi = uplo == Uplo::Lower ? n : j + 1;
    for (index_t i = lo; i < hi; ++i) {
      double acc = 0.0;
      for (index_t p = 0; p < k; ++p) acc += a(i, p) * b(j, p) + b(i, p) * a(j, p);
      c(i, j) = alpha * acc + beta * c(i, j);
    }
  }
}

void trmm(Side side, Uplo uplo, Trans trans, Diag diag, double alpha, ConstViewD a,
          ViewD b) {
  const index_t m = b.rows();
  const index_t n = b.cols();
  MatrixD result(m, n, 0.0);
  auto tri = [&](index_t i, index_t p) -> double {
    // Element op(A)(i,p) honoring triangle and unit-diagonal storage.
    index_t r = trans == Trans::No ? i : p;
    index_t cidx = trans == Trans::No ? p : i;
    if (r == cidx) return diag == Diag::Unit ? 1.0 : a(r, r);
    const bool stored = uplo == Uplo::Lower ? r > cidx : r < cidx;
    return stored ? a(r, cidx) : 0.0;
  };
  if (side == Side::Left) {
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i) {
        double acc = 0.0;
        for (index_t p = 0; p < m; ++p) acc += tri(i, p) * b(p, j);
        result(i, j) = alpha * acc;
      }
  } else {
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i) {
        double acc = 0.0;
        for (index_t p = 0; p < n; ++p) acc += b(i, p) * tri(p, j);
        result(i, j) = alpha * acc;
      }
  }
  copy_into<double>(result.view(), b);
}

void trsm(Side side, Uplo uplo, Trans trans, Diag diag, double alpha, ConstViewD a,
          ViewD b) {
  const index_t m = b.rows();
  const index_t n = b.cols();
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) b(i, j) *= alpha;
  if (side == Side::Left && uplo == Uplo::Lower && trans == Trans::No) {
    lower_left_solve(diag, a, b);
    return;
  }

  auto tri = [&](index_t r, index_t cidx) -> double {
    if (r == cidx) return diag == Diag::Unit ? 1.0 : a(r, r);
    const bool stored = uplo == Uplo::Lower ? r > cidx : r < cidx;
    return stored ? a(r, cidx) : 0.0;
  };

  const bool lower_effective =
      (uplo == Uplo::Lower) == (trans == Trans::No);
  auto op = [&](index_t i, index_t p) {
    return trans == Trans::No ? tri(i, p) : tri(p, i);
  };

  if (side == Side::Left) {
    // Solve op(A) X = B column by column via forward/backward substitution.
    for (index_t j = 0; j < n; ++j) {
      if (lower_effective) {
        for (index_t i = 0; i < m; ++i) {
          double acc = b(i, j);
          for (index_t p = 0; p < i; ++p) acc -= op(i, p) * b(p, j);
          b(i, j) = acc / op(i, i);
        }
      } else {
        for (index_t i = m - 1; i >= 0; --i) {
          double acc = b(i, j);
          for (index_t p = i + 1; p < m; ++p) acc -= op(i, p) * b(p, j);
          b(i, j) = acc / op(i, i);
        }
      }
    }
  } else {
    // X op(A) = B: solve row by row.
    for (index_t i = 0; i < m; ++i) {
      if (lower_effective) {
        for (index_t j = n - 1; j >= 0; --j) {
          double acc = b(i, j);
          for (index_t p = j + 1; p < n; ++p) acc -= b(i, p) * op(p, j);
          b(i, j) = acc / op(j, j);
        }
      } else {
        for (index_t j = 0; j < n; ++j) {
          double acc = b(i, j);
          for (index_t p = 0; p < j; ++p) acc -= b(i, p) * op(p, j);
          b(i, j) = acc / op(j, j);
        }
      }
    }
  }
}

void symm(Side side, Uplo uplo, double alpha, ConstViewD a, ConstViewD b, double beta,
          ViewD c) {
  const index_t m = c.rows();
  const index_t n = c.cols();
  auto sym = [&](index_t i, index_t j) -> double {
    const bool stored = uplo == Uplo::Lower ? i >= j : i <= j;
    return stored ? a(i, j) : a(j, i);
  };
  if (side == Side::Left) {
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i) {
        double acc = 0.0;
        for (index_t p = 0; p < m; ++p) acc += sym(i, p) * b(p, j);
        c(i, j) = alpha * acc + beta * c(i, j);
      }
  } else {
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i) {
        double acc = 0.0;
        for (index_t p = 0; p < n; ++p) acc += b(i, p) * sym(p, j);
        c(i, j) = alpha * acc + beta * c(i, j);
      }
  }
}

void gemv(Trans trans, double alpha, ConstViewD a, const double* x, double beta,
          double* y) {
  const index_t m = trans == Trans::No ? a.rows() : a.cols();
  const index_t k = trans == Trans::No ? a.cols() : a.rows();
  for (index_t i = 0; i < m; ++i) {
    double acc = 0.0;
    for (index_t p = 0; p < k; ++p)
      acc += (trans == Trans::No ? a(i, p) : a(p, i)) * x[p];
    y[i] = alpha * acc + beta * y[i];
  }
}

void ger(double alpha, const double* x, const double* y, ViewD a) {
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i) a(i, j) += alpha * x[i] * y[j];
}

double nrm2(index_t n, const double* x) {
  // Overflow-safe: scale by the max magnitude first (§6.1.3 guard pass).
  double t = 0.0;
  for (index_t i = 0; i < n; ++i) t = std::max(t, std::abs(x[i]));
  if (t == 0.0) return 0.0;
  double acc = 0.0;
  for (index_t i = 0; i < n; ++i) {
    const double v = x[i] / t;
    acc += v * v;
  }
  return t * std::sqrt(acc);
}

}  // namespace lac::blas
