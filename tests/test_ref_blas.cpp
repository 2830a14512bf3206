#include "blas/ref_blas.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "arch/presets.hpp"
#include "blas/ref_lapack.hpp"
#include "common/numeric.hpp"
#include "common/random.hpp"
#include "fabric/kernel_registry.hpp"

namespace lac::blas {
namespace {

TEST(RefBlas, GemmIdentityLeavesOperandUnchanged) {
  MatrixD i = identity(4);
  MatrixD b = random_matrix(4, 3, 11);
  MatrixD c(4, 3, 0.0);
  gemm(Trans::No, Trans::No, 1.0, i.view(), b.view(), 0.0, c.view());
  EXPECT_TRUE(allclose(c.view(), b.view(), 1e-14));
}

TEST(RefBlas, GemmAlphaBetaScaling) {
  MatrixD a = random_matrix(3, 3, 1);
  MatrixD b = random_matrix(3, 3, 2);
  MatrixD c0 = random_matrix(3, 3, 3);
  MatrixD c1 = to_matrix<double>(ConstViewD(c0.view()));
  gemm(Trans::No, Trans::No, 2.0, a.view(), b.view(), 0.5, c1.view());
  MatrixD ab(3, 3, 0.0);
  gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.0, ab.view());
  for (index_t j = 0; j < 3; ++j)
    for (index_t i = 0; i < 3; ++i)
      EXPECT_NEAR(c1(i, j), 2.0 * ab(i, j) + 0.5 * c0(i, j), 1e-12);
}

TEST(RefBlas, GemmTransposeConsistency) {
  MatrixD a = random_matrix(4, 6, 21);
  MatrixD b = random_matrix(4, 5, 22);
  MatrixD c1(6, 5, 0.0), c2(6, 5, 0.0);
  gemm(Trans::Yes, Trans::No, 1.0, a.view(), b.view(), 0.0, c1.view());
  MatrixD at = transpose(a.view());
  gemm(Trans::No, Trans::No, 1.0, at.view(), b.view(), 0.0, c2.view());
  EXPECT_TRUE(allclose(c1.view(), c2.view(), 1e-13));
}

TEST(RefBlas, SyrkMatchesGemmOnLowerTriangle) {
  MatrixD a = random_matrix(6, 4, 31);
  MatrixD c(6, 6, 0.0);
  syrk(Uplo::Lower, 1.0, a.view(), 0.0, c.view());
  MatrixD full(6, 6, 0.0);
  MatrixD at = transpose(a.view());
  gemm(Trans::No, Trans::No, 1.0, a.view(), at.view(), 0.0, full.view());
  for (index_t j = 0; j < 6; ++j)
    for (index_t i = j; i < 6; ++i) EXPECT_NEAR(c(i, j), full(i, j), 1e-12);
}

TEST(RefBlas, Syr2kMatchesExplicitCrossProducts) {
  MatrixD a = random_matrix(5, 3, 41);
  MatrixD b = random_matrix(5, 3, 42);
  MatrixD c(5, 5, 0.0);
  syr2k(Uplo::Lower, 1.0, a.view(), b.view(), 0.0, c.view());
  for (index_t j = 0; j < 5; ++j)
    for (index_t i = j; i < 5; ++i) {
      double acc = 0.0;
      for (index_t p = 0; p < 3; ++p) acc += a(i, p) * b(j, p) + b(i, p) * a(j, p);
      EXPECT_NEAR(c(i, j), acc, 1e-12);
    }
}

TEST(RefBlas, TrsmLeftLowerSolvesSystem) {
  MatrixD l = random_lower_triangular(6, 51);
  MatrixD x_true = random_matrix(6, 4, 52);
  MatrixD b(6, 4, 0.0);
  gemm(Trans::No, Trans::No, 1.0, l.view(), x_true.view(), 0.0, b.view());
  trsm(Side::Left, Uplo::Lower, Trans::No, Diag::NonUnit, 1.0, l.view(), b.view());
  EXPECT_TRUE(allclose(b.view(), x_true.view(), 1e-10));
}

TEST(RefBlas, TrsmUnitDiagonalIgnoresStoredDiagonal) {
  MatrixD l = random_lower_triangular(5, 61);
  MatrixD lu = to_matrix<double>(ConstViewD(l.view()));
  for (index_t i = 0; i < 5; ++i) lu(i, i) = 1.0;
  MatrixD x_true = random_matrix(5, 2, 62);
  MatrixD b(5, 2, 0.0);
  gemm(Trans::No, Trans::No, 1.0, lu.view(), x_true.view(), 0.0, b.view());
  // Solve with the *unmodified* diagonal but Diag::Unit: must ignore it.
  trsm(Side::Left, Uplo::Lower, Trans::No, Diag::Unit, 1.0, l.view(), b.view());
  EXPECT_TRUE(allclose(b.view(), x_true.view(), 1e-10));
}

TEST(RefBlas, TrsmTransposedAndRightSide) {
  MatrixD l = random_lower_triangular(5, 71);
  MatrixD x_true = random_matrix(3, 5, 72);
  // X * L^T = B.
  MatrixD lt = transpose(l.view());
  MatrixD b(3, 5, 0.0);
  gemm(Trans::No, Trans::No, 1.0, x_true.view(), lt.view(), 0.0, b.view());
  trsm(Side::Right, Uplo::Lower, Trans::Yes, Diag::NonUnit, 1.0, l.view(), b.view());
  EXPECT_TRUE(allclose(b.view(), x_true.view(), 1e-10));
}

TEST(RefBlas, TrmmMatchesGemmWithTriangle) {
  MatrixD l = random_lower_triangular(4, 81);
  MatrixD b = random_matrix(4, 3, 82);
  MatrixD expect(4, 3, 0.0);
  gemm(Trans::No, Trans::No, 1.0, l.view(), b.view(), 0.0, expect.view());
  MatrixD got = to_matrix<double>(ConstViewD(b.view()));
  trmm(Side::Left, Uplo::Lower, Trans::No, Diag::NonUnit, 1.0, l.view(), got.view());
  EXPECT_TRUE(allclose(got.view(), expect.view(), 1e-12));
}

TEST(RefBlas, SymmUsesOnlyStoredTriangle) {
  MatrixD a = random_spd(4, 91);
  MatrixD a_lower = to_matrix<double>(ConstViewD(a.view()));
  for (index_t j = 0; j < 4; ++j)
    for (index_t i = 0; i < j; ++i) a_lower(i, j) = -999.0;  // poison upper
  MatrixD b = random_matrix(4, 3, 92);
  MatrixD c1(4, 3, 0.0), c2(4, 3, 0.0);
  symm(Side::Left, Uplo::Lower, 1.0, a_lower.view(), b.view(), 0.0, c1.view());
  gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.0, c2.view());
  EXPECT_TRUE(allclose(c1.view(), c2.view(), 1e-12));
}

TEST(RefBlas, GemvAndGerAgreeWithGemm) {
  MatrixD a = random_matrix(4, 3, 93);
  std::vector<double> x{1.0, -2.0, 0.5};
  std::vector<double> y(4, 0.0);
  gemv(Trans::No, 1.0, a.view(), x.data(), 0.0, y.data());
  for (index_t i = 0; i < 4; ++i) {
    double acc = 0.0;
    for (index_t p = 0; p < 3; ++p) acc += a(i, p) * x[static_cast<std::size_t>(p)];
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], acc, 1e-13);
  }
  MatrixD g(4, 3, 0.0);
  ger(2.0, y.data(), x.data(), g.view());
  for (index_t j = 0; j < 3; ++j)
    for (index_t i = 0; i < 4; ++i)
      EXPECT_NEAR(g(i, j), 2.0 * y[static_cast<std::size_t>(i)] * x[static_cast<std::size_t>(j)], 1e-13);
}

TEST(RefBlas, Nrm2OverflowSafe) {
  std::vector<double> x{3e200, 4e200};
  EXPECT_NEAR(nrm2(2, x.data()) / 5e200, 1.0, 1e-12);
  std::vector<double> tiny{3e-200, 4e-200};
  EXPECT_NEAR(nrm2(2, tiny.data()) / 5e-200, 1.0, 1e-12);
  std::vector<double> zero{0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(nrm2(3, zero.data()), 0.0);
}

// ---- byte identity with the per-element loops -----------------------------

/// The per-element loops the register tiles replaced, verbatim: one
/// dependent accumulation chain per output element.
namespace plain {

double elem(ConstViewD a, Trans t, index_t i, index_t j) {
  return t == Trans::No ? a(i, j) : a(j, i);
}

void gemm(Trans ta, Trans tb, double alpha, ConstViewD a, ConstViewD b, double beta,
          ViewD c) {
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = ta == Trans::No ? a.cols() : a.rows();
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) {
      double acc = 0.0;
      for (index_t p = 0; p < k; ++p) acc += elem(a, ta, i, p) * elem(b, tb, p, j);
      c(i, j) = alpha * acc + beta * c(i, j);
    }
}

void syrk(Uplo uplo, double alpha, ConstViewD a, double beta, ViewD c) {
  const index_t n = c.rows();
  const index_t k = a.cols();
  for (index_t j = 0; j < n; ++j) {
    const index_t lo = uplo == Uplo::Lower ? j : 0;
    const index_t hi = uplo == Uplo::Lower ? n : j + 1;
    for (index_t i = lo; i < hi; ++i) {
      double acc = 0.0;
      for (index_t p = 0; p < k; ++p) acc += a(i, p) * a(j, p);
      c(i, j) = alpha * acc + beta * c(i, j);
    }
  }
}

void trsm(Side side, Uplo uplo, Trans trans, Diag diag, double alpha, ConstViewD a,
          ViewD b) {
  const index_t m = b.rows();
  const index_t n = b.cols();
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) b(i, j) *= alpha;

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

bool cholesky(ViewD a) {
  const index_t n = a.rows();
  for (index_t j = 0; j < n; ++j) {
    double d = a(j, j);
    for (index_t p = 0; p < j; ++p) d -= a(j, p) * a(j, p);
    if (d <= 0.0) return false;
    const double ljj = std::sqrt(d);
    a(j, j) = ljj;
    for (index_t i = j + 1; i < n; ++i) {
      double acc = a(i, j);
      for (index_t p = 0; p < j; ++p) acc -= a(i, p) * a(j, p);
      a(i, j) = acc / ljj;
    }
    for (index_t i = 0; i < j; ++i) a(i, j) = 0.0;  // zero strict upper
  }
  return true;
}

}  // namespace plain

/// Operand values. Specials mixes +-0.0, +-inf, subnormals and +-1e300 into
/// the random values: every NaN they make is the one default NaN, so which
/// of two NaNs an add returns cannot show. OneNaN places a single quiet NaN
/// in one operand, with +-0.0 and subnormals but nothing that makes
/// another NaN, so no accumulation meets two different NaNs (which one an
/// add returns is the compiler's choice of operand order).
enum class Fill { Plain, Specials, OneNaN };

/// A rows x cols operand inside a larger buffer: `pad` rows above and
/// below the view (ld = rows + 2 pad) and one column to its right, so a
/// write outside the view changes the buffer.
struct Operand {
  MatrixD buf;
  index_t pad = 0;
  ViewD view() { return buf.view().block(pad, 0, buf.rows() - 2 * pad, buf.cols() - 1); }
  ConstViewD cview() { return view(); }
};

class Cases {
 public:
  explicit Cases(std::uint64_t seed) : rng_(seed) {}

  index_t size(index_t hi) {
    return static_cast<index_t>(rng_.next_index(static_cast<std::uint64_t>(hi) + 1));
  }
  double scale() {
    constexpr double kScales[] = {1.0, 0.0, -1.5};
    return kScales[rng_.next_index(3)];
  }
  template <typename E>
  E pick(std::initializer_list<E> options) {
    return *(options.begin() + rng_.next_index(options.size()));
  }

  Operand operand(index_t rows, index_t cols, Fill fill) {
    Operand op;
    op.pad = static_cast<index_t>(rng_.next_index(3));
    op.buf = MatrixD(rows + 2 * op.pad, cols + 1, 0.0);
    for (index_t j = 0; j < op.buf.cols(); ++j)
      for (index_t i = 0; i < op.buf.rows(); ++i) op.buf(i, j) = value(fill);
    return op;
  }

  /// One NaN at a random element of one of `ops`' views.
  void plant_nan(std::initializer_list<Operand*> ops) {
    Operand& op = **(ops.begin() + rng_.next_index(ops.size()));
    ViewD v = op.view();
    if (v.rows() == 0 || v.cols() == 0) return;
    v(static_cast<index_t>(rng_.next_index(static_cast<std::uint64_t>(v.rows()))),
      static_cast<index_t>(rng_.next_index(static_cast<std::uint64_t>(v.cols())))) =
        std::numeric_limits<double>::quiet_NaN();
  }

  double value(Fill fill) {
    const double v = rng_.uniform(-1.0, 1.0);
    return fill == Fill::Plain || rng_.uniform() >= 0.15 ? v : special(fill);
  }

  double special(Fill fill) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kSpecials[] = {0.0, -0.0, 4.9e-324, -2.5e-310, kInf, -kInf, 1e300, -1e300};
    return kSpecials[rng_.next_index(fill == Fill::Specials ? 8 : 4)];
  }

  Fill fill() { return pick({Fill::Plain, Fill::Plain, Fill::Specials, Fill::OneNaN}); }

 private:
  Rng rng_;
};

bool same_bytes(const MatrixD& x, const MatrixD& y) {
  const auto n = static_cast<std::size_t>(x.rows() * x.cols());
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         (n == 0 || std::memcmp(x.data(), y.data(), n * sizeof(double)) == 0);
}

/// Tile remainders on every side: case i < 10^dims walks every size
/// 0..9 of each dimension, later cases draw sizes up to 70.
index_t case_size(Cases& cases, int i, int dim, int dims) {
  int grid = 1;
  for (int d = 0; d < dims; ++d) grid *= 10;
  if (i >= grid) return cases.size(70);
  for (int d = 0; d < dim; ++d) i /= 10;
  return i % 10;
}

TEST(RefBlas, TiledLoopsMatchPlainLoops) {
  Cases cases(2025);
  for (int i = 0; i < 1400; ++i) {
    const Trans ta = cases.pick({Trans::No, Trans::Yes});
    const Trans tb = cases.pick({Trans::No, Trans::Yes});
    const index_t m = case_size(cases, i, 0, 3), n = case_size(cases, i, 1, 3);
    const index_t k = case_size(cases, i, 2, 3);
    const double alpha = cases.scale(), beta = cases.scale();
    const Fill fill = cases.fill();
    Operand a = ta == Trans::No ? cases.operand(m, k, fill) : cases.operand(k, m, fill);
    Operand b = tb == Trans::No ? cases.operand(k, n, fill) : cases.operand(n, k, fill);
    Operand c = cases.operand(m, n, fill);
    if (fill == Fill::OneNaN) cases.plant_nan({&a, &b, &c});
    Operand want = c;
    plain::gemm(ta, tb, alpha, a.cview(), b.cview(), beta, want.view());
    gemm(ta, tb, alpha, a.cview(), b.cview(), beta, c.view());
    ASSERT_TRUE(same_bytes(c.buf, want.buf))
        << "gemm case " << i << ": " << m << "x" << n << "x" << k << " ta "
        << (ta == Trans::Yes) << " tb " << (tb == Trans::Yes) << " alpha " << alpha
        << " beta " << beta << " fill " << static_cast<int>(fill);
  }
  for (int i = 0; i < 500; ++i) {
    const Uplo uplo = cases.pick({Uplo::Lower, Uplo::Upper});
    const index_t n = case_size(cases, i, 0, 2), k = case_size(cases, i, 1, 2);
    const double alpha = cases.scale(), beta = cases.scale();
    const Fill fill = cases.fill();
    Operand a = cases.operand(n, k, fill);
    Operand c = cases.operand(n, n, fill);
    if (fill == Fill::OneNaN) cases.plant_nan({&a, &c});
    Operand want = c;
    plain::syrk(uplo, alpha, a.cview(), beta, want.view());
    syrk(uplo, alpha, a.cview(), beta, c.view());
    ASSERT_TRUE(same_bytes(c.buf, want.buf))
        << "syrk case " << i << ": n " << n << " k " << k << " lower "
        << (uplo == Uplo::Lower) << " alpha " << alpha << " beta " << beta << " fill "
        << static_cast<int>(fill);
  }
  for (int i = 0; i < 800; ++i) {
    const Side side = cases.pick({Side::Left, Side::Right});
    const Uplo uplo = cases.pick({Uplo::Lower, Uplo::Upper});
    const Trans trans = cases.pick({Trans::No, Trans::Yes});
    const Diag diag = cases.pick({Diag::NonUnit, Diag::Unit});
    const index_t m = case_size(cases, i / 4, 0, 2), n = case_size(cases, i / 4, 1, 2);
    const double alpha = cases.scale();
    const Fill fill = cases.fill();
    const index_t na = side == Side::Left ? m : n;
    Operand a = cases.operand(na, na, fill);
    ViewD av = a.view();
    for (index_t d = 0; d < na; ++d) av(d, d) = 2.0 + std::abs(av(d, d));  // keep X bounded
    Operand b = cases.operand(m, n, fill);
    if (fill == Fill::OneNaN) cases.plant_nan({&a, &b});
    Operand want = b;
    plain::trsm(side, uplo, trans, diag, alpha, a.cview(), want.view());
    trsm(side, uplo, trans, diag, alpha, a.cview(), b.view());
    ASSERT_TRUE(same_bytes(b.buf, want.buf))
        << "trsm case " << i << ": " << m << "x" << n << " left " << (side == Side::Left)
        << " lower " << (uplo == Uplo::Lower) << " trans " << (trans == Trans::Yes)
        << " unit " << (diag == Diag::Unit) << " alpha " << alpha << " fill "
        << static_cast<int>(fill);
  }
  // Cholesky: SPD matrices with the strict upper triangle left as noise, then
  // the same with a non-positive pivot at the first, a middle or the last
  // column -- the same return value and the same bytes left in `a`.
  for (int i = 0; i < 400; ++i) {
    const index_t n = i < 100 ? i % 20 : cases.size(70);
    const Fill fill = i % 8 == 7 ? cases.fill() : Fill::Plain;
    Operand a = cases.operand(n, n, Fill::Plain);
    const MatrixD spd = random_spd(n, 3000 + static_cast<std::uint64_t>(i));
    ViewD av = a.view();
    for (index_t j = 0; j < n; ++j)
      for (index_t r = j; r < n; ++r) av(r, j) = spd(r, j);
    // Specials go into the lower triangle, the part the loops read. A
    // planted NaN comes alone: a well-conditioned SPD matrix makes no other.
    for (int s = 0; n > 0 && fill != Fill::Plain && s < (fill == Fill::OneNaN ? 1 : 3); ++s) {
      const index_t j = cases.size(n - 1);
      av(j + cases.size(n - 1 - j), j) =
          fill == Fill::OneNaN ? std::numeric_limits<double>::quiet_NaN() : cases.special(fill);
    }
    const int bad = n == 0 ? 0 : i % 4;  // 0: SPD, else a bad pivot
    if (bad != 0) {
      const index_t at = bad == 1 ? 0 : bad == 2 ? std::min(n / 2 + i % 3, n - 1) : n - 1;
      av(at, at) = 0.0;
    }
    Operand want = a;
    const bool want_ok = plain::cholesky(want.view());
    const bool ok = cholesky(a.view());
    ASSERT_EQ(ok, want_ok) << "cholesky case " << i << ": n " << n << " bad " << bad;
    ASSERT_TRUE(same_bytes(a.buf, want.buf))
        << "cholesky case " << i << ": n " << n << " bad " << bad << " fill "
        << static_cast<int>(fill);
  }
}

/// FNV-1a over 64-bit words, doubles by bit pattern (as test_sim_golden).
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// One request through its kind's reference_run, folded into a digest:
/// the returned error text, then every output field by bit pattern.
std::uint64_t reference_digest(const fabric::KernelRequest& req) {
  fabric::KernelResult res;
  const std::string err = fabric::kernel_traits(req.kind).reference_run(req, res);
  Digest d;
  for (char ch : err) d.add(static_cast<std::uint64_t>(static_cast<unsigned char>(ch)));
  d.add(static_cast<std::int64_t>(res.out.rows()));
  d.add(static_cast<std::int64_t>(res.out.cols()));
  for (index_t j = 0; j < res.out.cols(); ++j)
    for (index_t i = 0; i < res.out.rows(); ++i) d.add(res.out(i, j));
  for (index_t p : res.pivots) d.add(static_cast<std::int64_t>(p));
  for (double t : res.taus) d.add(t);
  d.add(res.scalar);
  for (const std::complex<double>& z : res.spectrum) {
    d.add(z.real());
    d.add(z.imag());
  }
  return d.value();
}

/// Every registered kind's sized request at n = 16, 32 and 64, then the
/// tile shapes the tiled factorization graphs send through the reference
/// kernels: LU's (below x 4)(4 x w) update and 4 x w row-panel solve, QR's
/// (4 x tail)(tail x w) reflector product and (padded x 4)(4 x w) rank-1
/// update.
std::vector<std::pair<std::string, fabric::KernelRequest>> reference_cases() {
  const arch::CoreConfig cfg = arch::lac_4x4_dp();
  std::vector<std::pair<std::string, fabric::KernelRequest>> cases;
  for (fabric::KernelKind kind : fabric::registered_kernel_kinds())
    for (index_t n : {16, 32, 64})
      cases.emplace_back(std::string(fabric::to_string(kind)) + " n=" + std::to_string(n),
                         fabric::kernel_traits(kind).sized_request(
                             cfg, 2.0, n, 100 + static_cast<std::uint64_t>(n)));
  struct Shape {
    index_t m, k, n;
  };
  std::uint64_t seed = 500;
  for (Shape s : {Shape{60, 4, 16}, Shape{12, 4, 16}, Shape{44, 4, 12}, Shape{4, 64, 16},
                  Shape{4, 63, 16}, Shape{4, 62, 12}, Shape{4, 61, 8}, Shape{4, 33, 4},
                  Shape{64, 4, 16}, Shape{60, 4, 12}, Shape{36, 4, 8}}) {
    cases.emplace_back("GEMM " + std::to_string(s.m) + "x" + std::to_string(s.k) + "x" +
                           std::to_string(s.n),
                       fabric::make_gemm(cfg, 2.0, random_matrix(s.m, s.k, seed),
                                         random_matrix(s.k, s.n, seed + 1),
                                         random_matrix(s.m, s.n, seed + 2)));
    seed += 3;
  }
  for (index_t w : {16, 12}) {
    MatrixD l = random_lower_triangular(4, seed);
    for (index_t i = 0; i < 4; ++i) l(i, i) = 1.0;
    cases.emplace_back("TRSM 4x" + std::to_string(w),
                       fabric::make_trsm(cfg, 2.0, std::move(l),
                                         random_matrix(4, w, seed + 1)));
    seed += 2;
  }
  return cases;
}

struct ReferenceGolden {
  const char* label;
  std::uint64_t digest;
};

/// Pinned on the per-element reference loops (one accumulation chain per
/// output element) that the register tiles replaced.
constexpr ReferenceGolden kReferenceGolden[] = {
    {"GEMM n=16", 0x2ed7d07b5cabbe20ull},
    {"GEMM n=32", 0x42b6e0577b9a823dull},
    {"GEMM n=64", 0x1cec87fdac75a8c1ull},
    {"SYRK n=16", 0x83e9a6837c7143eeull},
    {"SYRK n=32", 0x76d9d1606380b5aaull},
    {"SYRK n=64", 0xdbc31aa0a1fb3811ull},
    {"SYR2K n=16", 0x0130d776cd69ecc3ull},
    {"SYR2K n=32", 0xf8656be19d9eb247ull},
    {"SYR2K n=64", 0xe829feca11a55cd7ull},
    {"TRSM n=16", 0xddc74c463a09dfcfull},
    {"TRSM n=32", 0x8867cbdccce439e3ull},
    {"TRSM n=64", 0x94633cca34e0c758ull},
    {"CHOL n=16", 0x185eca4b29e04951ull},
    {"CHOL n=32", 0x838db68cbb6d4c21ull},
    {"CHOL n=64", 0x1745b180140c0505ull},
    {"LU n=16", 0x770e3aa6acb6fbcfull},
    {"LU n=32", 0xbeebd6a70640303cull},
    {"LU n=64", 0x784c284571416f06ull},
    {"QR n=16", 0x512e942fa7aa494dull},
    {"QR n=32", 0xadc6996dfc140718ull},
    {"QR n=64", 0xdb5594a20d265be2ull},
    {"VNORM n=16", 0x817ca610adaa033eull},
    {"VNORM n=32", 0xc905682630cab1c6ull},
    {"VNORM n=64", 0xdc886bc693c2a647ull},
    {"CHIP_GEMM n=16", 0x2ed7d07b5cabbe20ull},
    {"CHIP_GEMM n=32", 0x42b6e0577b9a823dull},
    {"CHIP_GEMM n=64", 0x1cec87fdac75a8c1ull},
    {"FFT n=16", 0xef27fa28b69f38e3ull},
    {"FFT n=32", 0x33d6f3c68a3a90a9ull},
    {"FFT n=64", 0xfdaf59879fec56cfull},
    {"GEMM 60x4x16", 0xf8e23d52d1aa8b41ull},
    {"GEMM 12x4x16", 0x81544c76d0ab6dacull},
    {"GEMM 44x4x12", 0x456c2fbb58a3a1cdull},
    {"GEMM 4x64x16", 0x87a86ccb06b686daull},
    {"GEMM 4x63x16", 0x5e0506649d735616ull},
    {"GEMM 4x62x12", 0x8183617624fa6496ull},
    {"GEMM 4x61x8", 0xb07bf725a60c573eull},
    {"GEMM 4x33x4", 0x580df8999b1b12beull},
    {"GEMM 64x4x16", 0x4daeb0209d36e693ull},
    {"GEMM 60x4x12", 0x3330d69f03edc830ull},
    {"GEMM 36x4x8", 0x0f925ad381595682ull},
    {"TRSM 4x16", 0xdf4fafe648407389ull},
    {"TRSM 4x12", 0x69968d2b1a7a7794ull},
};

TEST(RefBlas, ReferenceRunDigestsMatchParent) {
  const auto cases = reference_cases();
  std::string table;
  bool all_match = cases.size() == std::size(kReferenceGolden);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const std::uint64_t got = reference_digest(cases[i].second);
    if (i >= std::size(kReferenceGolden) || cases[i].first != kReferenceGolden[i].label ||
        got != kReferenceGolden[i].digest)
      all_match = false;
    char row[160];
    std::snprintf(row, sizeof row, "    {\"%s\", 0x%016" PRIx64 "ull},\n",
                  cases[i].first.c_str(), got);
    table += row;
  }
  EXPECT_TRUE(all_match) << "reference_run output changed; if intended, paste as "
                            "kReferenceGolden:\n"
                         << table;
}

}  // namespace
}  // namespace lac::blas
