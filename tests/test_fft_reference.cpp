#include "fft/reference_fft.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "common/random.hpp"

namespace lac::fft {
namespace {

std::vector<cplx> random_signal(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<cplx> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return x;
}

double max_err(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

TEST(ReferenceFft, ImpulseGivesFlatSpectrum) {
  std::vector<cplx> x(64, cplx{0, 0});
  x[0] = {1, 0};
  auto y = fft_radix4(x);
  for (const auto& v : y) EXPECT_NEAR(std::abs(v - cplx{1, 0}), 0.0, 1e-12);
}

TEST(ReferenceFft, SingleToneLandsInOneBin) {
  const index_t n = 64;
  std::vector<cplx> x(static_cast<std::size_t>(n));
  const double k = 5.0;
  for (index_t j = 0; j < n; ++j) {
    const double ang = 2.0 * M_PI * k * j / n;
    x[static_cast<std::size_t>(j)] = {std::cos(ang), std::sin(ang)};
  }
  auto y = fft_radix4(x);
  EXPECT_NEAR(std::abs(y[5]), static_cast<double>(n), 1e-9);
  for (index_t b = 0; b < n; ++b) {
    if (b != 5) {
      EXPECT_NEAR(std::abs(y[static_cast<std::size_t>(b)]), 0.0, 1e-9);
    }
  }
}

class Radix4VsDft : public ::testing::TestWithParam<index_t> {};

TEST_P(Radix4VsDft, MatchesNaiveDft) {
  const index_t n = GetParam();
  auto x = random_signal(n, 42 + static_cast<std::uint64_t>(n));
  EXPECT_LT(max_err(fft_radix4(x), dft(x)), 1e-9 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(PowersOfFour, Radix4VsDft,
                         ::testing::Values(4, 16, 64, 256, 1024));

/// What f() throws as std::invalid_argument, or a note that it did not.
template <class F>
std::string invalid_argument_message(F f) {
  try {
    f();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "no std::invalid_argument";
}

TEST(ReferenceFft, RejectsSizesItCannotTransformNamingThem) {
  // Powers of 2 that are not powers of 4 used to run the radix-4 stages and
  // the digit reversal past the vector in an optimized build.
  for (index_t n : {2, 8, 32, 128}) {
    const std::vector<cplx> x = random_signal(n, 3);
    EXPECT_NE(invalid_argument_message([&x] { fft_radix4(x); })
                  .find(std::to_string(n) + " points"),
              std::string::npos)
        << n << " points";
  }
  const std::vector<cplx> x = random_signal(64, 4);
  EXPECT_NE(invalid_argument_message([&x] { fft2d(x, 16); }).find("64 points"),
            std::string::npos);
  EXPECT_NE(invalid_argument_message([&x] { fft_four_step(x, 16, 16); }).find("64 points"),
            std::string::npos);
}

TEST(ReferenceFft, DigitReversalIsInvolution) {
  const auto perm = digit_reversal4(64);
  for (index_t i = 0; i < 64; ++i)
    EXPECT_EQ(perm[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])], i);
}

TEST(ReferenceFft, ParsevalEnergyConserved) {
  const index_t n = 256;
  auto x = random_signal(n, 7);
  auto y = fft_radix4(x);
  double ex = 0.0, ey = 0.0;
  for (const auto& v : x) ex += std::norm(v);
  for (const auto& v : y) ey += std::norm(v);
  EXPECT_NEAR(ey, ex * static_cast<double>(n), 1e-6 * ex * n);
}

TEST(ReferenceFft, FourStepMatchesDirectFft) {
  const index_t n1 = 16, n2 = 16;
  auto x = random_signal(n1 * n2, 9);
  auto direct = fft_radix4(x);
  auto four = fft_four_step(x, n1, n2);
  EXPECT_LT(max_err(direct, four), 1e-8);
}

TEST(ReferenceFft, FourStepRectangularFactors) {
  auto x = random_signal(64 * 16, 11);
  auto direct = fft_radix4(x);
  auto four = fft_four_step(x, 64, 16);
  EXPECT_LT(max_err(direct, four), 1e-8);
}

TEST(ReferenceFft, Fft2dSeparability) {
  // A rank-1 grid x(r,c) = f(r)*g(c) transforms to F(f) outer F(g).
  const index_t n = 16;
  auto f = random_signal(n, 13);
  auto g = random_signal(n, 14);
  std::vector<cplx> grid(static_cast<std::size_t>(n * n));
  for (index_t r = 0; r < n; ++r)
    for (index_t c = 0; c < n; ++c)
      grid[static_cast<std::size_t>(r * n + c)] =
          f[static_cast<std::size_t>(r)] * g[static_cast<std::size_t>(c)];
  auto ff = dft(f);
  auto fg = dft(g);
  auto fgrid = fft2d(grid, n);
  double m = 0.0;
  for (index_t r = 0; r < n; ++r)
    for (index_t c = 0; c < n; ++c)
      m = std::max(m, std::abs(fgrid[static_cast<std::size_t>(r * n + c)] -
                               ff[static_cast<std::size_t>(r)] * fg[static_cast<std::size_t>(c)]));
  EXPECT_LT(m, 1e-8);
}

}  // namespace
}  // namespace lac::fft
