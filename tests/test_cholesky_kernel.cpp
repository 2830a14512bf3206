#include "kernels/cholesky_kernel.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "arch/presets.hpp"
#include "blas/ref_lapack.hpp"
#include "common/numeric.hpp"
#include "common/random.hpp"
#include "model/factor_model.hpp"

namespace lac::kernels {
namespace {

TEST(CholeskyKernel, InnerMatchesReference) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD a = random_spd(4, 1);
  KernelResult r = cholesky_inner(cfg, a.view());
  MatrixD expect = to_matrix<double>(ConstViewD(a.view()));
  ASSERT_TRUE(blas::cholesky(expect.view()));
  EXPECT_LT(rel_error(r.out.view(), expect.view()), 1e-12);
}

TEST(CholeskyKernel, InnerCycleCountTracksClosedForm) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  cfg.pe.pipeline_stages = 5;
  cfg.sfu = arch::SfuOption::IsolatedUnit;
  MatrixD a = random_spd(4, 2);
  KernelResult r = cholesky_inner(cfg, a.view());
  // Published closed form: 2p(nr-1) + q*nr with q the rsqrt latency.
  const double closed =
      model::cholesky_unblocked_cycles(4, 5, cfg.sfu_latency_rsqrt);
  EXPECT_GE(r.cycles.value(), 0.7 * closed);
  EXPECT_LE(r.cycles.value(), 1.9 * closed);  // simulator adds bus/routing latency
}

TEST(CholeskyKernel, SfuOptionChangesLatencyNotValues) {
  MatrixD a = random_spd(4, 3);
  arch::CoreConfig sw = arch::lac_4x4_dp();
  sw.sfu = arch::SfuOption::Software;
  arch::CoreConfig iso = arch::lac_4x4_dp();
  iso.sfu = arch::SfuOption::IsolatedUnit;
  KernelResult r_sw = cholesky_inner(sw, a.view());
  KernelResult r_iso = cholesky_inner(iso, a.view());
  EXPECT_LT(rel_error(r_sw.out.view(), r_iso.out.view()), 1e-15);
  EXPECT_GT(r_sw.cycles.value(), r_iso.cycles.value());  // Goldschmidt on the MAC is slower
}

TEST(CholeskyKernel, BlockedMatchesReference) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD a = random_spd(16, 4);
  KernelResult r = cholesky_core(cfg, 2.0, a.view());
  MatrixD expect = to_matrix<double>(ConstViewD(a.view()));
  ASSERT_TRUE(blas::cholesky(expect.view()));
  EXPECT_LT(rel_error(r.out.view(), expect.view()), 1e-10);
}

TEST(CholeskyKernel, BiggerKernelsAmortizeIrregularWork) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD small = random_spd(8, 5);
  MatrixD large = random_spd(24, 6);
  KernelResult rs = cholesky_core(cfg, 4.0, small.view());
  KernelResult rl = cholesky_core(cfg, 4.0, large.view());
  EXPECT_GT(rl.utilization, rs.utilization);
}

/// cholesky_core's trailing update as it ran before chol_trailing_update
/// closed it: every PE timed at every step.
void reference_trailing_update(sim::Core& core, std::vector<sim::TimedVal>& tv, index_t n,
                               index_t d) {
  const int nr = core.nr();
  const index_t kb = n / nr;
  auto at2 = [&](index_t r, index_t c) -> sim::TimedVal& {
    return tv[static_cast<std::size_t>(r * n + c)];
  };
  std::vector<sim::TimedVal> lrow(static_cast<std::size_t>(nr));
  std::vector<sim::TimedVal> lcol(static_cast<std::size_t>(nr));
  for (index_t bi = d + 1; bi < kb; ++bi)
    for (index_t bj = d + 1; bj <= bi; ++bj)
      for (int p = 0; p < nr; ++p) {
        for (int r = 0; r < nr; ++r)
          lrow[static_cast<std::size_t>(r)] = core.broadcast_row(r, at2(bi * nr + r, d * nr + p));
        for (int c = 0; c < nr; ++c)
          lcol[static_cast<std::size_t>(c)] = core.broadcast_col(c, at2(bj * nr + c, d * nr + p));
        for (int r = 0; r < nr; ++r)
          for (int c = 0; c < nr; ++c) {
            sim::TimedVal neg = lrow[static_cast<std::size_t>(r)];
            neg.v = -neg.v;
            at2(bi * nr + r, bj * nr + c) = core.pe(r, c).mac.fma(
                neg, lcol[static_cast<std::size_t>(c)], at2(bi * nr + r, bj * nr + c));
          }
      }
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// A random lattice and core state for iteration d's trailing update.
/// Times are quarter cycles, so most PEs close, except where a variant
/// holds something back: (1) one element of a middle pair, so its PE
/// steps on; (2) the panel words of the last block row, so the buses wait
/// for them mid-update; (3) row bus 0 and (4) the last column bus, far
/// ahead of the PEs; (5) special values: elements +NaN, -NaN and -0.0 and
/// one panel row of -0.0 (a NaN panel word would meet its own negation on
/// a diagonal block: see LAC_FMA_CLONES on NaN operands); (6) some ready
/// times off the quarter-cycle grid.
void prepare_lattice(sim::Core& core, std::vector<sim::TimedVal>& tv, index_t n, index_t d,
                     std::uint64_t seed, int variant) {
  Rng rng(seed);
  const int nr = core.nr();
  const index_t kb = n / nr;
  const auto quarter = [&](index_t max) { return 0.25 * static_cast<double>(rng.next_index(max)); };
  tv.assign(static_cast<std::size_t>(n * n), sim::TimedVal{});
  // Elements and panel words ready over the span the first pairs issue in,
  // so some arrive just before or after their FMA would issue.
  for (sim::TimedVal& e : tv) e = sim::at(rng.uniform(-1.0, 1.0), quarter(480));
  for (index_t i = (d + 1) * nr; i < n; ++i)
    for (int p = 0; p < nr; ++p)
      tv[static_cast<std::size_t>(i * n + d * nr + p)].ready = quarter(480);
  for (int r = 0; r < nr; ++r)
    for (int c = 0; c < nr; ++c)
      core.pe(r, c).mac.mul(sim::at(1.0, 0.0), sim::at(1.0, 0.0), quarter(320));
  for (int i = 0; i < nr; ++i) {
    core.broadcast_row(i, sim::at(0.0, quarter(200)));
    core.broadcast_col(i, sim::at(0.0, quarter(200)));
  }
  const index_t m = kb - d - 1;
  const index_t mid = d + 1 + m / 2;  // a middle block row
  switch (variant) {
    case 1:
      tv[static_cast<std::size_t>((mid * nr) * n + (d + 1) * nr + nr - 1)].ready = 2000.0;
      break;
    case 2:
      for (int r = 0; r < nr; ++r)
        for (int p = 0; p < nr; ++p)
          tv[static_cast<std::size_t>(((kb - 1) * nr + r) * n + d * nr + p)].ready = 1500.0 + p;
      break;
    case 3:
    case 4:
      // Everything else early, so only the bus keeps its PEs stepping.
      for (sim::TimedVal& e : tv) e.ready = quarter(40);
      if (variant == 3) core.broadcast_row(0, sim::at(0.0, 900.0));
      else core.broadcast_col(nr - 1, sim::at(0.0, 900.0));
      break;
    case 5:
      tv[static_cast<std::size_t>((mid * nr) * n + (d + 1) * nr)].v =
          std::numeric_limits<double>::quiet_NaN();
      tv[static_cast<std::size_t>(((kb - 1) * nr + nr - 1) * n + (kb - 1) * nr)].v =
          -std::numeric_limits<double>::quiet_NaN();
      for (index_t c = (d + 1) * nr; c < n; ++c)
        tv[static_cast<std::size_t>(((d + 1) * nr) * n + c)].v = -0.0;
      for (int p = 0; p < nr; ++p)
        tv[static_cast<std::size_t>((mid * nr + nr - 1) * n + d * nr + p)].v = -0.0;
      break;
    case 6:
      tv[static_cast<std::size_t>(((d + 1) * nr + 1 % nr) * n + d * nr)].ready = 50.0 / 3.0;
      tv[static_cast<std::size_t>((mid * nr) * n + (d + 1) * nr + nr - 1)].ready = 70.0 / 3.0;
      core.pe(0, nr - 1).mac.occupy(0.0, 1.0 / 3.0);
      break;
    default:
      break;
  }
}

TEST(CholeskyKernel, TrailingUpdateMatchesPerStepReference) {
  std::uint64_t seed = 1;
  for (int nr : {2, 3, 4, 5, 8})
    for (index_t kb : {2, 3, 6})
      for (index_t d = 0; d + 1 < kb; d += 2)
        for (int stages : {1, 5, 7})
          for (int latency : {1, 2})
            for (int variant = 0; variant < 7; ++variant) {
              arch::CoreConfig cfg = arch::lac_4x4_dp();
              cfg.nr = nr;
              cfg.pe.pipeline_stages = stages;
              cfg.bus_latency = latency;
              const index_t n = kb * nr;
              SCOPED_TRACE("nr " + std::to_string(nr) + " n " + std::to_string(n) + " d " +
                           std::to_string(d) + " stages " + std::to_string(stages) +
                           " bus latency " + std::to_string(latency) + " variant " +
                           std::to_string(variant));
              sim::Core got(cfg, 2.0, 2);
              sim::Core want(cfg, 2.0, 2);
              std::vector<sim::TimedVal> got_tv, want_tv;
              prepare_lattice(got, got_tv, n, d, seed, variant);
              prepare_lattice(want, want_tv, n, d, seed, variant);
              ++seed;
              chol_trailing_update(got, got_tv, n, d);
              reference_trailing_update(want, want_tv, n, d);
              for (std::size_t i = 0; i < got_tv.size(); ++i) {
                ASSERT_EQ(bits(got_tv[i].v), bits(want_tv[i].v)) << "element " << i;
                ASSERT_EQ(bits(got_tv[i].ready), bits(want_tv[i].ready)) << "element " << i;
              }
              const sim::Stats gs = got.stats(), ws = want.stats();
              EXPECT_EQ(gs.mac_ops, ws.mac_ops);
              EXPECT_EQ(gs.mul_ops, ws.mul_ops);
              EXPECT_EQ(gs.row_bus_xfers, ws.row_bus_xfers);
              EXPECT_EQ(gs.col_bus_xfers, ws.col_bus_xfers);
              EXPECT_EQ(bits(got.finish_time()), bits(want.finish_time()));
              for (int r = 0; r < nr; ++r)
                for (int c = 0; c < nr; ++c) {
                  const sim::MacPipeline& g = got.pe(r, c).mac;
                  const sim::MacPipeline& w = want.pe(r, c).mac;
                  EXPECT_EQ(bits(g.issue_port_free()), bits(w.issue_port_free())) << r << c;
                  EXPECT_EQ(bits(g.busy_cycles()), bits(w.busy_cycles())) << r << c;
                  EXPECT_EQ(g.mac_ops(), w.mac_ops()) << r << c;
                }
              for (int i = 0; i < nr; ++i)
                for (const auto& [g, w] : {std::pair{&got.row_bus(i), &want.row_bus(i)},
                                           std::pair{&got.col_bus(i), &want.col_bus(i)}}) {
                  EXPECT_EQ(bits(g->next_free()), bits(w->next_free())) << "bus " << i;
                  EXPECT_EQ(bits(g->busy_cycles()), bits(w->busy_cycles())) << "bus " << i;
                  EXPECT_EQ(g->ops(), w->ops()) << "bus " << i;
                }
            }
}

}  // namespace
}  // namespace lac::kernels
