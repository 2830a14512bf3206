#include "blas/lap_driver.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "blas/ref_blas.hpp"
#include "sched/graph_builders.hpp"
#include "sched/graph_scheduler.hpp"

namespace lac::blas {
namespace {

fabric::KernelResult run(const fabric::Executor& ex, fabric::KernelRequest req) {
  fabric::KernelResult res = ex.execute(std::move(req));
  if (!res.ok)
    throw std::runtime_error(std::string("lap driver kernel failed: ") + res.error);
  return res;
}

void absorb(DriverReport& rep, const fabric::KernelResult& k) {
  rep.total_cycles += k.cycles;
  rep.stats += k.stats;
  rep.energy_nj += k.energy_nj;
  rep.area_mm2 = std::max(rep.area_mm2, k.area_mm2);
  ++rep.kernel_calls;
}

/// Derive the report's average power once the kernel stream is complete:
/// accumulated energy over the accumulated makespan at the core clock.
void finalize_power(DriverReport& rep, const arch::CoreConfig& cfg) {
  const double f = cfg.pe.clock_ghz;
  const units::Seconds t = f > 0.0 ? rep.total_cycles / units::Gigahertz(f)
                                   : units::Seconds{};
  rep.avg_power_w = t.value() > 0.0 ? units::to_joules(rep.energy_nj) / t
                                    : units::Watts{};
}

}  // namespace

DriverReport lap_gemm(const fabric::Executor& ex, const arch::CoreConfig& cfg,
                      double bw_words_per_cycle, index_t mc, index_t kc,
                      ConstViewD a, ConstViewD b, ViewD c) {
  const int nr = cfg.nr;
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = a.cols();
  assert(a.rows() == m && b.rows() == k && b.cols() == n);
  assert(m % nr == 0 && n % nr == 0 && k % nr == 0);
  mc = std::min(mc, m);
  kc = std::min(kc, k);
  assert(mc % nr == 0 && kc % nr == 0);

  DriverReport rep;
  for (index_t pp = 0; pp < k; pp += kc) {
    const index_t kb = std::min(kc, k - pp);
    for (index_t ii = 0; ii < m; ii += mc) {
      const index_t mb = std::min(mc, m - ii);
      // One resident A tile; the full n-wide sweep of B/C panels streams
      // through the core (this is exactly the §3.4 inner kernel). Only the
      // very first tile of the whole sweep has no prior compute to hide its
      // A load behind; every later tile -- including the rest of the first
      // k-panel -- overlaps with the preceding tile's B/C streaming.
      fabric::KernelResult r = run(
          ex, fabric::make_gemm(cfg, bw_words_per_cycle, a.block(ii, pp, mb, kb),
                                b.block(pp, 0, kb, n), c.block(ii, 0, mb, n),
                                pp == 0 && ii == 0 ? model::Overlap::Partial
                                                   : model::Overlap::Full));
      copy_into<double>(MatrixView<const double>(r.out.view()), c.block(ii, 0, mb, n));
      absorb(rep, r);
    }
  }
  const double useful = static_cast<double>(m) * n * k / (nr * nr);
  rep.utilization = rep.total_cycles.value() > 0
                        ? useful / rep.total_cycles.value()
                        : 0.0;
  finalize_power(rep, cfg);
  return rep;
}

DriverReport lap_cholesky(const fabric::Executor& ex, const arch::CoreConfig& cfg,
                          double bw_words_per_cycle, index_t block, ViewD a) {
  const int nr = cfg.nr;
  const index_t n = a.rows();
  assert(a.cols() == n && n % block == 0 && block % nr == 0);

  DriverReport rep;
  for (index_t d = 0; d < n; d += block) {
    // Diagonal block Cholesky on the fabric.
    fabric::KernelResult diag = run(
        ex, fabric::make_cholesky(cfg, bw_words_per_cycle, a.block(d, d, block, block)));
    for (index_t j = 0; j < block; ++j)
      for (index_t i = 0; i < block; ++i)
        a(d + i, d + j) = i >= j ? diag.out(i, j) : 0.0;
    absorb(rep, diag);

    if (d + block >= n) break;
    const index_t rest = n - d - block;

    // Panel TRSM: A21 := A21 * L11^{-T}  <=>  solve L11 * X^T = A21^T.
    MatrixD a21t = transpose(a.block(d + block, d, rest, block));
    fabric::KernelResult solved =
        run(ex, fabric::make_trsm(cfg, bw_words_per_cycle,
                                  a.block(d, d, block, block), a21t.view()));
    for (index_t j = 0; j < block; ++j)
      for (index_t i = 0; i < rest; ++i) a(d + block + i, d + j) = solved.out(j, i);
    absorb(rep, solved);

    // Trailing update: A22 -= L21 * L21^T (SYRK on the fabric).
    MatrixD c22 = to_matrix<double>(
        MatrixView<const double>(a.block(d + block, d + block, rest, rest)));
    fabric::KernelResult upd = run(
        ex, fabric::make_syrk(cfg, bw_words_per_cycle,
                              a.block(d + block, d, rest, block), c22.view()));
    // syrk computes C += A A^T; we need C -= L21 L21^T, so fold the
    // sign by writing back 2*C_in - result on the lower triangle.
    for (index_t j = 0; j < rest; ++j)
      for (index_t i = j; i < rest; ++i)
        a(d + block + i, d + block + j) = 2.0 * c22(i, j) - upd.out(i, j);
    absorb(rep, upd);
  }
  // Match the reference contract: the strict upper triangle is zeroed.
  for (index_t j = 1; j < n; ++j)
    for (index_t i = 0; i < j; ++i) a(i, j) = 0.0;
  const double useful = static_cast<double>(n) * n * n / 3.0 / 2.0 / (nr * nr);
  rep.utilization = rep.total_cycles.value() > 0
                        ? useful / rep.total_cycles.value()
                        : 0.0;
  finalize_power(rep, cfg);
  return rep;
}

DriverReport lap_cholesky_graph(const fabric::Executor& ex,
                                const arch::CoreConfig& cfg,
                                double bw_words_per_cycle, index_t block,
                                ViewD a, unsigned workers, ThreadPool* pool) {
  const int nr = cfg.nr;
  const index_t n = a.rows();
  assert(a.cols() == n && n % block == 0 && block % nr == 0);

  sched::FactorGraph fg =
      sched::build_cholesky_graph(cfg, bw_words_per_cycle, a, block);
  sched::SchedulerOptions opts;
  opts.workers = workers;
  // Fall back to a dedicated pool, never the shared one: this call blocks
  // on the graph future, and parking a shared-pool thread on work that
  // itself needs shared-pool workers can deadlock the pool (e.g. a sweep
  // dispatching drivers via ThreadPool::shared().parallel_for).
  ThreadPool local(workers);
  sched::GraphScheduler scheduler(ex, opts, pool ? pool : &local);
  sched::GraphResult gres = scheduler.submit(0, std::move(fg.graph)).get();
  if (!gres.ok)
    throw std::runtime_error("lap driver kernel failed: " + gres.error);
  sched::extract_lower(fg, a);

  DriverReport rep;
  for (const fabric::KernelResult& k : gres.nodes) absorb(rep, k);
  const double useful = static_cast<double>(n) * n * n / 3.0 / 2.0 / (nr * nr);
  rep.utilization = rep.total_cycles.value() > 0
                        ? useful / rep.total_cycles.value()
                        : 0.0;
  finalize_power(rep, cfg);
  rep.makespan_cycles = gres.makespan_cycles;
  rep.graph_speedup = gres.speedup;
  rep.graph_workers = gres.workers;
  return rep;
}

DriverReport lap_lu(const fabric::Executor& ex, const arch::CoreConfig& cfg,
                    double bw_words_per_cycle, ViewD a,
                    std::vector<index_t>& pivots) {
  const int nr = cfg.nr;
  const index_t m = a.rows();
  const index_t n = a.cols();
  assert(m % nr == 0 && n % nr == 0 && m >= n);
  pivots.assign(static_cast<std::size_t>(n), 0);

  DriverReport rep;
  for (index_t j = 0; j < n; j += nr) {
    const index_t rows = m - j;
    // (1) Panel factorization on the fabric (pivot search + scale + rank-1).
    fabric::KernelResult lu =
        run(ex, fabric::make_lu(cfg, a.block(j, j, rows, nr)));
    for (index_t c = 0; c < nr; ++c)
      for (index_t i = 0; i < rows; ++i) a(j + i, j + c) = lu.out(i, c);
    absorb(rep, lu);

    // (2) Apply the panel's pivots to the rest of the matrix and record
    // them globally.
    for (index_t s = 0; s < nr; ++s) {
      const index_t p = lu.pivots[static_cast<std::size_t>(s)];
      pivots[static_cast<std::size_t>(j + s)] = j + p;
      if (p != s) {
        for (index_t c = 0; c < j; ++c) std::swap(a(j + s, c), a(j + p, c));
        for (index_t c = j + nr; c < n; ++c) std::swap(a(j + s, c), a(j + p, c));
      }
    }

    if (j + nr >= n) break;
    const index_t right = n - j - nr;

    // (3) U row panel: solve L11 (unit lower) * U12 = A12 on the fabric.
    MatrixD l11(nr, nr, 0.0);
    for (index_t c = 0; c < nr; ++c) {
      for (index_t i = c + 1; i < nr; ++i) l11(i, c) = a(j + i, j + c);
      l11(c, c) = 1.0;
    }
    fabric::KernelResult u12 =
        run(ex, fabric::make_trsm(cfg, bw_words_per_cycle, l11.view(),
                                  a.block(j, j + nr, nr, right)));
    for (index_t c = 0; c < right; ++c)
      for (index_t i = 0; i < nr; ++i) a(j + i, j + nr + c) = u12.out(i, c);
    absorb(rep, u12);

    // (4) Trailing update A22 -= L21 * U12 as an accelerated GEMM.
    const index_t below = m - j - nr;
    if (below > 0) {
      MatrixD l21 = to_matrix<double>(
          MatrixView<const double>(a.block(j + nr, j, below, nr)));
      for (index_t c = 0; c < nr; ++c)
        for (index_t i = 0; i < below; ++i) l21(i, c) = -l21(i, c);
      fabric::KernelResult upd = run(
          ex, fabric::make_gemm(cfg, bw_words_per_cycle, l21.view(), u12.out.view(),
                                a.block(j + nr, j + nr, below, right)));
      for (index_t c = 0; c < right; ++c)
        for (index_t i = 0; i < below; ++i) a(j + nr + i, j + nr + c) = upd.out(i, c);
      absorb(rep, upd);
    }
  }
  const double useful =
      (static_cast<double>(m) * n * n - static_cast<double>(n) * n * n / 3.0) /
      (nr * nr);
  rep.utilization = rep.total_cycles.value() > 0
                        ? useful / rep.total_cycles.value()
                        : 0.0;
  finalize_power(rep, cfg);
  return rep;
}

DriverReport lap_qr(const fabric::Executor& ex, const arch::CoreConfig& cfg,
                    double bw_words_per_cycle, ViewD a, std::vector<double>& taus) {
  const int nr = cfg.nr;
  const index_t m = a.rows();
  const index_t n = a.cols();
  assert(m % nr == 0 && n % nr == 0 && m >= n);
  taus.clear();
  taus.reserve(static_cast<std::size_t>(n));

  DriverReport rep;
  std::vector<double> w;
  for (index_t j = 0; j < n; j += nr) {
    const index_t rows = m - j;
    // (1) Panel QR on the fabric.
    fabric::KernelResult qr = run(ex, fabric::make_qr(cfg, a.block(j, j, rows, nr)));
    for (index_t c = 0; c < nr; ++c)
      for (index_t i = 0; i < rows; ++i) a(j + i, j + c) = qr.out(i, c);
    for (double tau : qr.taus) taus.push_back(tau);
    absorb(rep, qr);

    if (j + nr >= n) break;
    const index_t right = n - j - nr;

    // (2) Apply the panel's reflectors to the trailing columns, one
    // reflector at a time: w^T = (a1^T + u2^T A2)/tau; A -= u w^T.
    // The two matrix-vector products are small GEMM calls on the fabric.
    for (index_t s = 0; s < nr; ++s) {
      const double tau = qr.taus[static_cast<std::size_t>(s)];
      const index_t tail = rows - s;  // reflector length (leading 1)
      MatrixD u(tail, 1, 0.0);
      u(0, 0) = 1.0;
      for (index_t i = 1; i < tail; ++i) u(i, 0) = a(j + s + i, j + s);
      // w^T = (u^T/tau) A2 as an nr x right GEMM on the accelerator (row 0
      // of the A operand carries u^T/tau, the rest is padding): these MACs
      // run on the fabric, so they are charged fabric cycles like the
      // rank-1 update below.
      MatrixD ut(nr, tail, 0.0);
      for (index_t i = 0; i < tail; ++i) ut(0, i) = u(i, 0) / tau;
      fabric::KernelResult wres = run(
          ex, fabric::make_gemm(cfg, bw_words_per_cycle, ut.view(),
                                a.block(j + s, j + nr, tail, right),
                                MatrixD(nr, right, 0.0).view()));
      w.assign(static_cast<std::size_t>(right), 0.0);
      for (index_t c = 0; c < right; ++c) w[static_cast<std::size_t>(c)] = wres.out(0, c);
      absorb(rep, wres);
      // Rank-1 update A2 -= u w^T on the accelerator: reuse the GEMM
      // kernel with the padded operands to charge realistic cycles.
      const index_t padded = ((tail + nr - 1) / nr) * nr;
      MatrixD up(padded, nr, 0.0);
      for (index_t i = 0; i < tail; ++i) up(i, 0) = -u(i, 0);
      MatrixD wp(nr, ((right + nr - 1) / nr) * nr, 0.0);
      for (index_t c = 0; c < right; ++c) wp(0, c) = w[static_cast<std::size_t>(c)];
      MatrixD c_pad(padded, wp.cols(), 0.0);
      for (index_t c = 0; c < right; ++c)
        for (index_t i = 0; i < tail; ++i) c_pad(i, c) = a(j + s + i, j + nr + c);
      fabric::KernelResult upd =
          run(ex, fabric::make_gemm(cfg, bw_words_per_cycle, up.view(), wp.view(),
                                    c_pad.view()));
      for (index_t c = 0; c < right; ++c)
        for (index_t i = 0; i < tail; ++i) a(j + s + i, j + nr + c) = upd.out(i, c);
      absorb(rep, upd);
    }
  }
  const double useful = 2.0 *
                        (static_cast<double>(m) * n * n -
                         static_cast<double>(n) * n * n / 3.0) /
                        (2.0 * nr * nr);
  rep.utilization = rep.total_cycles.value() > 0
                        ? useful / rep.total_cycles.value()
                        : 0.0;
  finalize_power(rep, cfg);
  return rep;
}

DriverReport lap_trmm(const fabric::Executor& ex, const arch::CoreConfig& cfg,
                      double bw_words_per_cycle, index_t block, ConstViewD l,
                      ViewD b) {
  const int nr = cfg.nr;
  const index_t m = b.rows();
  const index_t n = b.cols();
  assert(l.rows() == m && l.cols() == m && m % block == 0 && block % nr == 0);
  (void)nr;

  DriverReport rep;
  // Process row panels bottom-up so each uses only not-yet-overwritten B
  // rows: B_i := sum_{j<=i} L(i,j) B_j. The diagonal tile multiplies with
  // the triangle zero-filled (charged as a full GEMM tile, as on the LAC).
  MatrixD result(m, n, 0.0);
  for (index_t i0 = 0; i0 < m; i0 += block) {
    MatrixD acc(block, n, 0.0);
    for (index_t j0 = 0; j0 <= i0; j0 += block) {
      MatrixD tile(block, block, 0.0);
      for (index_t c = 0; c < block; ++c)
        for (index_t r = 0; r < block; ++r)
          if (i0 + r >= j0 + c) tile(r, c) = l(i0 + r, j0 + c);
      fabric::KernelResult k =
          run(ex, fabric::make_gemm(cfg, bw_words_per_cycle, tile.view(),
                                    b.block(j0, 0, block, n), acc.view()));
      absorb(rep, k);
      acc = std::move(k.out);
    }
    copy_into<double>(MatrixView<const double>(acc.view()),
                      result.block(i0, 0, block, n));
  }
  copy_into<double>(MatrixView<const double>(result.view()), b);
  const double useful = static_cast<double>(m) * (m + 1) / 2.0 * n /
                        (cfg.nr * cfg.nr);
  rep.utilization = rep.total_cycles.value() > 0
                        ? useful / rep.total_cycles.value()
                        : 0.0;
  finalize_power(rep, cfg);
  return rep;
}

DriverReport lap_symm(const fabric::Executor& ex, const arch::CoreConfig& cfg,
                      double bw_words_per_cycle, index_t block, ConstViewD a_lower,
                      ConstViewD b, ViewD c) {
  const index_t m = c.rows();
  const index_t n = c.cols();
  assert(a_lower.rows() == m && a_lower.cols() == m && b.rows() == m &&
         b.cols() == n && m % block == 0 && block % cfg.nr == 0);

  DriverReport rep;
  for (index_t i0 = 0; i0 < m; i0 += block) {
    MatrixD acc = to_matrix<double>(
        MatrixView<const double>(c.block(i0, 0, block, n)));
    for (index_t j0 = 0; j0 < m; j0 += block) {
      // Recover A(i0, j0): stored when i0 >= j0, otherwise the transpose
      // of the mirrored block (the bus transpose of §5.2 does this on the
      // fabric; here the staging layer materializes it).
      MatrixD tile(block, block, 0.0);
      for (index_t cc = 0; cc < block; ++cc)
        for (index_t rr = 0; rr < block; ++rr) {
          const index_t gi = i0 + rr;
          const index_t gj = j0 + cc;
          tile(rr, cc) = gi >= gj ? a_lower(gi, gj) : a_lower(gj, gi);
        }
      fabric::KernelResult k =
          run(ex, fabric::make_gemm(cfg, bw_words_per_cycle, tile.view(),
                                    b.block(j0, 0, block, n), acc.view()));
      absorb(rep, k);
      acc = std::move(k.out);
    }
    copy_into<double>(MatrixView<const double>(acc.view()),
                      c.block(i0, 0, block, n));
  }
  const double useful = static_cast<double>(m) * m * n / (cfg.nr * cfg.nr);
  rep.utilization = rep.total_cycles.value() > 0
                        ? useful / rep.total_cycles.value()
                        : 0.0;
  finalize_power(rep, cfg);
  return rep;
}

}  // namespace lac::blas
