#include "blas/lap_driver.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <thread>

#include "sched/graph_builders.hpp"

namespace lac::blas {
namespace {

fabric::KernelResult run(const fabric::Executor& ex, const fabric::KernelRequest& req) {
  fabric::KernelResult res = fabric::run_request(ex, req);
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

/// Completes the report once the kernel stream is done: utilization from
/// the `useful` MACs per PE, and average power as the accumulated energy
/// over the accumulated cycles at the core clock.
void finish(DriverReport& rep, const arch::CoreConfig& cfg, double useful) {
  rep.utilization = rep.total_cycles.value() > 0
                        ? useful / rep.total_cycles.value()
                        : 0.0;
  const double f = cfg.pe.clock_ghz;
  const units::Seconds t = f > 0.0 ? rep.total_cycles / units::Gigahertz(f)
                                   : units::Seconds{};
  rep.avg_power_w = t.value() > 0.0 ? units::to_joules(rep.energy_nj) / t
                                    : units::Watts{};
}

/// Runs a factorization graph to completion on the calling thread, in
/// topological order, and rolls its nodes up, in NodeId order, into a
/// report. `workers` (0: the hardware concurrency) only sets the makespan
/// figures: the W-worker list schedule of the executed node costs. A failed
/// node throws before the caller copies the factor out of the graph's
/// working matrix, so the caller's input is left as it was.
DriverReport run_graph(const fabric::Executor& ex, const arch::CoreConfig& cfg,
                       const sched::KernelGraph& graph, double useful, unsigned workers) {
  std::vector<fabric::KernelResult> nodes(graph.size());
  for (sched::NodeId id : graph.topo_order()) {
    sched::NodeRun run = sched::run_node(graph, id, ex);
    if (!run.result.ok)
      throw std::runtime_error("lap driver kernel failed: " + graph.name(id) + ": " +
                               run.result.error);
    nodes[id] = std::move(run.result);
  }

  DriverReport rep;
  for (const fabric::KernelResult& k : nodes) absorb(rep, k);
  finish(rep, cfg, useful);
  rep.graph_workers =
      workers > 0 ? workers : std::max(1u, std::thread::hardware_concurrency());
  rep.makespan_cycles = sched::list_makespan(graph, nodes, rep.graph_workers);
  rep.graph_speedup = rep.makespan_cycles.value() > 0.0
                          ? sched::serial_cycles(nodes) / rep.makespan_cycles
                          : 1.0;
  return rep;
}

/// (m n^2 - n^3 / 3) / nr^2: the useful MACs per PE that the LU and QR
/// drivers both charge for an m x n factorization.
double lu_qr_useful(index_t m, index_t n, int nr) {
  return (static_cast<double>(m) * n * n - static_cast<double>(n) * n * n / 3.0) /
         (nr * nr);
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
  finish(rep, cfg, static_cast<double>(m) * n * k / (nr * nr));
  return rep;
}

DriverReport lap_cholesky(const fabric::Executor& ex, const arch::CoreConfig& cfg,
                          double bw_words_per_cycle, index_t block, ViewD a,
                          unsigned workers) {
  const int nr = cfg.nr;
  const index_t n = a.rows();
  sched::FactorGraph fg =
      sched::build_cholesky_graph(cfg, bw_words_per_cycle, a, block);
  DriverReport rep = run_graph(
      ex, cfg, fg.graph, static_cast<double>(n) * n * n / 3.0 / 2.0 / (nr * nr), workers);
  sched::extract_lower(fg, a);
  return rep;
}

// LU and QR run their graphs at one column tile as wide as the matrix
// (at least nr, so an empty matrix builds an empty graph): each step is
// then one panel followed by whole-width trailing updates, a chain.

DriverReport lap_lu(const fabric::Executor& ex, const arch::CoreConfig& cfg,
                    double bw_words_per_cycle, ViewD a,
                    std::vector<index_t>& pivots) {
  const int nr = cfg.nr;
  const index_t m = a.rows();
  const index_t n = a.cols();
  sched::FactorGraph fg = sched::build_lu_graph(cfg, bw_words_per_cycle, a,
                                                std::max<index_t>(n, nr));
  DriverReport rep = run_graph(ex, cfg, fg.graph, lu_qr_useful(m, n, nr), 1);
  copy_into<double>(MatrixView<const double>(fg.work->view()), a);
  pivots = std::move(*fg.pivots);
  return rep;
}

DriverReport lap_qr(const fabric::Executor& ex, const arch::CoreConfig& cfg,
                    double bw_words_per_cycle, ViewD a, std::vector<double>& taus) {
  const int nr = cfg.nr;
  const index_t m = a.rows();
  const index_t n = a.cols();
  sched::FactorGraph fg = sched::build_qr_graph(cfg, bw_words_per_cycle, a,
                                                std::max<index_t>(n, nr));
  DriverReport rep = run_graph(ex, cfg, fg.graph, lu_qr_useful(m, n, nr), 1);
  copy_into<double>(MatrixView<const double>(fg.work->view()), a);
  taus = std::move(*fg.taus);
  return rep;
}

DriverReport lap_trmm(const fabric::Executor& ex, const arch::CoreConfig& cfg,
                      double bw_words_per_cycle, index_t block, ConstViewD l,
                      ViewD b) {
  const int nr = cfg.nr;
  const index_t m = b.rows();
  const index_t n = b.cols();
  assert(l.rows() == m && l.cols() == m && m % block == 0 && block % nr == 0);

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
  finish(rep, cfg, static_cast<double>(m) * (m + 1) / 2.0 * n / (nr * nr));
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
  finish(rep, cfg, static_cast<double>(m) * m * n / (cfg.nr * cfg.nr));
  return rep;
}

}  // namespace lac::blas
