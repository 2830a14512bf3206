#include "kernels/trsm_kernel.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "fabric/stream_schedule.hpp"
#include "sim/arena.hpp"

namespace lac::kernels {

using fabric::StreamSchedule;

namespace {

/// Solve one batch of nr x nr TRSMs whose B blocks live in `x` (a matrix of
/// nr rows and `cols` columns, block t occupying columns t*nr..t*nr+nr-1).
/// Values of block column j are held by PE column j % nr; the batch order
/// determines how the pipeline fills. Returns the makespan contribution.
struct TrsmState {
  std::vector<sim::TimedVal> x;  ///< element (i, j) at i + j*nr
  sim::TimedVal& at(index_t i, index_t j, int nr) {
    return x[static_cast<std::size_t>(i + j * nr)];
  }
};

void trsm_batch(sim::Core& core, ConstViewD l, TrsmState& st, index_t cols,
                const std::vector<index_t>& order) {
  // `order` lists block indices; per triangular iteration i we sweep the
  // blocks in that order, so independent blocks fill the pipeline slots
  // (stacked TRSM) and groups overlap scale/update (software pipelining).
  const int nr = core.nr();
  // Scale/broadcast buffers hoisted out of the sweep loops (entries for
  // live columns are rewritten before every read).
  sim::Scratch<sim::TimedVal> xi(static_cast<std::size_t>(nr));
  sim::Scratch<sim::TimedVal> xc(static_cast<std::size_t>(nr));
  for (int i = 0; i < nr; ++i) {
    // S1/S2: reciprocal of lambda_ii, broadcast along row i.
    sim::TimedVal lii = core.pe(i, i).rf.read(0, 0.0);
    lii.v = l(i, i);
    sim::TimedVal inv = core.special(sim::SfuKind::Recip, i, i, lii);
    sim::TimedVal inv_b = core.broadcast_row(i, inv);

    for (index_t t : order) {
      // Scale row i of block t: x(i, :) *= inv.
      for (int j = 0; j < nr; ++j) {
        const index_t col = t * nr + j;
        if (col >= cols) continue;
        sim::Pe& pe = core.pe(i, j);
        sim::TimedVal scaled = pe.mac.mul(st.at(i, col, nr), inv_b);
        st.at(i, col, nr) = scaled;
        xi[static_cast<std::size_t>(j)] = scaled;
      }
      // S3: broadcast x(i,:) down the columns and l(k,i) along the rows;
      // rank-1 subtract from the remaining rows.
      for (int j = 0; j < nr; ++j) {
        const index_t col = t * nr + j;
        if (col >= cols) continue;
        xc[static_cast<std::size_t>(j)] = core.broadcast_col(j, xi[static_cast<std::size_t>(j)]);
      }
      for (int k = i + 1; k < nr; ++k) {
        sim::TimedVal lki = core.broadcast_row(k, sim::at(l(k, i), xc[0].ready - 1.0));
        for (int j = 0; j < nr; ++j) {
          const index_t col = t * nr + j;
          if (col >= cols) continue;
          sim::Pe& pe = core.pe(k, j);
          sim::TimedVal cur = st.at(k, col, nr);
          sim::TimedVal upd = pe.mac.fma(sim::at(-lki.v, lki.ready),
                                         xc[static_cast<std::size_t>(j)], cur);
          st.at(k, col, nr) = upd;
        }
      }
    }
  }
}

}  // namespace

KernelResult trsm_inner(const arch::CoreConfig& cfg, TrsmVariant variant,
                        ConstViewD l, ConstViewD b, int g) {
  const int nr = cfg.nr;
  const int p = cfg.pe.pipeline_stages;
  assert(l.rows() == nr && l.cols() == nr);
  const index_t cols = b.cols();
  index_t expected = nr;
  if (variant == TrsmVariant::Stacked) expected = static_cast<index_t>(p) * nr;
  if (variant == TrsmVariant::SoftwarePipelined)
    expected = static_cast<index_t>(g) * p * nr;
  assert(cols == expected && b.rows() == nr);
  (void)expected;

  sim::ArenaCore arena(cfg, 1e9, 1);
  sim::Core& core = arena.get();
  TrsmState st;
  st.x.resize(static_cast<std::size_t>(nr * cols));
  for (index_t j = 0; j < cols; ++j)
    for (int i = 0; i < nr; ++i) st.at(i, j, nr) = sim::at(b(i, j), 0.0);

  std::vector<index_t> order;
  const index_t blocks = cols / nr;
  for (index_t t = 0; t < blocks; ++t) order.push_back(t);
  trsm_batch(core, l, st, cols, order);

  KernelResult res;
  res.out = MatrixD(nr, cols);
  double finish = 0.0;
  for (index_t j = 0; j < cols; ++j)
    for (int i = 0; i < nr; ++i) {
      res.out(i, j) = st.at(i, j, nr).v;
      finish = std::max(finish, st.at(i, j, nr).ready);
    }
  res.cycles = units::Cycles(std::max(finish, core.finish_time()));
  res.stats = core.stats();
  // Useful flops: nr^2 * cols MAC-equivalents for the full solve.
  res.utilization = static_cast<double>(nr) * nr * cols / 2.0 /
                    (res.cycles.value() * nr * nr);
  return res;
}

KernelResult trsm_core(const arch::CoreConfig& cfg, double bw_words_per_cycle,
                       ConstViewD l, ConstViewD b) {
  const int nr = cfg.nr;
  const index_t n = l.rows();
  const index_t m = b.cols();
  assert(n % nr == 0 && m % nr == 0 && b.rows() == n);
  const index_t kb = n / nr;

  sim::ArenaCore arena(cfg, bw_words_per_cycle, 2);
  sim::Core& core = arena.get();
  StreamSchedule sched(core);
  // L resident in MEM-A (lower triangle only).
  sched.stage_resident_lower(l);

  // X rows computed so far, staged per block row in MEM-B (replicated) so
  // the GEMM updates can stream them as the "B" operand: as many nr-word
  // panels per sweep as MEM-B holds (at least one; a MEM-B below nr words
  // overruns and fails the run in-band).
  const index_t panels_per_sweep =
      std::max<index_t>(1, core.pe(0, 0).mem_b.size() / nr);
  KernelResult res;
  res.out = to_matrix<double>(b);
  sim::time_t_ finish = sched.cursor();
  int parity = 0;

  // Per-block working set hoisted out of the (i, jb) loops; every entry
  // read in an iteration is rewritten first (lii: only the lower triangle
  // is ever read by trsm_batch, and it is refilled per block).
  MatrixD bi(nr, nr);
  MatrixD lii(nr, nr, 0.0);
  TrsmState st;
  st.x.resize(static_cast<std::size_t>(nr * nr));
  const std::vector<index_t> order{0};

  for (index_t i = 0; i < kb; ++i) {
    // (1) GEMM update: B_i -= sum_{l<i} L(i,l) * X_l. Row panel i of B is
    // streamed into accumulators block by block along the m columns.
    for (index_t jb = 0; jb < m / nr; ++jb) {
      const sim::time_t_ c_in_done = sched.dma(static_cast<double>(nr) * nr);
      sched.load_accumulators(parity, c_in_done, [&](int r, int c) {
        return res.out(i * nr + r, jb * nr + c);
      });
      // One negated sweep over p in [0, i * nr), X_lb at MEM-B slot
      // lb * nr -- split into sweeps of panels_per_sweep panels when MEM-B
      // holds fewer than i * nr words. A sweep per panel would time the
      // same: the sweeps share the gate and every resource, and nothing
      // between them touches one (pokes are untimed, the DMA uses only the
      // memory interface). Long sweeps let rank1_update close their rows.
      for (index_t lb0 = 0; lb0 < i; lb0 += panels_per_sweep) {
        const index_t lb1 = std::min(i, lb0 + panels_per_sweep);
        // X_lb0..X_lb1-1 must be on chip: stream them into MEM-B, charged
        // panel by panel once per (i, jb, lb) use (the blocked algorithm
        // re-reads streamed X).
        sched.stage_panel_b(0, (lb1 - lb0) * nr, [&](index_t p, int c) {
          return res.out(lb0 * nr + p, jb * nr + c);
        });
        for (index_t lb = lb0; lb < lb1; ++lb) sched.dma(static_cast<double>(nr) * nr);
        sched.rank1_update(parity, 0, n, i * nr, lb0 * nr, lb1 * nr, 0, c_in_done,
                           /*negate=*/true);
      }
      // (2) Triangular solve of the updated diagonal row panel.
      const sim::time_t_ upd_ready =
          sched.drain_accumulators(parity, [&](int r, int c, double v) {
            bi(r, c) = v;
          });
      for (int r = 0; r < nr; ++r)
        for (int c = 0; c <= r; ++c) lii(r, c) = l(i * nr + r, i * nr + c);
      for (int c = 0; c < nr; ++c)
        for (int r = 0; r < nr; ++r) st.at(r, c, nr) = sim::at(bi(r, c), upd_ready);
      trsm_batch(core, lii.view(), st, nr, order);
      sim::time_t_ solved = 0.0;
      for (int c = 0; c < nr; ++c)
        for (int r = 0; r < nr; ++r) {
          res.out(i * nr + r, jb * nr + c) = st.at(r, c, nr).v;
          solved = std::max(solved, st.at(r, c, nr).ready);
        }
      finish = std::max(finish,
                        sched.dma_after(static_cast<double>(nr) * nr, solved));
      parity ^= 1;
    }
  }

  res.cycles = units::Cycles(std::max(finish, core.finish_time()));
  res.stats = core.stats();
  const double useful = static_cast<double>(n) * n / 2.0 * m / nr / nr;
  res.utilization = useful / res.cycles.value();
  return res;
}

}  // namespace lac::kernels
