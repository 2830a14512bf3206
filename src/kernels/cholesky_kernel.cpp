#include "kernels/cholesky_kernel.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

#include "sim/arena.hpp"

namespace lac::kernels {
namespace {

/// Run the nr x nr Cholesky recurrence on timed values held per-PE.
/// `av(r,c)` holds A(r,c) mirrored to both triangles. Returns the lower
/// factor values in place.
void chol_recurrence(sim::Core& core, std::vector<sim::TimedVal>& av) {
  const int nr = core.nr();
  auto at2 = [&](int r, int c) -> sim::TimedVal& {
    return av[static_cast<std::size_t>(r * nr + c)];
  };
  // Broadcast buffers hoisted out of the recurrence: entries i+1..nr-1 are
  // fully rewritten before every read, so one checkout serves all steps.
  sim::Scratch<sim::TimedVal> lcol(static_cast<std::size_t>(nr));
  sim::Scratch<sim::TimedVal> lrow(static_cast<std::size_t>(nr));
  for (int i = 0; i < nr; ++i) {
    // S1/S2: t = 1/sqrt(alpha_ii); l_ii = alpha_ii * t.
    sim::TimedVal alpha = at2(i, i);
    sim::TimedVal t = core.special(sim::SfuKind::Rsqrt, i, i, alpha);
    sim::TimedVal lii = core.pe(i, i).mac.mul(alpha, t);
    at2(i, i) = lii;
    // Broadcast t along row i and column i; scale the column below and the
    // mirrored row to the right of the diagonal.
    sim::TimedVal t_row = core.broadcast_row(i, t);
    sim::TimedVal t_col = core.broadcast_col(i, t);
    for (int k = i + 1; k < nr; ++k) {
      at2(k, i) = core.pe(k, i).mac.mul(at2(k, i), t_col);
      at2(i, k) = core.pe(i, k).mac.mul(at2(i, k), t_row);
    }
    // S3: rank-1 update of the trailing submatrix: the column factors are
    // broadcast along the rows (from PE(k,i)) and the mirrored row factors
    // down the columns (from PE(i,j)).
    for (int k = i + 1; k < nr; ++k) lcol[static_cast<std::size_t>(k)] = core.broadcast_row(k, at2(k, i));
    for (int j = i + 1; j < nr; ++j) lrow[static_cast<std::size_t>(j)] = core.broadcast_col(j, at2(i, j));
    for (int k = i + 1; k < nr; ++k)
      for (int j = i + 1; j < nr; ++j) {
        sim::TimedVal neg = lcol[static_cast<std::size_t>(k)];
        neg.v = -neg.v;
        at2(k, j) = core.pe(k, j).mac.fma(neg, lrow[static_cast<std::size_t>(j)], at2(k, j));
      }
  }
}

// ---- closing the trailing update --------------------------------------------
//
// Iteration d's trailing update runs pairs k = 0, 1, ... of blocks (bi, bj),
// d < bj <= bi, in order. Step p of pair k (global step g = k nr + p)
// broadcasts L(bi nr + r, d nr + p) on row bus r and L(bj nr + c, d nr + p)
// on column bus c, and PE (r, c) issues one general FMA on element
// (bi nr + r, bj nr + c) with both words. Each step's FMA consumes the one
// before it, so a pair is a chain of nr FMAs per PE. Write L for the bus
// latency, X = (nr - 1) depth + 1 (MacPipeline::chain_period), off(g) =
// k X + p depth, and T for PE (r, c)'s issue-port next-free time at pair
// boundary k0 (step g0 = k0 nr). The PE is *regular* there when
//   (1) row bus r and column bus c are both free by T - L,
//   (2) every word either bus has left to carry is ready, plus L, by
//       T + off(g) - off(g0) at its step g, and
//   (3) every element a pair k >= k0 reads is ready by T + (k - k0) X.
// A bus slot starts at the later of its word's ready time and one cycle
// after the slot before, so slot g starts by the later of the bus's free
// time plus g - g0 and some word's ready time plus the steps since that
// word's; issue times grow by at least a cycle per step, so by (1) and (2)
// every broadcast arrives by its FMA's issue time below. With (3) each
// chain then issues when the port frees and each later FMA when its
// predecessor's result is ready: pair k issues from T + (k - k0) X, depth
// cycles apart, and its result is ready nr depth cycles after its first
// issue (MacPipeline::fma_chains_run and chain_ready). (2) is a suffix
// maximum of ready time minus off(g) per bus, computed once per iteration;
// (3) is checked element by element. Once every PE has closed, the buses
// close too: the slots from g0 on leave what Resource::acquire_run leaves
// from the greatest of their words' ready(g) - (g - g0). As for rank-1
// rows, every time summed must lie on the grid of sim::on_grid, and a
// word whose time is off it counts as never ready.

/// Iterations with fewer pairs just step: a PE seldom closes before its
/// first pair, and setting up the close costs more than stepping a pair.
constexpr index_t kMinClosePairs = 2;

/// Close every bus's slots from pair (bi0, bj0) of iteration d on, once
/// every PE has closed (the argument above): each bus's run starts no
/// earlier than the greatest of its words' ready(g) - (g - g0), where
/// `word_bus[i]` is trailing row i's greatest panel ready time minus its
/// step. A word carried again later only lowers that, so each block row's
/// words count at their first slot from g0 on. `earliest` holds 2 nr
/// scratch words. Closes nothing and returns false when a time is off the
/// grid.
bool close_buses(sim::Core& core, const double* word_bus, double* earliest, index_t kb,
                 index_t d, index_t bi0, index_t bj0) {
  const int nr = core.nr();
  double* row = earliest;       // row bus i's at row[i]
  double* col = earliest + nr;  // column bus i's at col[i]
  std::fill_n(earliest, 2 * nr, -std::numeric_limits<double>::infinity());
  // Block row b's words at j pairs past (bi0, bj0).
  const auto count_at = [&](double* bus, index_t b, index_t j) {
    const double* words = word_bus + (b - d - 1) * nr;
    const double off = static_cast<double>(j * nr);
    for (int i = 0; i < nr; ++i) bus[i] = std::max(bus[i], words[i] - off);
  };
  index_t j = 0;  // pairs from (bi0, bj0) to block row bi's first pair left
  for (index_t bi = bi0; bi < kb; ++bi) {
    const index_t first_bj = bi == bi0 ? bj0 : d + 1;
    count_at(row, bi, j);
    // Column words first carried in block row bi: bj0..bi0 in the first,
    // the rest of the first's and bi0 + 1 in the next, then bi alone.
    if (bi == bi0) {
      for (index_t bj = bj0; bj <= bi; ++bj) count_at(col, bj, j + bj - first_bj);
    } else if (bi == bi0 + 1) {
      for (index_t bj = d + 1; bj < bj0; ++bj) count_at(col, bj, j + bj - first_bj);
      count_at(col, bi, j + bi - first_bj);
    } else {
      count_at(col, bi, j + bi - first_bj);
    }
    j += bi - first_bj + 1;
  }
  const index_t count = j * nr;
  const auto fits = [&](const sim::Resource& bus, double e) {
    return bus.on_grid() && sim::on_grid(std::max(e, bus.next_free()) + count);
  };
  for (int i = 0; i < nr; ++i)
    if (!fits(core.row_bus(i), row[i]) || !fits(core.col_bus(i), col[i])) return false;
  for (int i = 0; i < nr; ++i) {
    core.broadcast_row_run(i, count, row[i]);
    core.broadcast_col_run(i, count, col[i]);
  }
  return true;
}

/// One block's FMA chains: x[r nr + c] = fma(a[p nr + r], b[p nr + c],
/// x[r nr + c]) for p = 0, 1, ..., nr - 1 in turn (a: the rows' words, b:
/// the columns', each step-major). A function of its own, small enough for
/// the compiler to vectorize across the columns in the FMA clone.
LAC_FMA_CLONES void block_chains(const double* __restrict a, const double* __restrict b,
                                 double* __restrict x, int nr) {
  for (int p = 0; p < nr; ++p)
    for (int r = 0; r < nr; ++r) {
      const double row_word = a[p * nr + r];
      const double* col_words = b + p * nr;
      double* xr = x + r * nr;
      for (int c = 0; c < nr; ++c) xr[c] = std::fma(row_word, col_words[c], xr[c]);
    }
}

}  // namespace

LAC_FMA_CLONES void chol_trailing_update(sim::Core& core, std::vector<sim::TimedVal>& lattice,
                                         index_t n, index_t d) {
  const int nr = core.nr();
  const index_t kb = n / nr;
  const index_t m = kb - d - 1;  // trailing block rows
  if (m < 1) return;
  const index_t pairs = m * (m + 1) / 2;
  const std::size_t unr = static_cast<std::size_t>(nr);
  const std::size_t pes = unr * unr;
  const std::size_t rows = static_cast<std::size_t>(m) * unr;  // trailing rows
  auto at2 = [&](index_t r, index_t c) -> sim::TimedVal& {
    return lattice[static_cast<std::size_t>(r * n + c)];
  };
  const sim::time_t_ latency = core.config().bus_latency;
  const sim::MacPipeline& mac0 = core.pe(0, 0).mac;
  const sim::time_t_ depth = mac0.depth();
  const sim::time_t_ period = mac0.chain_period(nr);
  const bool closable = pairs >= kMinClosePairs && sim::on_grid(latency);
  constexpr double kNever = std::numeric_limits<double>::infinity();

  // One scratch block: the panel's words (step-major per block row: block
  // b's word of row r at step p at [((b - d - 1) nr + p) nr + r]) as the
  // columns and, negated, as the rows use them; per trailing row the
  // greatest ready time minus its issue offset within a pair (for the PEs)
  // and minus its step (for the buses); condition (2) at each pair
  // boundary k (row bus r's at [k 2nr + r], column bus c's at
  // [k 2nr + nr + c], boundary `pairs` empty); and per PE its first closed
  // issue, its next closed result's ready time, a value tile and the bound
  // condition (3) holds its elements to.
  // The rows' words are negated through sim::negated: a negation the
  // compiler can see in an std::fma operand may fold into the FMA clone's
  // arithmetic (see LAC_FMA_CLONES).
  const std::size_t slack_words = closable ? (static_cast<std::size_t>(pairs) + 1) * 2 * unr : 0;
  sim::Scratch<double> work(2 * rows * unr + 2 * rows + slack_words + 4 * pes + 2 * unr);
  double* panel = &work[0];
  double* neg_panel = panel + rows * unr;
  double* word_pe = neg_panel + rows * unr;
  double* word_bus = word_pe + rows;
  double* bus_slack = word_bus + rows;
  double* first = bus_slack + slack_words;
  double* ready = first + pes;
  double* tile = ready + pes;
  double* bound = tile + pes;
  double* bus_scratch = bound + pes;
  for (std::size_t i = 0; i < rows; ++i) {
    double pe_term = -kNever;
    double bus_term = -kNever;
    for (int p = 0; p < nr; ++p) {
      const sim::TimedVal& w = at2((d + 1) * nr + static_cast<index_t>(i), d * nr + p);
      const std::size_t at = (i - i % unr + static_cast<std::size_t>(p)) * unr + i % unr;
      panel[at] = w.v;
      neg_panel[at] = sim::negated(w.v);
      const bool exact = sim::on_grid(w.ready);
      pe_term = std::max(pe_term, exact ? w.ready - p * depth : kNever);
      bus_term = std::max(bus_term, exact ? w.ready - p : kNever);
    }
    word_pe[i] = pe_term;
    word_bus[i] = bus_term;
  }
  if (closable) {
    std::fill_n(bus_slack + pairs * 2 * nr, 2 * nr, -kNever);
    index_t k = pairs;
    for (index_t bi = kb - 1; bi > d; --bi)
      for (index_t bj = bi; bj > d; --bj) {
        --k;
        const double off = static_cast<double>(k) * period;
        double* at = bus_slack + k * 2 * nr;
        const double* row_words = word_pe + (bi - d - 1) * nr;
        const double* col_words = word_pe + (bj - d - 1) * nr;
        for (int i = 0; i < nr; ++i) {
          at[i] = std::max(at[2 * nr + i], row_words[i] - off);
          at[nr + i] = std::max(at[3 * nr + i], col_words[i] - off);
        }
      }
  }
  // Condition (3) from pair (bi0, bj0) on for every PE with bound[pe] set
  // (its issue-port free time; -infinity: not a candidate), one block at a
  // time: a PE whose element is late drops out.
  const auto elements_ready = [&](index_t bi0, index_t bj0, std::size_t candidates) {
    for (index_t bi = bi0; bi < kb && candidates > 0; ++bi)
      for (index_t bj = bi == bi0 ? bj0 : d + 1; bj <= bi && candidates > 0; ++bj)
        for (int r = 0; r < nr; ++r) {
          const sim::TimedVal* e = &at2(bi * nr + r, bj * nr);
          for (int c = 0; c < nr; ++c) {
            double& t = bound[r * nr + c];
            if (!(e[c].ready <= t)) {
              if (t != -kNever) --candidates;
              t = -kNever;
            } else {
              t += period;
            }
          }
        }
  };

  // Step-major, as the hardware runs it, closing each PE once regular;
  // closed_at[r nr + c] is the pair PE (r, c) closed at (`pairs`: never).
  sim::Scratch<index_t> closed_at(pes);
  std::fill_n(&closed_at[0], pes, pairs);
  sim::Scratch<sim::TimedVal> bcast(2 * unr);  // row buses' words, then columns'
  std::size_t open = closable ? pes : 0;       // PEs that may still close
  bool buses_closed = false;
  index_t k = 0;
  for (index_t bi = d + 1; bi < kb && !buses_closed; ++bi)
    for (index_t bj = d + 1; bj <= bi; ++bj, ++k) {
      if (open > 0) {
        // Conditions (1), (2) and the grid per open PE, then (3) for every
        // PE still a candidate.
        const double* at = bus_slack + k * 2 * nr;
        const double off = static_cast<double>(k) * period;
        std::size_t candidates = 0;
        for (int r = 0; r < nr; ++r)
          for (int c = 0; c < nr; ++c) {
            const std::size_t pe = static_cast<std::size_t>(r * nr + c);
            const sim::MacPipeline& mac = core.pe(r, c).mac;
            const sim::time_t_ t = mac.issue_port_free();
            const sim::time_t_ row_free = core.row_bus(r).next_free();
            const sim::time_t_ col_free = core.col_bus(c).next_free();
            const bool candidate =
                closed_at[pe] == pairs && row_free + latency <= t && col_free + latency <= t &&
                at[r] + latency <= t - off && at[nr + c] + latency <= t - off &&
                mac.on_grid() && sim::on_grid(t + static_cast<double>(pairs - k) * period) &&
                sim::on_grid(row_free) && sim::on_grid(col_free);
            bound[pe] = candidate ? t : -kNever;
            candidates += candidate;
          }
        elements_ready(bi, bj, candidates);
        for (std::size_t pe = 0; pe < pes; ++pe) {
          if (bound[pe] == -kNever) continue;
          first[pe] = core.pe(static_cast<int>(pe / unr), static_cast<int>(pe % unr))
                          .mac.fma_chains_run(pairs - k, nr);
          closed_at[pe] = k;
          --open;
        }
        if (open == 0) {
          buses_closed = close_buses(core, word_bus, bus_scratch, kb, d, bi, bj);
          if (buses_closed) break;
        }
      }
      for (int p = 0; p < nr; ++p) {
        for (int i = 0; i < nr; ++i) {
          bcast[static_cast<std::size_t>(i)] = core.broadcast_row(i, at2(bi * nr + i, d * nr + p));
          bcast[unr + static_cast<std::size_t>(i)] =
              core.broadcast_col(i, at2(bj * nr + i, d * nr + p));
        }
        const double* neg_words = neg_panel + ((bi - d - 1) * nr + p) * nr;
        for (int r = 0; r < nr; ++r)
          for (int c = 0; c < nr; ++c) {
            if (closed_at[static_cast<std::size_t>(r * nr + c)] <= k) continue;
            const sim::TimedVal neg{neg_words[r], bcast[static_cast<std::size_t>(r)].ready};
            at2(bi * nr + r, bj * nr + c) = core.pe(r, c).mac.fma(
                neg, bcast[unr + static_cast<std::size_t>(c)], at2(bi * nr + r, bj * nr + c));
          }
      }
    }

  // Values of the closed pairs, a block at a time, with the stepping loop's
  // fused multiply-adds in step order; each PE's next result is ready one
  // chain period after its last.
  const index_t first_closed = *std::min_element(&closed_at[0], &closed_at[0] + pes);
  if (first_closed == pairs) return;
  for (std::size_t pe = 0; pe < pes; ++pe)
    if (closed_at[pe] < pairs)
      ready[pe] = core.pe(static_cast<int>(pe / unr), static_cast<int>(pe % unr))
                      .mac.chain_ready(first[pe], nr);
  k = 0;
  for (index_t bi = d + 1; bi < kb; ++bi)
    for (index_t bj = d + 1; bj <= bi; ++bj, ++k) {
      if (k < first_closed) continue;
      const double* a = neg_panel + (bi - d - 1) * nr * nr;  // step p's words at [p nr]
      const double* b = panel + (bj - d - 1) * nr * nr;
      for (int r = 0; r < nr; ++r)
        for (int c = 0; c < nr; ++c) tile[r * nr + c] = at2(bi * nr + r, bj * nr + c).v;
      block_chains(a, b, tile, nr);
      for (int r = 0; r < nr; ++r)
        for (int c = 0; c < nr; ++c) {
          const std::size_t pe = static_cast<std::size_t>(r * nr + c);
          if (k < closed_at[pe]) continue;
          at2(bi * nr + r, bj * nr + c) = {tile[pe], ready[pe]};
          ready[pe] += period;
        }
    }
}

KernelResult cholesky_inner(const arch::CoreConfig& cfg, ConstViewD a) {
  const int nr = cfg.nr;
  assert(a.rows() == nr && a.cols() == nr);
  sim::ArenaCore arena(cfg, 1e9, 1);
  sim::Core& core = arena.get();
  std::vector<sim::TimedVal> av(static_cast<std::size_t>(nr * nr));
  for (int r = 0; r < nr; ++r)
    for (int c = 0; c < nr; ++c)
      // Mirror: use the lower-triangle value for both (the mapping keeps an
      // upper copy to simplify the rank-1 broadcasts, §6.1.1).
      av[static_cast<std::size_t>(r * nr + c)] = sim::at(r >= c ? a(r, c) : a(c, r), 0.0);

  chol_recurrence(core, av);

  KernelResult res;
  res.out = MatrixD(nr, nr, 0.0);
  double finish = 0.0;
  for (int r = 0; r < nr; ++r)
    for (int c = 0; c <= r; ++c) {
      const sim::TimedVal& v = av[static_cast<std::size_t>(r * nr + c)];
      res.out(r, c) = v.v;
      finish = std::max(finish, v.ready);
    }
  res.cycles = units::Cycles(std::max(finish, core.finish_time()));
  res.stats = core.stats();
  const double useful = nr * nr * nr / 3.0;
  res.utilization = useful / (res.cycles.value() * nr * nr);
  return res;
}

KernelResult cholesky_core(const arch::CoreConfig& cfg, double bw_words_per_cycle,
                           ConstViewD a) {
  // Blocked right-looking Cholesky with all data on-core. Diagonal blocks
  // use the inner kernel; the panel solve and trailing update re-run the
  // same timed recurrences per block (TRSM w/ L11^T, then SYRK).
  const int nr = cfg.nr;
  const index_t n = a.rows();
  assert(n % nr == 0 && a.cols() == n);
  const index_t kb = n / nr;

  sim::ArenaCore arena(cfg, bw_words_per_cycle, 2);
  sim::Core& core = arena.get();
  const sim::time_t_ load_done =
      core.dma(static_cast<double>(n) * (n + 1) / 2, 0.0);

  // Timed value lattice for the whole matrix (kb*kb blocks of nr x nr):
  // the lower triangle and, mirrored, the upper triangles of the diagonal
  // blocks, the only upper words ever read (see the mirror copy below).
  sim::Scratch<sim::TimedVal> tv(static_cast<std::size_t>(n * n));
  auto at2 = [&](index_t r, index_t c) -> sim::TimedVal& {
    return tv[static_cast<std::size_t>(r * n + c)];
  };
  for (index_t r = 0; r < n; ++r)
    for (index_t c = 0; c < (r / nr + 1) * nr; ++c)
      at2(r, c) = sim::at(r >= c ? a(r, c) : a(c, r), load_done);

  // Diagonal-block buffer hoisted out of the factorization loop: every
  // entry is rewritten before it is read in each use.
  sim::Scratch<sim::TimedVal> diag(static_cast<std::size_t>(nr * nr));
  for (index_t d = 0; d < kb; ++d) {
    // Diagonal block factorization (values already timed in the lattice).
    for (int r = 0; r < nr; ++r)
      for (int c = 0; c < nr; ++c)
        diag[static_cast<std::size_t>(r * nr + c)] = at2(d * nr + r, d * nr + c);
    chol_recurrence(core, diag.vec());
    for (int r = 0; r < nr; ++r)
      for (int c = 0; c < nr; ++c) at2(d * nr + r, d * nr + c) = diag[static_cast<std::size_t>(r * nr + c)];

    // Panel solve: L21 = A21 * L11^{-T} via column-wise substitution.
    for (index_t bi = d + 1; bi < kb; ++bi) {
      for (int j = 0; j < nr; ++j) {
        sim::TimedVal ljj = at2(d * nr + j, d * nr + j);
        sim::TimedVal inv = core.special(sim::SfuKind::Recip, j, j, ljj);
        sim::TimedVal inv_b = core.broadcast_col(j, inv);
        for (int r = 0; r < nr; ++r) {
          sim::TimedVal cur = at2(bi * nr + r, d * nr + j);
          at2(bi * nr + r, d * nr + j) = core.pe(r, j).mac.mul(cur, inv_b);
        }
        for (int j2 = j + 1; j2 < nr; ++j2) {
          sim::TimedVal ljk = core.broadcast_col(j2, at2(d * nr + j2, d * nr + j));
          for (int r = 0; r < nr; ++r) {
            sim::TimedVal neg = at2(bi * nr + r, d * nr + j);
            sim::TimedVal prod = core.pe(r, j2).mac.mul(neg, ljk);
            prod.v = -prod.v;
            at2(bi * nr + r, d * nr + j2) =
                core.pe(r, j2).mac.add(at2(bi * nr + r, d * nr + j2), prod);
          }
        }
      }
    }

    // Trailing SYRK update: A22 -= L21 * L21^T (block rank-nr updates).
    chol_trailing_update(core, tv.vec(), n, d);
    // Keep the mirrored upper copy of the diagonal blocks still to come:
    // their factorization and the trailing updates' diagonal blocks are the
    // only readers of an upper word (the outputs read the lower triangle).
    for (index_t e = d + 1; e < kb; ++e)
      for (int r = 0; r < nr; ++r)
        for (int c = r + 1; c < nr; ++c) at2(e * nr + r, e * nr + c) = at2(e * nr + c, e * nr + r);
  }

  KernelResult res;
  res.out = MatrixD(n, n, 0.0);
  double finish = load_done;
  for (index_t r = 0; r < n; ++r)
    for (index_t c = 0; c <= r; ++c) {
      res.out(r, c) = at2(r, c).v;
      finish = std::max(finish, at2(r, c).ready);
    }
  const sim::time_t_ store_done = core.dma(static_cast<double>(n) * (n + 1) / 2, finish);
  res.cycles = units::Cycles(std::max(store_done, core.finish_time()));
  res.stats = core.stats();
  const double useful = static_cast<double>(n) * n * n / 3.0 / 2.0;  // MACs
  res.utilization = useful / (res.cycles.value() * nr * nr);
  return res;
}

}  // namespace lac::kernels
