#include "sched/graph_builders.hpp"

#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

namespace lac::sched {
namespace {

constexpr NodeId kNone = static_cast<NodeId>(-1);

std::string tile_name(const char* op, index_t i, index_t j, index_t k) {
  std::string s(op);
  s += '(';
  s += std::to_string(i);
  s += ',';
  s += std::to_string(j);
  s += ",k=";
  s += std::to_string(k);
  s += ')';
  return s;
}

/// Throws std::invalid_argument naming the builder, the shape and what it
/// needs, unless `ok`.
void require_shape(bool ok, const char* builder, index_t m, index_t n, index_t block,
                   int nr, const char* needs) {
  if (ok) return;
  throw std::invalid_argument(std::string(builder) + ": " + std::to_string(m) + "x" +
                              std::to_string(n) + " with block " + std::to_string(block) +
                              " on nr " + std::to_string(nr) + " needs " + needs);
}

/// LU's and QR's shape: m >= n, both multiples of nr, and a positive
/// block that is one too.
void require_panel_shape(const char* builder, index_t m, index_t n, index_t block,
                         int nr) {
  require_shape(nr > 0 && m % nr == 0 && n % nr == 0 && m >= n && block > 0 &&
                    block % nr == 0,
                builder, m, n, block, nr,
                "m >= n, m and n multiples of nr, block > 0 and block % nr == 0");
}

/// Adds `dep` to `deps` unless unset; the graph coalesces duplicates.
void dep(KernelGraph& g, NodeId from, NodeId to) {
  if (from != kNone) g.add_edge(from, to);
}

/// Tile (i, j, m x n) of the working matrix as a fresh immutable payload:
/// the one copy a node's request makes of the shared state.
fabric::SharedMatrix snapshot(const MatrixD& w, index_t i, index_t j, index_t m,
                              index_t n) {
  return to_matrix<double>(w.block(i, j, m, n));
}

}  // namespace

FactorGraph build_cholesky_graph(const arch::CoreConfig& cfg,
                                 double bw_words_per_cycle, ConstViewD a,
                                 index_t block) {
  const index_t n = a.rows();
  require_shape(cfg.nr > 0 && a.cols() == n && block > 0 && n % block == 0 &&
                    block % cfg.nr == 0,
                "build_cholesky_graph", n, a.cols(), block, cfg.nr,
                "a square matrix, block > 0, n % block == 0 and block % nr == 0");
  const double bw = bw_words_per_cycle;
  const index_t nt = n / block;

  FactorGraph fg;
  fg.block = block;
  fg.work = std::make_shared<MatrixD>(to_matrix<double>(a));
  std::shared_ptr<MatrixD> w = fg.work;
  KernelGraph& g = fg.graph;
  // Node count from the header; a node has at most three edges (GEMM's).
  const std::size_t t = static_cast<std::size_t>(nt);
  const std::size_t nodes = t + t * (t - 1) + t * (t - 1) * (t - 2) / 6;
  g.reserve(nodes, 3 * nodes);

  // Last writer of each (row, col) tile of the lower triangle; every
  // conflicting access is ordered through this map, which is what makes
  // the factor byte-identical for any worker count.
  std::vector<std::vector<NodeId>> last(static_cast<std::size_t>(nt),
                                        std::vector<NodeId>(static_cast<std::size_t>(nt), kNone));
  auto lw = [&](index_t i, index_t j) -> NodeId& {
    return last[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
  };

  for (index_t k = 0; k < nt; ++k) {
    const index_t kb = k * block;
    // POTRF: Cholesky of the diagonal tile on the fabric.
    const NodeId potrf = g.add_node(
        [w, cfg, bw, kb, block] {
          return fabric::make_cholesky(cfg, bw, snapshot(*w, kb, kb, block, block));
        },
        tile_name("potrf", k, k, k),
        [w, kb, block](const fabric::KernelResult& r) {
          for (index_t j = 0; j < block; ++j)
            for (index_t i = 0; i < block; ++i)
              (*w)(kb + i, kb + j) = i >= j ? r.out(i, j) : 0.0;
        });
    dep(g, lw(k, k), potrf);
    lw(k, k) = potrf;

    // TRSM panel: A(i,k) := A(i,k) * L(k,k)^{-T}, one tile per node.
    for (index_t i = k + 1; i < nt; ++i) {
      const index_t ib = i * block;
      const NodeId trsm = g.add_node(
          [w, cfg, bw, ib, kb, block] {
            return fabric::make_trsm(cfg, bw, snapshot(*w, kb, kb, block, block),
                                     transpose(w->block(ib, kb, block, block)));
          },
          tile_name("trsm", i, k, k),
          [w, ib, kb, block](const fabric::KernelResult& r) {
            for (index_t j = 0; j < block; ++j)
              for (index_t c = 0; c < block; ++c)
                (*w)(ib + c, kb + j) = r.out(j, c);
          });
      g.add_edge(potrf, trsm);
      dep(g, lw(i, k), trsm);
      lw(i, k) = trsm;
    }

    // Trailing update A(i,j) -= L(i,k) * L(j,k)^T: SYRK on the diagonal
    // tiles, GEMM on the off-diagonal ones.
    for (index_t j = k + 1; j < nt; ++j) {
      const index_t jb = j * block;
      for (index_t i = j; i < nt; ++i) {
        const index_t ib = i * block;
        NodeId upd;
        if (i == j) {
          // SYRK computes C + A A^T; the commit folds the sign by writing
          // 2*C_in - result (the work tile still holds C_in at commit
          // time).
          upd = g.add_node(
              [w, cfg, bw, ib, kb, block] {
                return fabric::make_syrk(cfg, bw, snapshot(*w, ib, kb, block, block),
                                         snapshot(*w, ib, ib, block, block));
              },
              tile_name("syrk", i, j, k),
              [w, ib, block](const fabric::KernelResult& r) {
                for (index_t c = 0; c < block; ++c)
                  for (index_t rr = c; rr < block; ++rr)
                    (*w)(ib + rr, ib + c) = 2.0 * (*w)(ib + rr, ib + c) - r.out(rr, c);
              });
        } else {
          // GEMM with the A operand negated: C + (-L(i,k)) * L(j,k)^T.
          upd = g.add_node(
              [w, cfg, bw, ib, jb, kb, block] {
                MatrixD neg(block, block, 0.0);
                for (index_t c = 0; c < block; ++c)
                  for (index_t rr = 0; rr < block; ++rr)
                    neg(rr, c) = -(*w)(ib + rr, kb + c);
                return fabric::make_gemm(cfg, bw, std::move(neg),
                                         transpose(w->block(jb, kb, block, block)),
                                         snapshot(*w, ib, jb, block, block));
              },
              tile_name("gemm", i, j, k),
              [w, ib, jb, block](const fabric::KernelResult& r) {
                for (index_t c = 0; c < block; ++c)
                  for (index_t rr = 0; rr < block; ++rr)
                    (*w)(ib + rr, jb + c) = r.out(rr, c);
              });
          dep(g, lw(j, k), upd);  // reads L(j,k)
        }
        dep(g, lw(i, k), upd);  // reads L(i,k)
        dep(g, lw(i, j), upd);  // read-modify-writes A(i,j)
        lw(i, j) = upd;
      }
    }
  }
  return fg;
}

FactorGraph build_lu_graph(const arch::CoreConfig& cfg,
                           double bw_words_per_cycle, ConstViewD a,
                           index_t block) {
  const int nr = cfg.nr;
  const index_t m = a.rows();
  const index_t n = a.cols();
  require_panel_shape("build_lu_graph", m, n, block, nr);
  const double bw = bw_words_per_cycle;

  FactorGraph fg;
  fg.block = block;
  fg.work = std::make_shared<MatrixD>(to_matrix<double>(a));
  fg.pivots = std::make_shared<std::vector<index_t>>(static_cast<std::size_t>(n), 0);
  std::shared_ptr<MatrixD> w = fg.work;
  std::shared_ptr<std::vector<index_t>> piv = fg.pivots;
  KernelGraph& g = fg.graph;
  // One panel per step, and per column tile of every step but the last a
  // TRSM and a GEMM; each tile adds three edges (panel -> TRSM -> GEMM ->
  // next panel).
  std::size_t tiles = 0;
  for (index_t j = 0; j + nr < n; j += nr)
    tiles += static_cast<std::size_t>((n - j - nr + block - 1) / block);
  g.reserve(static_cast<std::size_t>(n / nr) + 2 * tiles, 3 * tiles);

  // The pivot application in a panel's commit swaps rows across the whole
  // matrix, so each panel is a synchronization point: it depends on every
  // update of the previous step, and every step-local node depends on it.
  std::vector<NodeId> prev_step;  // trailing-update nodes of step j - nr
  for (index_t j = 0; j < n; j += nr) {
    const index_t rows = m - j;
    const NodeId panel = g.add_node(
        [w, cfg, j, rows, nr] {
          return fabric::make_lu(cfg, snapshot(*w, j, j, rows, nr));
        },
        tile_name("lu_panel", j / nr, j / nr, j / nr),
        [w, piv, j, rows, nr, n](const fabric::KernelResult& r) {
          for (index_t c = 0; c < nr; ++c)
            for (index_t i = 0; i < rows; ++i) (*w)(j + i, j + c) = r.out(i, c);
          // Apply the panel's pivots outside the panel and record them as
          // global row indices.
          for (index_t s = 0; s < nr; ++s) {
            const index_t p = r.pivots[static_cast<std::size_t>(s)];
            (*piv)[static_cast<std::size_t>(j + s)] = j + p;
            if (p != s) {
              for (index_t c = 0; c < j; ++c)
                std::swap((*w)(j + s, c), (*w)(j + p, c));
              for (index_t c = j + nr; c < n; ++c)
                std::swap((*w)(j + s, c), (*w)(j + p, c));
            }
          }
        });
    for (NodeId d : prev_step) g.add_edge(d, panel);
    prev_step.clear();

    if (j + nr >= n) break;
    const index_t below = m - j - nr;

    // Per column tile: U12 row-panel TRSM, then the trailing GEMM.
    for (index_t c0 = j + nr; c0 < n; c0 += block) {
      const index_t width = std::min(block, n - c0);
      const NodeId trsm = g.add_node(
          [w, cfg, bw, j, c0, width, nr] {
            MatrixD l11(nr, nr, 0.0);
            for (index_t c = 0; c < nr; ++c) {
              for (index_t i = c + 1; i < nr; ++i) l11(i, c) = (*w)(j + i, j + c);
              l11(c, c) = 1.0;
            }
            return fabric::make_trsm(cfg, bw, std::move(l11),
                                     snapshot(*w, j, c0, nr, width));
          },
          tile_name("lu_trsm", j / nr, c0 / nr, j / nr),
          [w, j, c0, width, nr](const fabric::KernelResult& r) {
            for (index_t c = 0; c < width; ++c)
              for (index_t i = 0; i < nr; ++i) (*w)(j + i, c0 + c) = r.out(i, c);
          });
      g.add_edge(panel, trsm);

      if (below == 0) {
        prev_step.push_back(trsm);
        continue;
      }
      const NodeId upd = g.add_node(
          [w, cfg, bw, j, c0, width, below, nr] {
            MatrixD l21(below, nr, 0.0);
            for (index_t c = 0; c < nr; ++c)
              for (index_t i = 0; i < below; ++i)
                l21(i, c) = -(*w)(j + nr + i, j + c);
            return fabric::make_gemm(cfg, bw, std::move(l21),
                                     snapshot(*w, j, c0, nr, width),
                                     snapshot(*w, j + nr, c0, below, width));
          },
          tile_name("lu_gemm", (j + nr) / nr, c0 / nr, j / nr),
          [w, j, c0, width, below, nr](const fabric::KernelResult& r) {
            for (index_t c = 0; c < width; ++c)
              for (index_t i = 0; i < below; ++i)
                (*w)(j + nr + i, c0 + c) = r.out(i, c);
          });
      g.add_edge(trsm, upd);
      prev_step.push_back(upd);
    }
  }
  return fg;
}

FactorGraph build_qr_graph(const arch::CoreConfig& cfg,
                           double bw_words_per_cycle, ConstViewD a,
                           index_t block) {
  const int nr = cfg.nr;
  const index_t m = a.rows();
  const index_t n = a.cols();
  require_panel_shape("build_qr_graph", m, n, block, nr);
  const double bw = bw_words_per_cycle;

  FactorGraph fg;
  fg.block = block;
  fg.work = std::make_shared<MatrixD>(to_matrix<double>(a));
  fg.taus = std::make_shared<std::vector<double>>(static_cast<std::size_t>(n), 0.0);
  std::shared_ptr<MatrixD> w = fg.work;
  std::shared_ptr<std::vector<double>> taus = fg.taus;
  KernelGraph& g = fg.graph;

  // Last writer per block-wide column tile (tile index = col / block).
  // Trailing chunks are aligned to these global tile boundaries so every
  // chunk lies inside exactly one tile and the last-writer map orders all
  // conflicting accesses.
  const index_t ntiles = (n + block - 1) / block;
  std::vector<NodeId> lastw(static_cast<std::size_t>(ntiles), kNone);
  auto tile_of = [&](index_t col) { return col / block; };
  // One panel per step, and per trailing chunk of every step but the last
  // a w and a rank-1 node per reflector; a node has at most two edges.
  std::size_t chunks = 0;
  for (index_t j = 0; j + nr < n; j += nr)
    chunks += static_cast<std::size_t>(ntiles - tile_of(j + nr));
  const std::size_t nodes =
      static_cast<std::size_t>(n / nr) + 2 * static_cast<std::size_t>(nr) * chunks;
  g.reserve(nodes, 2 * nodes);

  for (index_t j = 0; j < n; j += nr) {
    const index_t rows = m - j;
    const NodeId panel = g.add_node(
        [w, cfg, j, rows, nr] {
          return fabric::make_qr(cfg, snapshot(*w, j, j, rows, nr));
        },
        tile_name("qr_panel", j / nr, j / nr, j / nr),
        [w, taus, j, rows, nr](const fabric::KernelResult& r) {
          for (index_t c = 0; c < nr; ++c)
            for (index_t i = 0; i < rows; ++i) (*w)(j + i, j + c) = r.out(i, c);
          for (index_t s = 0; s < nr; ++s)
            (*taus)[static_cast<std::size_t>(j + s)] =
                r.taus[static_cast<std::size_t>(s)];
        });
    dep(g, lastw[static_cast<std::size_t>(tile_of(j))], panel);
    lastw[static_cast<std::size_t>(tile_of(j))] = panel;

    if (j + nr >= n) break;

    // Apply the panel's reflectors to each trailing column tile: the
    // per-reflector (w = u^T A2 / tau, A2 -= u w^T) chain is sequential
    // within a tile but independent across tiles.
    for (index_t c0 = j + nr; c0 < n;) {
      // Clip the chunk at the next global tile boundary (and at n).
      const index_t tile_end = (tile_of(c0) + 1) * block;
      const index_t width = std::min(tile_end, n) - c0;
      NodeId chain = lastw[static_cast<std::size_t>(tile_of(c0))];
      for (index_t s = 0; s < nr; ++s) {
        const index_t tail = rows - s;
        // w^T = (u^T/tau) A2 as an nr x width GEMM (row 0 carries u/tau).
        auto wbuf = std::make_shared<std::vector<double>>();
        const NodeId wnode = g.add_node(
            [w, taus, cfg, bw, j, s, c0, width, tail, nr] {
              const double tau = (*taus)[static_cast<std::size_t>(j + s)];
              MatrixD ut(nr, tail, 0.0);
              ut(0, 0) = 1.0 / tau;
              for (index_t i = 1; i < tail; ++i)
                ut(0, i) = (*w)(j + s + i, j + s) / tau;
              return fabric::make_gemm(cfg, bw, std::move(ut),
                                       snapshot(*w, j + s, c0, tail, width),
                                       MatrixD(nr, width, 0.0));
            },
            tile_name("qr_w", j / nr, c0 / nr, s),
            [wbuf, width](const fabric::KernelResult& r) {
              wbuf->assign(static_cast<std::size_t>(width), 0.0);
              for (index_t c = 0; c < width; ++c)
                (*wbuf)[static_cast<std::size_t>(c)] = r.out(0, c);
            });
        g.add_edge(panel, wnode);  // reads u and tau
        dep(g, chain, wnode);      // reads the tile state
        // Rank-1 update A2 -= u w^T on the GEMM kernel, its operands
        // padded to nr multiples so the fabric charges realistic cycles.
        const index_t padded = ((tail + nr - 1) / nr) * nr;
        const NodeId rank1 = g.add_node(
            [w, wbuf, cfg, bw, j, s, c0, width, tail, padded, nr] {
              MatrixD up(padded, nr, 0.0);
              up(0, 0) = -1.0;
              for (index_t i = 1; i < tail; ++i)
                up(i, 0) = -(*w)(j + s + i, j + s);
              MatrixD wp(nr, ((width + nr - 1) / nr) * nr, 0.0);
              for (index_t c = 0; c < width; ++c)
                wp(0, c) = (*wbuf)[static_cast<std::size_t>(c)];
              MatrixD c_pad(padded, wp.cols(), 0.0);
              for (index_t c = 0; c < width; ++c)
                for (index_t i = 0; i < tail; ++i)
                  c_pad(i, c) = (*w)(j + s + i, c0 + c);
              return fabric::make_gemm(cfg, bw, std::move(up), std::move(wp),
                                       std::move(c_pad));
            },
            tile_name("qr_rank1", j / nr, c0 / nr, s),
            [w, j, s, c0, width, tail](const fabric::KernelResult& r) {
              for (index_t c = 0; c < width; ++c)
                for (index_t i = 0; i < tail; ++i)
                  (*w)(j + s + i, c0 + c) = r.out(i, c);
            });
        g.add_edge(wnode, rank1);  // consumes wbuf, then overwrites the tile
        g.add_edge(panel, rank1);  // reads u
        chain = rank1;
      }
      lastw[static_cast<std::size_t>(tile_of(c0))] = chain;
      c0 += width;
    }
  }
  return fg;
}

void extract_lower(const FactorGraph& fg, ViewD out) {
  const MatrixD& w = *fg.work;
  assert(out.rows() == w.rows() && out.cols() == w.cols());
  for (index_t j = 0; j < w.cols(); ++j)
    for (index_t i = 0; i < w.rows(); ++i) out(i, j) = i >= j ? w(i, j) : 0.0;
}

}  // namespace lac::sched
