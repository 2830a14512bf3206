#include "sched/graph_builders.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

namespace lac::sched {
namespace {

constexpr NodeId kNone = static_cast<NodeId>(-1);

/// Every family's node ops; a descriptor's (i, j, k) are its name's.
enum Op : std::uint8_t {
  kPotrf, kTrsm, kSyrk, kGemm,     // Cholesky: tile (i, j) at step k
  kLuPanel, kLuTrsm, kLuGemm,      // LU: nr-column (i, j) at step k
  kQrPanel, kQrW, kQrRank1,        // QR: step i, nr-column j, reflector k
};
constexpr const char* kOpName[] = {"potrf",    "trsm",    "syrk",     "gemm",
                                   "lu_panel", "lu_trsm", "lu_gemm",  "qr_panel",
                                   "qr_w",     "qr_rank1"};

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

/// A family's descriptors and edges, in node-id order.
struct ShapeBuilder {
  std::vector<NodeDesc> desc;
  std::vector<std::pair<NodeId, NodeId>> edges;

  NodeId add(Op op, index_t i, index_t j, index_t k) {
    desc.push_back(NodeDesc{op, i, j, k});
    return desc.size() - 1;
  }
  /// Edge from `from` unless unset; the shape coalesces duplicates.
  void dep(NodeId from, NodeId to) {
    if (from != kNone) edges.emplace_back(from, to);
  }
  std::shared_ptr<const GraphShape> build() {
    const std::size_t n = desc.size();
    return std::make_shared<const GraphShape>(std::move(desc), n, std::move(edges));
  }
};

std::shared_ptr<const GraphShape> cholesky_shape(index_t nt) {
  ShapeBuilder g;
  // Node count from the header; a node has at most three edges (GEMM's).
  const std::size_t t = static_cast<std::size_t>(nt);
  const std::size_t nodes = t + t * (t - 1) + t * (t - 1) * (t - 2) / 6;
  g.desc.reserve(nodes);
  g.edges.reserve(3 * nodes);

  // Last writer of each (row, col) tile of the lower triangle; every
  // conflicting access is ordered through this map, which is what makes
  // the factor byte-identical for any worker count.
  std::vector<NodeId> last(t * t, kNone);
  auto lw = [&](index_t i, index_t j) -> NodeId& {
    return last[static_cast<std::size_t>(i) * t + static_cast<std::size_t>(j)];
  };
  for (index_t k = 0; k < nt; ++k) {
    // POTRF: Cholesky of the diagonal tile on the fabric.
    const NodeId potrf = g.add(kPotrf, k, k, k);
    g.dep(lw(k, k), potrf);
    lw(k, k) = potrf;
    // TRSM panel: A(i,k) := A(i,k) * L(k,k)^{-T}, one tile per node.
    for (index_t i = k + 1; i < nt; ++i) {
      const NodeId trsm = g.add(kTrsm, i, k, k);
      g.dep(potrf, trsm);
      g.dep(lw(i, k), trsm);
      lw(i, k) = trsm;
    }
    // Trailing update A(i,j) -= L(i,k) * L(j,k)^T: SYRK on the diagonal
    // tiles, GEMM on the off-diagonal ones.
    for (index_t j = k + 1; j < nt; ++j)
      for (index_t i = j; i < nt; ++i) {
        const NodeId upd = g.add(i == j ? kSyrk : kGemm, i, j, k);
        if (i != j) g.dep(lw(j, k), upd);  // reads L(j,k)
        g.dep(lw(i, k), upd);              // reads L(i,k)
        g.dep(lw(i, j), upd);              // read-modify-writes A(i,j)
        lw(i, j) = upd;
      }
  }
  return g.build();
}

std::shared_ptr<const GraphShape> lu_shape(index_t m, index_t n, index_t block, int nr) {
  ShapeBuilder g;
  // One panel per step, and per column tile of every step but the last a
  // TRSM and a GEMM; each tile adds three edges (panel -> TRSM -> GEMM ->
  // next panel).
  std::size_t tiles = 0;
  for (index_t j = 0; j + nr < n; j += nr)
    tiles += static_cast<std::size_t>((n - j - nr + block - 1) / block);
  g.desc.reserve(static_cast<std::size_t>(n / nr) + 2 * tiles);
  g.edges.reserve(3 * tiles);

  // The pivot application in a panel's commit swaps rows across the whole
  // matrix, so each panel is a synchronization point: it depends on every
  // update of the previous step, and every step-local node depends on it.
  std::vector<NodeId> prev_step;  // trailing-update nodes of step j - nr
  for (index_t j = 0; j < n; j += nr) {
    const NodeId panel = g.add(kLuPanel, j / nr, j / nr, j / nr);
    for (NodeId d : prev_step) g.dep(d, panel);
    prev_step.clear();
    if (j + nr >= n) break;
    const index_t below = m - j - nr;
    // Per column tile: U12 row-panel TRSM, then the trailing GEMM.
    for (index_t c0 = j + nr; c0 < n; c0 += block) {
      const NodeId trsm = g.add(kLuTrsm, j / nr, c0 / nr, j / nr);
      g.dep(panel, trsm);
      if (below == 0) {
        prev_step.push_back(trsm);
        continue;
      }
      const NodeId upd = g.add(kLuGemm, (j + nr) / nr, c0 / nr, j / nr);
      g.dep(trsm, upd);
      prev_step.push_back(upd);
    }
  }
  return g.build();
}

std::shared_ptr<const GraphShape> qr_shape(index_t n, index_t block, int nr) {
  ShapeBuilder g;
  // Last writer per block-wide column tile (tile index = col / block).
  // Trailing chunks are aligned to these global tile boundaries so every
  // chunk lies inside exactly one tile and the last-writer map orders all
  // conflicting accesses.
  const index_t ntiles = (n + block - 1) / block;
  std::vector<NodeId> lastw(static_cast<std::size_t>(ntiles), kNone);
  auto last = [&](index_t col) -> NodeId& {
    return lastw[static_cast<std::size_t>(col / block)];
  };
  // One panel per step, and per trailing chunk of every step but the last
  // a w and a rank-1 node per reflector; a node has at most two edges.
  std::size_t chunks = 0;
  for (index_t j = 0; j + nr < n; j += nr)
    chunks += static_cast<std::size_t>(ntiles - (j + nr) / block);
  const std::size_t nodes =
      static_cast<std::size_t>(n / nr) + 2 * static_cast<std::size_t>(nr) * chunks;
  g.desc.reserve(nodes);
  g.edges.reserve(2 * nodes);

  for (index_t j = 0; j < n; j += nr) {
    const NodeId panel = g.add(kQrPanel, j / nr, j / nr, j / nr);
    g.dep(last(j), panel);
    last(j) = panel;
    if (j + nr >= n) break;
    // Apply the panel's reflectors to each trailing column tile: the
    // per-reflector (w = u^T A2 / tau, A2 -= u w^T) chain is sequential
    // within a tile but independent across tiles.
    for (index_t c0 = j + nr; c0 < n;) {
      NodeId chain = last(c0);
      for (index_t s = 0; s < nr; ++s) {
        const NodeId wnode = g.add(kQrW, j / nr, c0 / nr, s);
        g.dep(panel, wnode);  // reads u and tau
        g.dep(chain, wnode);  // reads the tile state
        const NodeId rank1 = g.add(kQrRank1, j / nr, c0 / nr, s);
        g.dep(wnode, rank1);  // consumes the w slot, then overwrites the tile
        g.dep(panel, rank1);  // reads u
        chain = rank1;
      }
      last(c0) = chain;
      // The chunk ends at the next global tile boundary (or at n).
      c0 = std::min((c0 / block + 1) * block, n);
    }
  }
  return g.build();
}

/// Tile (i, j, m x n) of the working matrix as a fresh immutable payload:
/// the one copy a node's request makes of the shared state.
fabric::SharedMatrix snapshot(const MatrixD& w, index_t i, index_t j, index_t m,
                              index_t n) {
  return to_matrix<double>(w.block(i, j, m, n));
}

/// What the three families' programs share: the shape's descriptors, the
/// request parameters and the working matrix.
class FactorProgram : public GraphProgram {
 public:
  FactorProgram(std::shared_ptr<const GraphShape> shape, const arch::CoreConfig& cfg,
                double bw, index_t block, std::shared_ptr<MatrixD> work)
      : shape_(std::move(shape)), cfg_(cfg), bw_(bw), block_(block), w_(std::move(work)) {}

  std::string name(NodeId id) const override {
    const NodeDesc& d = shape_->desc(id);
    return tile_name(kOpName[d.op], d.i, d.j, d.k);
  }

 protected:
  std::shared_ptr<const GraphShape> shape_;
  arch::CoreConfig cfg_;
  double bw_;
  index_t block_;
  std::shared_ptr<MatrixD> w_;
};

class CholeskyProgram final : public FactorProgram {
 public:
  using FactorProgram::FactorProgram;

  fabric::KernelRequest make(NodeId id) override {
    const NodeDesc& d = shape_->desc(id);
    const MatrixD& w = *w_;
    const index_t b = block_;
    const index_t ib = d.i * b, jb = d.j * b, kb = d.k * b;
    switch (d.op) {
      case kPotrf:
        return fabric::make_cholesky(cfg_, bw_, snapshot(w, kb, kb, b, b));
      case kTrsm:
        return fabric::make_trsm(cfg_, bw_, snapshot(w, kb, kb, b, b),
                                 transpose(w.block(ib, kb, b, b)));
      case kSyrk:
        return fabric::make_syrk(cfg_, bw_, snapshot(w, ib, kb, b, b),
                                 snapshot(w, ib, ib, b, b));
      default: {
        // GEMM with the A operand negated: C + (-L(i,k)) * L(j,k)^T.
        MatrixD neg(b, b, 0.0);
        for (index_t c = 0; c < b; ++c)
          for (index_t rr = 0; rr < b; ++rr) neg(rr, c) = -w(ib + rr, kb + c);
        return fabric::make_gemm(cfg_, bw_, std::move(neg),
                                 transpose(w.block(jb, kb, b, b)),
                                 snapshot(w, ib, jb, b, b));
      }
    }
  }

  bool commit(NodeId id, const fabric::KernelResult& r) override {
    const NodeDesc& d = shape_->desc(id);
    MatrixD& w = *w_;
    const index_t b = block_;
    const index_t ib = d.i * b, jb = d.j * b, kb = d.k * b;
    switch (d.op) {
      case kPotrf:
        for (index_t j = 0; j < b; ++j)
          for (index_t i = 0; i < b; ++i) w(kb + i, kb + j) = i >= j ? r.out(i, j) : 0.0;
        break;
      case kTrsm:
        for (index_t j = 0; j < b; ++j)
          for (index_t c = 0; c < b; ++c) w(ib + c, kb + j) = r.out(j, c);
        break;
      case kSyrk:
        // SYRK computes C + A A^T; the commit folds the sign by writing
        // 2*C_in - result (the work tile still holds C_in at commit time).
        for (index_t c = 0; c < b; ++c)
          for (index_t rr = c; rr < b; ++rr)
            w(ib + rr, ib + c) = 2.0 * w(ib + rr, ib + c) - r.out(rr, c);
        break;
      default:
        for (index_t c = 0; c < b; ++c)
          for (index_t rr = 0; rr < b; ++rr) w(ib + rr, jb + c) = r.out(rr, c);
    }
    return true;
  }
};

class LuProgram final : public FactorProgram {
 public:
  LuProgram(std::shared_ptr<const GraphShape> shape, const arch::CoreConfig& cfg,
            double bw, index_t block, std::shared_ptr<MatrixD> work,
            std::shared_ptr<std::vector<index_t>> pivots)
      : FactorProgram(std::move(shape), cfg, bw, block, std::move(work)),
        piv_(std::move(pivots)) {}

  fabric::KernelRequest make(NodeId id) override {
    const NodeDesc& d = shape_->desc(id);
    const MatrixD& w = *w_;
    const index_t nr = cfg_.nr;
    const index_t j = d.k * nr;  // the step's first column
    const index_t c0 = d.j * nr;
    const index_t width = std::min(block_, w.cols() - c0);
    switch (d.op) {
      case kLuPanel:
        return fabric::make_lu(cfg_, snapshot(w, j, j, w.rows() - j, nr));
      case kLuTrsm: {
        MatrixD l11(nr, nr, 0.0);
        for (index_t c = 0; c < nr; ++c) {
          for (index_t i = c + 1; i < nr; ++i) l11(i, c) = w(j + i, j + c);
          l11(c, c) = 1.0;
        }
        return fabric::make_trsm(cfg_, bw_, std::move(l11), snapshot(w, j, c0, nr, width));
      }
      default: {
        const index_t below = w.rows() - j - nr;
        MatrixD l21(below, nr, 0.0);
        for (index_t c = 0; c < nr; ++c)
          for (index_t i = 0; i < below; ++i) l21(i, c) = -w(j + nr + i, j + c);
        return fabric::make_gemm(cfg_, bw_, std::move(l21), snapshot(w, j, c0, nr, width),
                                 snapshot(w, j + nr, c0, below, width));
      }
    }
  }

  bool commit(NodeId id, const fabric::KernelResult& r) override {
    const NodeDesc& d = shape_->desc(id);
    MatrixD& w = *w_;
    const index_t nr = cfg_.nr;
    const index_t n = w.cols();
    const index_t j = d.k * nr;
    const index_t c0 = d.j * nr;
    const index_t width = std::min(block_, n - c0);
    switch (d.op) {
      case kLuPanel: {
        const index_t rows = w.rows() - j;
        for (index_t c = 0; c < nr; ++c)
          for (index_t i = 0; i < rows; ++i) w(j + i, j + c) = r.out(i, c);
        // Apply the panel's pivots outside the panel and record them as
        // global row indices.
        for (index_t s = 0; s < nr; ++s) {
          const index_t p = r.pivots[static_cast<std::size_t>(s)];
          (*piv_)[static_cast<std::size_t>(j + s)] = j + p;
          if (p != s) {
            for (index_t c = 0; c < j; ++c) std::swap(w(j + s, c), w(j + p, c));
            for (index_t c = j + nr; c < n; ++c) std::swap(w(j + s, c), w(j + p, c));
          }
        }
        break;
      }
      case kLuTrsm:
        for (index_t c = 0; c < width; ++c)
          for (index_t i = 0; i < nr; ++i) w(j + i, c0 + c) = r.out(i, c);
        break;
      default: {
        const index_t below = w.rows() - j - nr;
        for (index_t c = 0; c < width; ++c)
          for (index_t i = 0; i < below; ++i) w(j + nr + i, c0 + c) = r.out(i, c);
      }
    }
    return true;
  }

 private:
  std::shared_ptr<std::vector<index_t>> piv_;
};

class QrProgram final : public FactorProgram {
 public:
  QrProgram(std::shared_ptr<const GraphShape> shape, const arch::CoreConfig& cfg,
            double bw, index_t block, std::shared_ptr<MatrixD> work,
            std::shared_ptr<std::vector<double>> taus)
      : FactorProgram(std::move(shape), cfg, bw, block, std::move(work)),
        taus_(std::move(taus)),
        wbuf_(static_cast<std::size_t>(w_->cols()), 0.0) {}

  fabric::KernelRequest make(NodeId id) override {
    const NodeDesc& d = shape_->desc(id);
    const MatrixD& w = *w_;
    const index_t nr = cfg_.nr;
    const index_t j = d.i * nr;  // the step's first column
    if (d.op == kQrPanel) return fabric::make_qr(cfg_, snapshot(w, j, j, w.rows() - j, nr));
    const Chunk ch = chunk(d);
    const index_t s = d.k;
    if (d.op == kQrW) {
      // w^T = (u^T/tau) A2 as an nr x width GEMM (row 0 carries u/tau).
      const double tau = (*taus_)[static_cast<std::size_t>(j + s)];
      MatrixD ut(nr, ch.tail, 0.0);
      ut(0, 0) = 1.0 / tau;
      for (index_t i = 1; i < ch.tail; ++i) ut(0, i) = w(j + s + i, j + s) / tau;
      return fabric::make_gemm(cfg_, bw_, std::move(ut),
                               snapshot(w, j + s, ch.c0, ch.tail, ch.width),
                               MatrixD(nr, ch.width, 0.0));
    }
    // Rank-1 update A2 -= u w^T on the GEMM kernel, its operands padded to
    // nr multiples so the fabric charges realistic cycles.
    const index_t padded = ((ch.tail + nr - 1) / nr) * nr;
    MatrixD up(padded, nr, 0.0);
    up(0, 0) = -1.0;
    for (index_t i = 1; i < ch.tail; ++i) up(i, 0) = -w(j + s + i, j + s);
    MatrixD wp(nr, ((ch.width + nr - 1) / nr) * nr, 0.0);
    for (index_t c = 0; c < ch.width; ++c)
      wp(0, c) = wbuf_[static_cast<std::size_t>(ch.c0 + c)];
    MatrixD c_pad(padded, wp.cols(), 0.0);
    for (index_t c = 0; c < ch.width; ++c)
      for (index_t i = 0; i < ch.tail; ++i) c_pad(i, c) = w(j + s + i, ch.c0 + c);
    return fabric::make_gemm(cfg_, bw_, std::move(up), std::move(wp), std::move(c_pad));
  }

  bool commit(NodeId id, const fabric::KernelResult& r) override {
    const NodeDesc& d = shape_->desc(id);
    MatrixD& w = *w_;
    const index_t nr = cfg_.nr;
    const index_t j = d.i * nr;
    if (d.op == kQrPanel) {
      const index_t rows = w.rows() - j;
      for (index_t c = 0; c < nr; ++c)
        for (index_t i = 0; i < rows; ++i) w(j + i, j + c) = r.out(i, c);
      for (index_t s = 0; s < nr; ++s)
        (*taus_)[static_cast<std::size_t>(j + s)] = r.taus[static_cast<std::size_t>(s)];
      return true;
    }
    const Chunk ch = chunk(d);
    if (d.op == kQrW) {
      for (index_t c = 0; c < ch.width; ++c)
        wbuf_[static_cast<std::size_t>(ch.c0 + c)] = r.out(0, c);
      return true;
    }
    const index_t s = d.k;
    for (index_t c = 0; c < ch.width; ++c)
      for (index_t i = 0; i < ch.tail; ++i) w(j + s + i, ch.c0 + c) = r.out(i, c);
    return true;
  }

 private:
  /// A w or rank-1 node's trailing chunk: its first column, its width (to
  /// the next tile boundary or n) and the reflector's length.
  struct Chunk {
    index_t c0, width, tail;
  };
  Chunk chunk(const NodeDesc& d) const {
    const index_t nr = cfg_.nr;
    const index_t c0 = d.j * nr;
    const index_t width = std::min((c0 / block_ + 1) * block_, w_->cols()) - c0;
    return Chunk{c0, width, w_->rows() - d.i * nr - d.k};
  }

  std::shared_ptr<std::vector<double>> taus_;
  /// qr_w's output, one slot per column: each trailing chunk lies in one
  /// column tile, whose w and rank-1 nodes form one chain.
  std::vector<double> wbuf_;
};

}  // namespace

FactorGraph build_cholesky_graph(const arch::CoreConfig& cfg,
                                 double bw_words_per_cycle, ConstViewD a,
                                 index_t block) {
  const index_t n = a.rows();
  require_shape(cfg.nr > 0 && a.cols() == n && block > 0 && n % block == 0 &&
                    block % cfg.nr == 0,
                "build_cholesky_graph", n, a.cols(), block, cfg.nr,
                "a square matrix, block > 0, n % block == 0 and block % nr == 0");
  std::shared_ptr<const GraphShape> shape = cholesky_shape(n / block);
  FactorGraph fg;
  fg.block = block;
  fg.work = std::make_shared<MatrixD>(to_matrix<double>(a));
  auto program =
      std::make_shared<CholeskyProgram>(shape, cfg, bw_words_per_cycle, block, fg.work);
  fg.graph = KernelGraph(std::move(shape), std::move(program));
  return fg;
}

FactorGraph build_lu_graph(const arch::CoreConfig& cfg,
                           double bw_words_per_cycle, ConstViewD a,
                           index_t block) {
  const int nr = cfg.nr;
  const index_t m = a.rows();
  const index_t n = a.cols();
  require_panel_shape("build_lu_graph", m, n, block, nr);
  std::shared_ptr<const GraphShape> shape = lu_shape(m, n, block, nr);
  FactorGraph fg;
  fg.block = block;
  fg.work = std::make_shared<MatrixD>(to_matrix<double>(a));
  fg.pivots = std::make_shared<std::vector<index_t>>(static_cast<std::size_t>(n), 0);
  auto program = std::make_shared<LuProgram>(shape, cfg, bw_words_per_cycle, block,
                                             fg.work, fg.pivots);
  fg.graph = KernelGraph(std::move(shape), std::move(program));
  return fg;
}

FactorGraph build_qr_graph(const arch::CoreConfig& cfg,
                           double bw_words_per_cycle, ConstViewD a,
                           index_t block) {
  const int nr = cfg.nr;
  const index_t m = a.rows();
  const index_t n = a.cols();
  require_panel_shape("build_qr_graph", m, n, block, nr);
  std::shared_ptr<const GraphShape> shape = qr_shape(n, block, nr);
  FactorGraph fg;
  fg.block = block;
  fg.work = std::make_shared<MatrixD>(to_matrix<double>(a));
  fg.taus = std::make_shared<std::vector<double>>(static_cast<std::size_t>(n), 0.0);
  auto program = std::make_shared<QrProgram>(shape, cfg, bw_words_per_cycle, block,
                                             fg.work, fg.taus);
  fg.graph = KernelGraph(std::move(shape), std::move(program));
  return fg;
}

void extract_lower(const FactorGraph& fg, ViewD out) {
  const MatrixD& w = *fg.work;
  assert(out.rows() == w.rows() && out.cols() == w.cols());
  for (index_t j = 0; j < w.cols(); ++j)
    for (index_t i = 0; i < w.rows(); ++i) out(i, j) = i >= j ? w(i, j) : 0.0;
}

}  // namespace lac::sched
