// The kernel-graph scheduler layer: DAG well-formedness and topological
// execution safety, determinism across worker widths, tiled-factorization
// builders against the references, weighted-fair multi-tenant scheduling,
// bounded-admission backpressure, failed-node cancellation with PR 2 zero-
// cost accounting, and the graph-parallel makespan speedup.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cinttypes>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <ranges>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arch/presets.hpp"
#include "blas/lap_driver.hpp"
#include "blas/ref_lapack.hpp"
#include "common/numeric.hpp"
#include "common/random.hpp"
#include "common/thread_pool.hpp"
#include "fabric/model_executor.hpp"
#include "fabric/serving.hpp"
#include "fabric/sim_executor.hpp"
#include "sched/graph_builders.hpp"
#include "sched/graph_scheduler.hpp"
#include "test_support.hpp"

namespace lac::sched {
namespace {

const fabric::SimExecutor kSim;
const fabric::ModelExecutor kModel;

/// Wraps a backend and records the order requests start executing in
/// (by tag), so tests can check scheduling-order invariants.
struct RecordingExecutor final : fabric::Executor {
  explicit RecordingExecutor(const fabric::Executor& inner) : inner(inner) {}
  const char* name() const override { return inner.name(); }
  fabric::KernelResult execute(const fabric::KernelRequest& req) const override {
    {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(req.tag);
    }
    return inner.execute(req);
  }
  const fabric::Executor& inner;
  mutable std::mutex mu;
  mutable std::vector<std::string> order;
};

/// Blocks requests tagged "gate" until released; everything else passes
/// straight through. Lets tests fill queues deterministically.
struct GateExecutor final : fabric::Executor {
  GateExecutor(const fabric::Executor& inner, std::shared_future<void> gate)
      : inner(inner), gate(std::move(gate)) {}
  const char* name() const override { return inner.name(); }
  fabric::KernelResult execute(const fabric::KernelRequest& req) const override {
    if (req.tag == "gate") gate.wait();
    return inner.execute(req);
  }
  const fabric::Executor& inner;
  std::shared_future<void> gate;
};

/// Counts the requests tagged "gate" that reached the inner backend.
struct GateArrivals final : fabric::Executor {
  explicit GateArrivals(const fabric::Executor& inner) : inner(inner) {}
  const char* name() const override { return inner.name(); }
  fabric::KernelResult execute(const fabric::KernelRequest& req) const override {
    if (req.tag == "gate") arrived.fetch_add(1);
    return inner.execute(req);
  }
  /// Waits up to 10 s for `n` gated requests to arrive; false on timeout.
  bool await(int n) const {
    for (int ms = 0; ms < 10000 && arrived.load() < n; ++ms)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return arrived.load() >= n;
  }
  const fabric::Executor& inner;
  mutable std::atomic<int> arrived{0};
};

fabric::KernelRequest small_gemm(const arch::CoreConfig& cfg, std::string tag) {
  static const auto a = std::make_shared<const MatrixD>(random_matrix(8, 8, 11));
  static const auto b = std::make_shared<const MatrixD>(random_matrix(8, 8, 12));
  static const auto c = std::make_shared<const MatrixD>(random_matrix(8, 8, 13));
  fabric::KernelRequest req = fabric::make_gemm(cfg, 2.0, a, b, c);
  req.tag = std::move(tag);
  return req;
}

/// One node of an ad-hoc graph: its request builder and its name. A
/// request converts to a builder that returns it as built.
struct AdHocNode {
  AdHocNode(std::function<fabric::KernelRequest()> make, std::string name = {})
      : make(std::move(make)), name(std::move(name)) {}
  AdHocNode(fabric::KernelRequest req, std::string name = {})
      : make([req = std::move(req)] { return req; }), name(std::move(name)) {}
  std::function<fabric::KernelRequest()> make;
  std::string name;
};

/// An ad-hoc graph built in one go: `nodes` in id order over `edges`. Its
/// program runs each node's builder and commits nothing.
KernelGraph adhoc_graph(std::vector<AdHocNode> nodes,
                        std::vector<std::pair<NodeId, NodeId>> edges = {}) {
  struct Program final : GraphProgram {
    explicit Program(std::vector<AdHocNode> n) : nodes(std::move(n)) {}
    fabric::KernelRequest make(NodeId id) override { return nodes[id].make(); }
    bool commit(NodeId, const fabric::KernelResult&) override { return false; }
    std::string name(NodeId id) const override { return nodes[id].name; }
    std::vector<AdHocNode> nodes;
  };
  auto shape = std::make_shared<const GraphShape>(std::vector<NodeDesc>{}, nodes.size(),
                                                  std::move(edges));
  return KernelGraph(std::move(shape), std::make_shared<Program>(std::move(nodes)));
}

TEST(KernelGraph, ValidateCatchesMalformedGraphs) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  KernelGraph ok = adhoc_graph({{small_gemm(cfg, "n0")}, {small_gemm(cfg, "n1")}}, {{0, 1}});
  EXPECT_EQ(ok.validate(), "");
  EXPECT_EQ(ok.topo_order(), (std::vector<NodeId>{0, 1}));

  KernelGraph self = adhoc_graph({{small_gemm(cfg, "s")}}, {{0, 0}});
  EXPECT_NE(self.validate().find("self-dependency"), std::string::npos);

  // An edge naming a node that does not exist must fail validation, not
  // silently drop the dependency.
  KernelGraph dangling = adhoc_graph({{small_gemm(cfg, "d")}}, {{0, 99}});
  EXPECT_NE(dangling.validate().find("malformed edge"), std::string::npos);
  KernelGraph dangling_from = adhoc_graph({{small_gemm(cfg, "d2")}}, {{99, 0}});
  EXPECT_NE(dangling_from.validate().find("malformed edge"), std::string::npos);

  KernelGraph cyclic =
      adhoc_graph({{small_gemm(cfg, "a")}, {small_gemm(cfg, "b")}}, {{0, 1}, {1, 0}});
  EXPECT_NE(cyclic.validate().find("cycle"), std::string::npos);

  // The scheduler resolves an invalid graph immediately with ok = false.
  GraphScheduler scheduler(kModel);
  GraphResult res = scheduler.submit(0, std::move(cyclic)).get();
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("invalid graph"), std::string::npos);
}

TEST(KernelGraph, EmptyGraphResolvesAtOnceWithoutAdmission) {
  const KernelGraph empty;
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.validate(), "");
  GraphScheduler scheduler(kModel);
  const GraphResult res = scheduler.submit(0, KernelGraph()).get();
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.nodes.empty());
  EXPECT_EQ(scheduler.pending(), 0u);
  EXPECT_EQ(scheduler.peak_pending(), 0u);
  EXPECT_EQ(scheduler.tenant_stats(0).jobs_submitted, 0u);
}

TEST(KernelGraph, ListMakespanMatchesHandComputedSchedules) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  const std::vector<AdHocNode> three{
      {small_gemm(cfg, "0")}, {small_gemm(cfg, "1")}, {small_gemm(cfg, "2")}};
  // Chain of 3: serialized regardless of W.
  const KernelGraph chain = adhoc_graph(three, {{0, 1}, {1, 2}});
  std::vector<fabric::KernelResult> costs(3);
  costs[0].cycles = units::Cycles(10.0);
  costs[1].cycles = units::Cycles(20.0);
  costs[2].cycles = units::Cycles(30.0);
  EXPECT_DOUBLE_EQ(list_makespan(chain, costs, 4).value(), 60.0);
  EXPECT_DOUBLE_EQ(serial_cycles(costs).value(), 60.0);

  // Fork: two independent successors overlap on 2 workers.
  const KernelGraph fork = adhoc_graph(three, {{0, 1}, {0, 2}});
  EXPECT_DOUBLE_EQ(list_makespan(fork, costs, 2).value(), 40.0);  // 10 + max(20, 30)
  EXPECT_DOUBLE_EQ(list_makespan(fork, costs, 1).value(), 60.0);  // serialized
}

TEST(KernelGraph, DuplicateEdgesCoalesce) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  using Edges = std::vector<std::pair<NodeId, NodeId>>;
  // A diamond 0 -> {1, 2} -> 3 -> 4 with a shortcut 0 -> 4: once with each
  // edge added once, once with repeats in scrambled order.
  auto diamond = [&](Edges edges, const Edges& extra = {}) {
    std::vector<AdHocNode> nodes;
    for (int i = 0; i < 5; ++i) nodes.emplace_back(small_gemm(cfg, std::to_string(i)));
    edges.insert(edges.end(), extra.begin(), extra.end());
    return adhoc_graph(std::move(nodes), std::move(edges));
  };
  const Edges once_edges{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {0, 4}};
  const Edges repeated{{3, 4}, {0, 2}, {0, 1}, {0, 2}, {1, 3}, {2, 3}, {0, 1},
                       {3, 4}, {0, 4}, {2, 3}, {0, 4}, {0, 1}, {1, 3}};
  const KernelGraph once = diamond(once_edges);
  const KernelGraph twice = diamond(repeated);
  ASSERT_EQ(twice.validate(), "");
  const std::vector<std::size_t> want_deps{0, 1, 1, 2, 2};
  const std::vector<std::vector<NodeId>> want_succ{{1, 2, 4}, {3}, {3}, {4}, {}};
  for (NodeId id = 0; id < 5; ++id) {
    EXPECT_EQ(twice.dep_count(id), want_deps[id]) << id;
    EXPECT_EQ(once.dep_count(id), want_deps[id]) << id;
    EXPECT_TRUE(std::ranges::equal(twice.dependents(id), want_succ[id])) << id;
    EXPECT_TRUE(std::ranges::equal(once.dependents(id), want_succ[id])) << id;
  }
  EXPECT_EQ(twice.topo_order(), (std::vector<NodeId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(twice.topo_order(), once.topo_order());

  std::vector<fabric::KernelResult> costs(5);
  for (std::size_t i = 0; i < 5; ++i) costs[i].cycles = units::Cycles(10.0 * (i + 1));
  for (unsigned w : {1u, 2u, 3u})
    EXPECT_EQ(list_makespan(twice, costs, w).value(), list_makespan(once, costs, w).value())
        << w;
  // W = 2: node 0 [0, 10), 1 [10, 30), 2 [10, 40), 3 [40, 80), 4 [80, 130).
  EXPECT_DOUBLE_EQ(list_makespan(twice, costs, 2).value(), 130.0);

  // Malformed edges are still rejected among duplicates.
  const KernelGraph self = diamond(repeated, {{4, 4}});
  EXPECT_NE(self.validate().find("self-dependency"), std::string::npos);
  const KernelGraph dangling = diamond(repeated, {{0, 9}});
  EXPECT_NE(dangling.validate().find("malformed edge"), std::string::npos);
  const KernelGraph cyclic = diamond(repeated, {{4, 0}, {4, 0}});
  EXPECT_NE(cyclic.validate().find("cycle"), std::string::npos);
}

TEST(GraphScheduler, TopologicalSafetyOn300NodeRandomDags) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  Rng rng(99);
  for (unsigned width : {1u, 4u, 8u}) {
    // Random 300-node DAG: edges only forward (i -> j, i < j), so it is
    // acyclic by construction; density tuned for a deep-and-wide mix.
    // LAC_TEST_SCALE shrinks it for the sanitizer lanes (min 60 nodes
    // keeps the deep-and-wide structure).
    const std::size_t n = test::scaled<std::size_t>(300, 60);
    std::vector<AdHocNode> nodes;
    std::vector<std::pair<NodeId, NodeId>> edges;
    std::vector<std::vector<NodeId>> deps(n);
    for (std::size_t i = 0; i < n; ++i) nodes.emplace_back(small_gemm(cfg, std::to_string(i)));
    for (std::size_t j = 1; j < n; ++j) {
      const int fanin = static_cast<int>(rng.next_index(4));
      for (int e = 0; e < fanin; ++e) {
        const NodeId from = static_cast<NodeId>(rng.next_index(j));
        edges.emplace_back(from, j);
        deps[j].push_back(from);
      }
    }
    KernelGraph g = adhoc_graph(std::move(nodes), std::move(edges));
    ASSERT_EQ(g.validate(), "");

    RecordingExecutor rec(kModel);
    ThreadPool pool(width);
    SchedulerOptions opts;
    opts.workers = width;
    GraphScheduler scheduler(rec, opts, &pool);
    GraphResult res = scheduler.submit(0, std::move(g)).get();
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_EQ(res.nodes.size(), n);
    ASSERT_EQ(rec.order.size(), n);

    // Every node must start strictly after all of its dependencies.
    std::map<std::string, std::size_t> pos;
    for (std::size_t i = 0; i < rec.order.size(); ++i) pos[rec.order[i]] = i;
    for (std::size_t j = 0; j < n; ++j)
      for (NodeId d : deps[j])
        EXPECT_LT(pos[std::to_string(d)], pos[std::to_string(j)])
            << "node " << j << " ran before its dependency " << d
            << " at width " << width;
  }
}

TEST(GraphBuilders, TiledCholeskyMatchesReferenceAndIsDeterministicAcrossWidths) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  const index_t n = 32, block = 8;
  MatrixD a = random_spd(n, 21);
  MatrixD expect = to_matrix<double>(ConstViewD(a.view()));
  ASSERT_TRUE(blas::cholesky(expect.view()));
  for (index_t j = 1; j < n; ++j)
    for (index_t i = 0; i < j; ++i) expect(i, j) = 0.0;

  MatrixD base;
  std::vector<double> base_cycles;
  for (unsigned width : {1u, 3u, 8u}) {
    FactorGraph fg = build_cholesky_graph(cfg, 2.0, a.view(), block);
    // A copy shares the shape (and the program, so it is not run).
    const KernelGraph copy = fg.graph;
    EXPECT_EQ(&copy.shape(), &fg.graph.shape());
    ThreadPool pool(width);
    SchedulerOptions opts;
    opts.workers = width;
    GraphScheduler scheduler(kModel, opts, &pool);
    GraphResult res = scheduler.submit(0, std::move(fg.graph)).get();
    ASSERT_TRUE(res.ok) << res.error;
    MatrixD lower(n, n, 0.0);
    extract_lower(fg, lower.view());
    EXPECT_LT(rel_error(lower.view(), expect.view()), 1e-9) << "width " << width;
    std::vector<double> cycles;
    for (const fabric::KernelResult& r : res.nodes) cycles.push_back(r.cycles.value());
    if (width == 1) {
      base = std::move(lower);
      base_cycles = std::move(cycles);
    } else {
      // Byte-identical factor and identical per-node accounting: the edges
      // fully order every conflicting access.
      EXPECT_TRUE(base == lower) << "width " << width;
      EXPECT_EQ(base_cycles, cycles) << "width " << width;
    }
  }
}

TEST(GraphBuilders, TiledCholeskyOnSimBackendMatchesModelNumerics) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  const index_t n = 16, block = 8;
  MatrixD a = random_spd(n, 22);
  MatrixD expect = to_matrix<double>(ConstViewD(a.view()));
  ASSERT_TRUE(blas::cholesky(expect.view()));
  for (index_t j = 1; j < n; ++j)
    for (index_t i = 0; i < j; ++i) expect(i, j) = 0.0;

  FactorGraph fg = build_cholesky_graph(cfg, 2.0, a.view(), block);
  GraphScheduler scheduler(kSim);
  GraphResult res = scheduler.submit(0, std::move(fg.graph)).get();
  ASSERT_TRUE(res.ok) << res.error;
  MatrixD lower(n, n, 0.0);
  extract_lower(fg, lower.view());
  EXPECT_LT(rel_error(lower.view(), expect.view()), 1e-9);
  EXPECT_GT(res.total_cycles.value(), 0.0);
  EXPECT_GT(res.energy_nj.value(), 0.0);
}

TEST(GraphBuilders, TiledLuMatchesReference) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  const index_t n = 24;
  MatrixD a = random_matrix(n, n, 23);
  MatrixD expect = to_matrix<double>(ConstViewD(a.view()));
  std::vector<index_t> expect_piv;
  ASSERT_TRUE(blas::lu_partial_pivot(expect.view(), expect_piv));

  FactorGraph fg = build_lu_graph(cfg, 2.0, a.view(), 8);
  GraphScheduler scheduler(kModel);
  GraphResult res = scheduler.submit(0, std::move(fg.graph)).get();
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_LT(rel_error(fg.work->view(), expect.view()), 1e-9);
  ASSERT_EQ(fg.pivots->size(), static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i)
    EXPECT_EQ((*fg.pivots)[static_cast<std::size_t>(i)], expect_piv[static_cast<std::size_t>(i)])
        << "pivot " << i;
}

TEST(GraphBuilders, TiledQrMatchesReference) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  const index_t m = 24, n = 16;
  MatrixD a = random_matrix(m, n, 24);
  MatrixD expect = to_matrix<double>(ConstViewD(a.view()));
  std::vector<double> expect_taus = blas::qr_householder(expect.view());

  FactorGraph fg = build_qr_graph(cfg, 2.0, a.view(), 8);
  GraphScheduler scheduler(kModel);
  GraphResult res = scheduler.submit(0, std::move(fg.graph)).get();
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_LT(rel_error(fg.work->view(), expect.view()), 1e-8);
  ASSERT_EQ(fg.taus->size(), static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR((*fg.taus)[static_cast<std::size_t>(i)],
                expect_taus[static_cast<std::size_t>(i)], 1e-9)
        << "tau " << i;
}

TEST(GraphBuilders, BadShapesThrowInvalidArgumentNamingTheShape) {
  // The checks hold in every build type: RelWithDebInfo and Release define
  // NDEBUG, where an assert would let these shapes build a wrong graph.
  const arch::CoreConfig cfg = arch::lac_4x4_dp();
  struct Bad {
    const char* kind;
    index_t m, n, block;
  };
  for (const Bad& b : {Bad{"CHOL", 20, 20, 8}, Bad{"CHOL", 16, 16, 6}, Bad{"CHOL", 16, 16, 0},
                       Bad{"CHOL", 16, 12, 4}, Bad{"LU", 8, 16, 4}, Bad{"LU", 18, 16, 4},
                       Bad{"LU", 16, 6, 4}, Bad{"LU", 16, 16, 0}, Bad{"LU", 16, 16, 6},
                       Bad{"QR", 8, 16, 4}, Bad{"QR", 18, 16, 4}, Bad{"QR", 16, 6, 4},
                       Bad{"QR", 16, 16, 0}, Bad{"QR", 16, 16, 6}}) {
    const std::string kind = b.kind;
    const std::string shape = std::to_string(b.m) + "x" + std::to_string(b.n) +
                              " with block " + std::to_string(b.block);
    SCOPED_TRACE(kind + " " + shape);
    const MatrixD a = random_matrix(b.m, b.n, 5);
    try {
      if (kind == "CHOL")
        build_cholesky_graph(cfg, 2.0, a.view(), b.block);
      else if (kind == "LU")
        build_lu_graph(cfg, 2.0, a.view(), b.block);
      else
        build_qr_graph(cfg, 2.0, a.view(), b.block);
      ADD_FAILURE() << "no exception";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(shape), std::string::npos) << e.what();
    }
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

/// One factorization graph run on one backend at one width; the digest
/// folds the factor (`work`, `pivots`, `taus`) and every node's ok flag,
/// cycles, utilization, energy and sim::Stats, in NodeId order.
struct BuilderGolden {
  const char* kind;  ///< "CHOL", "LU" or "QR"
  bool sim;          ///< SimExecutor (else ModelExecutor)
  index_t n;
  unsigned workers;
  std::uint64_t digest;
};

/// Pinned on the builders and scheduler that deep-copied every operand in
/// the ConstViewD overloads of make_* and kept each node's outputs.
constexpr BuilderGolden kBuilderGolden[] = {
    {"CHOL", false, 64, 1, 0x5b4b0bbb00cd41b9ull},
    {"CHOL", false, 64, 4, 0xf2a531ba356bd049ull},
    {"LU", false, 64, 1, 0x091677c3a803d60cull},
    {"LU", false, 64, 4, 0x84f1c3ac1bcd87cdull},
    {"QR", false, 64, 1, 0x706cb198b4b9a2b0ull},
    {"QR", false, 64, 4, 0xd1bffab04e50ebd3ull},
    {"CHOL", true, 32, 1, 0x6952fe7ecab0bcfbull},
    {"CHOL", true, 32, 4, 0x6952fe7ecab0bcfbull},
};

std::uint64_t builder_digest(const BuilderGolden& g) {
  const arch::CoreConfig cfg = arch::lac_4x4_dp();
  const std::string kind = g.kind;
  FactorGraph fg;
  if (kind == "CHOL") {
    fg = build_cholesky_graph(cfg, 2.0, random_spd(g.n, 2013).view(), 16);
  } else {
    const MatrixD a = random_matrix(g.n, g.n, kind == "LU" ? 2014 : 2015);
    fg = kind == "LU" ? build_lu_graph(cfg, 2.0, a.view(), 16)
                      : build_qr_graph(cfg, 2.0, a.view(), 16);
  }
  ThreadPool pool(g.workers);
  SchedulerOptions opts;
  opts.workers = g.workers;
  GraphScheduler scheduler(g.sim ? static_cast<const fabric::Executor&>(kSim) : kModel,
                           opts, &pool);
  const GraphResult res = scheduler.submit(0, std::move(fg.graph)).get();
  EXPECT_TRUE(res.ok) << kind << ": " << res.error;
  Digest d;
  const MatrixD& w = *fg.work;
  for (index_t j = 0; j < w.cols(); ++j)
    for (index_t i = 0; i < w.rows(); ++i) d.add(w(i, j));
  if (fg.pivots)
    for (index_t p : *fg.pivots) d.add(static_cast<std::int64_t>(p));
  if (fg.taus)
    for (double t : *fg.taus) d.add(t);
  d.add(static_cast<std::uint64_t>(res.nodes.size()));
  for (const fabric::KernelResult& r : res.nodes) {
    d.add(static_cast<std::uint64_t>(r.ok));
    d.add(r.cycles.value());
    d.add(r.utilization);
    d.add(r.energy_nj.value());
    const sim::Stats& s = r.stats;
    for (std::int64_t v : {s.mac_ops, s.mul_ops, s.cmp_ops, s.mem_a_reads,
                           s.mem_a_writes, s.mem_b_reads, s.mem_b_writes,
                           s.rf_reads, s.rf_writes, s.row_bus_xfers,
                           s.col_bus_xfers, s.sfu_ops, s.dma_words})
      d.add(v);
  }
  d.add(res.makespan_cycles.value());
  return d.value();
}

TEST(GraphBuilders, FactorsAndCostsMatchParent) {
  std::string table;
  bool all_match = true;
  for (const BuilderGolden& g : kBuilderGolden) {
    const std::uint64_t got = builder_digest(g);
    if (got != g.digest) all_match = false;
    char row[160];
    std::snprintf(row, sizeof row, "    {\"%s\", %s, %d, %u, 0x%016" PRIx64 "ull},\n",
                  g.kind, g.sim ? "true" : "false", static_cast<int>(g.n), g.workers, got);
    table += row;
  }
  EXPECT_TRUE(all_match) << "factor graph output changed; if intended, paste as "
                            "kBuilderGolden:\n"
                         << table;
}

TEST(GraphScheduler, TiledCholeskySpeedupAtLeast1p5xAtFourWorkers) {
  // The acceptance pin: a tiled-Cholesky graph on the model backend reaches
  // >= 1.5x makespan speedup over serial node-by-node execution at W = 4.
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  const index_t n = 48, block = 8;
  MatrixD a = random_spd(n, 25);
  FactorGraph fg = build_cholesky_graph(cfg, 2.0, a.view(), block);
  ThreadPool pool(4);
  SchedulerOptions opts;
  opts.workers = 4;
  GraphScheduler scheduler(kModel, opts, &pool);
  GraphResult res = scheduler.submit(0, std::move(fg.graph)).get();
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.workers, 4u);
  EXPECT_GT(res.total_cycles.value(), 0.0);
  EXPECT_GT(res.makespan_cycles.value(), 0.0);
  EXPECT_LE(res.makespan_cycles.value(), res.total_cycles.value());
  EXPECT_GE(res.speedup, 1.5) << "total " << res.total_cycles.value() << " makespan "
                              << res.makespan_cycles.value();
}

/// Holds the first `parties` TRSM requests until that many execute at
/// once. A barrier that is not met within `timeout` records it and lets the
/// requests go, so a test fails instead of hanging.
struct TrsmBarrier final : fabric::Executor {
  TrsmBarrier(const fabric::Executor& inner, int parties, std::chrono::seconds timeout)
      : inner(inner), parties(parties), timeout(timeout) {}
  const char* name() const override { return inner.name(); }
  fabric::KernelResult execute(const fabric::KernelRequest& req) const override {
    if (req.kind == fabric::KernelKind::Trsm) {
      std::unique_lock<std::mutex> lock(mu);
      if (arrived < parties && ++arrived == parties) cv.notify_all();
      if (!cv.wait_for(lock, timeout, [this] { return arrived >= parties; })) {
        timed_out = true;
        arrived = parties;
        cv.notify_all();
      }
    }
    return inner.execute(req);
  }
  const fabric::Executor& inner;
  const int parties;
  const std::chrono::seconds timeout;
  mutable std::mutex mu;
  mutable std::condition_variable cv;
  mutable int arrived = 0;
  mutable bool timed_out = false;
};

TEST(GraphScheduler, LoneGraphKeepsItsParallelism) {
  // potrf(0,0,k=0) of a 4 x 4-tile Cholesky releases three TRSMs, the only
  // ready units. The loop that records it takes one and leaves two for
  // other loops, so at least two run at once; a loop that took all three
  // would run them one after another, and the barrier would time out.
  const arch::CoreConfig cfg = arch::lac_4x4_dp();
  const index_t block = 8;
  FactorGraph fg = build_cholesky_graph(cfg, 2.0, random_spd(4 * block, 51).view(), block);
  const TrsmBarrier exec(kModel, 2, std::chrono::seconds(10));
  ThreadPool pool(4);
  SchedulerOptions opts;
  opts.workers = 4;
  GraphScheduler scheduler(exec, opts, &pool);
  const GraphResult res = scheduler.submit(0, std::move(fg.graph)).get();
  ASSERT_TRUE(res.ok) << res.error;
  std::lock_guard<std::mutex> lock(exec.mu);
  EXPECT_FALSE(exec.timed_out) << "the k = 0 TRSMs ran one at a time";
}

TEST(GraphScheduler, WeightedFairShareBetweenTenants) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  std::promise<void> release;
  GateExecutor gated(kModel, release.get_future().share());
  RecordingExecutor rec(gated);
  ThreadPool pool(1);
  SchedulerOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 256;
  GraphScheduler scheduler(rec, opts, &pool);
  const TenantId heavy = scheduler.add_tenant({"heavy", 3.0, 0});
  const TenantId light = scheduler.add_tenant({"light", 1.0, 0});

  // Occupy the single worker, then queue identical-cost work for both
  // tenants so the WFQ order is decided with both queues full.
  std::vector<std::future<fabric::KernelResult>> futs;
  futs.push_back(scheduler.submit(0, small_gemm(cfg, "gate")));
  for (int i = 0; i < 40; ++i) {
    futs.push_back(scheduler.submit(heavy, small_gemm(cfg, "H")));
    futs.push_back(scheduler.submit(light, small_gemm(cfg, "L")));
  }
  release.set_value();
  for (auto& f : futs) EXPECT_TRUE(f.get().ok);

  // Weight 3 vs 1: in any early window the heavy tenant must have received
  // about three times the light tenant's service.
  int h = 0, l = 0;
  for (std::size_t i = 1; i < 41; ++i) {  // first 40 after the gate
    if (rec.order[i] == "H") ++h;
    if (rec.order[i] == "L") ++l;
  }
  ASSERT_GT(l, 0);
  const double ratio = static_cast<double>(h) / static_cast<double>(l);
  EXPECT_GE(ratio, 2.0) << "h=" << h << " l=" << l;
  EXPECT_LE(ratio, 4.0) << "h=" << h << " l=" << l;

  const TenantStats hs = scheduler.tenant_stats(heavy);
  const TenantStats ls = scheduler.tenant_stats(light);
  EXPECT_EQ(hs.units_completed, 40u);
  EXPECT_EQ(ls.units_completed, 40u);
  // Equal total service -> virtual times differ by the weight ratio.
  EXPECT_NEAR(ls.virtual_time.value() / hs.virtual_time.value(), 3.0, 0.01);
}

TEST(GraphScheduler, NonFiniteWeightsShareLikeWeightOne) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  std::promise<void> release;
  GateExecutor gated(kModel, release.get_future().share());
  RecordingExecutor rec(gated);
  ThreadPool pool(1);
  SchedulerOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 256;
  GraphScheduler scheduler(rec, opts, &pool);
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<TenantId, std::string>> tenants{
      {scheduler.add_tenant({"nan", std::numeric_limits<double>::quiet_NaN(), 0}), "N"},
      {scheduler.add_tenant({"inf", inf, 0}), "I"},
      {scheduler.add_tenant({"-inf", -inf, 0}), "M"},
      {scheduler.add_tenant({"one", 1.0, 0}), "O"}};

  // Occupy the single worker, then fill every tenant's queue with
  // identical-cost work.
  const int per_tenant = 30;
  std::vector<std::future<fabric::KernelResult>> futs;
  futs.push_back(scheduler.submit(0, small_gemm(cfg, "gate")));
  for (int i = 0; i < per_tenant; ++i)
    for (const auto& [tenant, tag] : tenants)
      futs.push_back(scheduler.submit(tenant, small_gemm(cfg, tag)));
  release.set_value();
  for (auto& f : futs) EXPECT_TRUE(f.get().ok);

  // While every queue is full, each tenant gets a quarter of the units.
  std::map<std::string, int> served;
  for (std::size_t i = 1; i <= 4 * (per_tenant - 1); ++i) ++served[rec.order[i]];
  for (const auto& [tenant, tag] : tenants) {
    EXPECT_NEAR(served[tag], per_tenant - 1, 1) << tag;
    const TenantStats st = scheduler.tenant_stats(tenant);
    EXPECT_EQ(st.weight, 1.0) << tag;
    EXPECT_EQ(st.units_completed, static_cast<std::uint64_t>(per_tenant)) << tag;
    EXPECT_TRUE(std::isfinite(st.virtual_time.value())) << tag;
    EXPECT_GT(st.virtual_time.value(), 0.0) << tag;
    EXPECT_EQ(st.virtual_time.value(),
              scheduler.tenant_stats(tenants.back().first).virtual_time.value())
        << tag;
  }
  EXPECT_TRUE(std::isfinite(scheduler.tenant_stats(0).virtual_time.value()));
}

TEST(GraphScheduler, FairShareHoldsAtFourWorkers) {
  // A round takes up to workers() units, all charged only when the round is
  // recorded, so at 4 workers up to 16 units run ahead of WFQ's charges.
  // While both queues are backlogged, the weighted service of the started
  // units may therefore drift from the 3:1 share by about 16 units, and by
  // no more than 20 (16 plus one round). A take without the workers() cap
  // would hand one loop nearly the whole backlog in one tenant's order.
  const arch::CoreConfig cfg = arch::lac_4x4_dp();
  std::promise<void> release;
  GateExecutor gated(kModel, release.get_future().share());
  GateArrivals arrivals(gated);
  RecordingExecutor rec(arrivals);
  ThreadPool pool(4);
  SchedulerOptions opts;
  opts.workers = 4;
  opts.queue_capacity = 512;
  GraphScheduler scheduler(rec, opts, &pool);
  const TenantId heavy = scheduler.add_tenant({"heavy", 3.0, 0});
  const TenantId light = scheduler.add_tenant({"light", 1.0, 0});

  // One gate per loop, each submitted once the last one holds its loop, so
  // every loop holds exactly one and the backlog queues behind all four.
  std::vector<std::future<fabric::KernelResult>> futs;
  for (int g = 1; g <= 4; ++g) {
    futs.push_back(scheduler.submit(0, small_gemm(cfg, "gate")));
    ASSERT_TRUE(arrivals.await(g)) << "gate " << g << " never ran";
  }
  const int backlog = 12 * 4 * 4;  // identical singles per tenant
  for (int i = 0; i < backlog; ++i) {
    futs.push_back(scheduler.submit(heavy, small_gemm(cfg, "H")));
    futs.push_back(scheduler.submit(light, small_gemm(cfg, "L")));
  }
  release.set_value();
  for (auto& f : futs) EXPECT_TRUE(f.get().ok);

  // Over the first `backlog` starts after the gates neither queue drains
  // (heavy's share is 3/4 of them, plus at most 20).
  ASSERT_EQ(rec.order.size(), static_cast<std::size_t>(4 + 2 * backlog));
  int h = 0, l = 0;
  double worst = 0.0;
  for (std::size_t i = 4; i < static_cast<std::size_t>(4 + backlog); ++i) {
    ASSERT_NE(rec.order[i], "gate") << i;
    (rec.order[i] == "H" ? h : l) += 1;
    worst = std::max(worst, std::abs(h / 3.0 - l));
  }
  EXPECT_LE(worst, 20.0) << "h=" << h << " l=" << l;
  const double ratio = static_cast<double>(h) / std::max(l, 1);
  EXPECT_GE(ratio, 2.0) << "h=" << h << " l=" << l;
  EXPECT_LE(ratio, 4.5) << "h=" << h << " l=" << l;
  EXPECT_EQ(scheduler.tenant_stats(heavy).units_completed, static_cast<std::uint64_t>(backlog));
  EXPECT_EQ(scheduler.tenant_stats(light).units_completed, static_cast<std::uint64_t>(backlog));
}

TEST(GraphScheduler, PriorityClassPreemptsFairShare) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  std::promise<void> release;
  GateExecutor gated(kModel, release.get_future().share());
  RecordingExecutor rec(gated);
  ThreadPool pool(1);
  SchedulerOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 64;
  GraphScheduler scheduler(rec, opts, &pool);
  const TenantId batch = scheduler.add_tenant({"batch", 8.0, 0});
  const TenantId urgent = scheduler.add_tenant({"urgent", 1.0, 1});
  // The gate outranks both classes so it occupies the worker first and the
  // two queues fill while it blocks.
  const TenantId gatekeeper = scheduler.add_tenant({"gatekeeper", 1.0, 2});

  std::vector<std::future<fabric::KernelResult>> futs;
  futs.push_back(scheduler.submit(gatekeeper, small_gemm(cfg, "gate")));
  for (int i = 0; i < 10; ++i)
    futs.push_back(scheduler.submit(batch, small_gemm(cfg, "B")));
  for (int i = 0; i < 10; ++i)
    futs.push_back(scheduler.submit(urgent, small_gemm(cfg, "U")));
  release.set_value();
  for (auto& f : futs) EXPECT_TRUE(f.get().ok);
  // All urgent-class units dispatch before any batch unit despite the
  // batch tenant's 8x weight.
  for (std::size_t i = 1; i < 11; ++i) EXPECT_EQ(rec.order[i], "U") << i;
}

TEST(GraphScheduler, BoundedAdmissionBackpressure) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  std::promise<void> release;
  GateExecutor gated(kModel, release.get_future().share());
  ThreadPool pool(2);
  SchedulerOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 4;
  GraphScheduler scheduler(gated, opts, &pool);

  // Fill the admission queue with gated work...
  std::vector<std::future<fabric::KernelResult>> futs;
  for (int i = 0; i < 4; ++i) {
    auto fut = scheduler.try_submit(0, small_gemm(cfg, "gate"));
    ASSERT_TRUE(fut.has_value()) << i;
    futs.push_back(std::move(*fut));
  }
  EXPECT_EQ(scheduler.pending(), 4u);
  // ...then every further admission is refused until capacity frees up.
  EXPECT_FALSE(scheduler.try_submit(0, small_gemm(cfg, "gate")).has_value());
  EXPECT_FALSE(scheduler.try_submit(0, small_gemm(cfg, "x")).has_value());
  release.set_value();
  for (auto& f : futs) EXPECT_TRUE(f.get().ok);
  scheduler.drain();
  EXPECT_EQ(scheduler.pending(), 0u);
  // The bounded queue never exceeded its capacity.
  EXPECT_LE(scheduler.peak_pending(), 4u);
  // And admission works again after the queue drained.
  auto fut = scheduler.try_submit(0, small_gemm(cfg, "x"));
  ASSERT_TRUE(fut.has_value());
  EXPECT_TRUE(fut->get().ok);
}

TEST(GraphScheduler, FailedCholeskyNodeCancelsDownstreamWithZeroCost) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  const index_t n = 32, block = 8;
  // Non-SPD input: the very first POTRF fails, and every other node of the
  // tiled factorization is downstream of it.
  MatrixD a = random_spd(n, 26);
  a(0, 0) = -100.0;
  FactorGraph fg = build_cholesky_graph(cfg, 2.0, a.view(), block);
  const std::size_t nodes = fg.graph.size();
  GraphScheduler scheduler(kModel);
  GraphResult res = scheduler.submit(0, std::move(fg.graph)).get();
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.failed, static_cast<int>(nodes));
  EXPECT_NE(res.error.find("positive definite"), std::string::npos);
  EXPECT_DOUBLE_EQ(res.total_cycles.value(), 0.0);
  EXPECT_DOUBLE_EQ(res.energy_nj.value(), 0.0);
  bool saw_cancelled = false;
  for (const fabric::KernelResult& r : res.nodes) {
    EXPECT_FALSE(r.ok);
    // PR 2 failure accounting: failed and cancelled nodes charge nothing.
    EXPECT_DOUBLE_EQ(r.cycles.value(), 0.0);
    EXPECT_DOUBLE_EQ(r.energy_nj.value(), 0.0);
    EXPECT_DOUBLE_EQ(r.utilization, 0.0);
    if (r.error.rfind("cancelled:", 0) == 0) saw_cancelled = true;
  }
  EXPECT_TRUE(saw_cancelled);
}

TEST(GraphScheduler, IndependentBranchSurvivesAFailure) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD bad(8, 8, 0.0);
  for (index_t i = 0; i < 8; ++i) bad(i, i) = -1.0;  // not positive definite

  const NodeId fail = 0, down = 1, indep = 2;
  KernelGraph g = adhoc_graph({{fabric::make_cholesky(cfg, 2.0, bad.view()), "bad-chol"},
                               {small_gemm(cfg, "down")},
                               {small_gemm(cfg, "indep")}},
                              {{fail, down}});

  GraphScheduler scheduler(kModel);
  GraphResult res = scheduler.submit(0, std::move(g)).get();
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.failed, 2);
  EXPECT_FALSE(res.nodes[fail].ok);
  EXPECT_FALSE(res.nodes[down].ok);
  EXPECT_EQ(res.nodes[down].error.rfind("cancelled:", 0), 0u);
  EXPECT_TRUE(res.nodes[indep].ok);  // not downstream: runs normally
  EXPECT_GT(res.nodes[indep].cycles.value(), 0.0);
}

TEST(GraphScheduler, ThrowingMakeClosureFailsInBandInsteadOfHanging) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  const NodeId ok_node = 0, boom = 1, down = 2;
  KernelGraph g = adhoc_graph(
      {{small_gemm(cfg, "fine")},
       {[]() -> fabric::KernelRequest { throw std::runtime_error("make boom"); }, "boom"},
       {small_gemm(cfg, "down")}},
      {{boom, down}});

  GraphScheduler scheduler(kModel);
  GraphResult res = scheduler.submit(0, std::move(g)).get();  // must resolve
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("make boom"), std::string::npos);
  EXPECT_TRUE(res.nodes[ok_node].ok);
  EXPECT_FALSE(res.nodes[boom].ok);
  EXPECT_DOUBLE_EQ(res.nodes[boom].cycles.value(), 0.0);
  EXPECT_EQ(res.nodes[down].error.rfind("cancelled:", 0), 0u);
  scheduler.drain();  // and the scheduler still quiesces cleanly
  EXPECT_EQ(scheduler.pending(), 0u);
}

TEST(GraphScheduler, CompletionHookMayChainABlockingSubmitAtCapacity) {
  // Hook-context submits bypass the admission wait, so a hook chaining a
  // follow-up through blocking submit() must not deadlock even on a
  // single-thread pool with the queue at capacity (the worst case: the
  // hook occupies the only worker that could ever free capacity).
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  ThreadPool pool(1);
  SchedulerOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 1;
  GraphScheduler scheduler(kModel, opts, &pool);
  std::promise<std::future<fabric::KernelResult>> chained;
  std::future<fabric::KernelResult> first = scheduler.submit(
      0, small_gemm(cfg, "first"),
      [&scheduler, &chained, &cfg](const fabric::KernelResult&) {
        chained.set_value(scheduler.submit(0, small_gemm(cfg, "chained")));
      });
  EXPECT_TRUE(first.get().ok);
  EXPECT_TRUE(chained.get_future().get().get().ok);
  scheduler.drain();
  EXPECT_EQ(scheduler.pending(), 0u);
}

TEST(GraphScheduler, CancellationRacingCompletionHooksStaysCoherent) {
  // Many graphs whose root fails: downstream cancellation cascades run on
  // worker threads while sibling jobs' completion hooks (also on worker
  // threads) fire and the submitting thread keeps admitting against the
  // capacity bound. The TSan lane runs this to pin the lock discipline
  // around Job bookkeeping vs. hook/promise resolution.
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD bad(8, 8, 0.0);
  for (index_t i = 0; i < 8; ++i) bad(i, i) = -1.0;  // not positive definite
  ThreadPool pool(4);
  SchedulerOptions opts;
  opts.workers = 4;
  opts.queue_capacity = 8;  // force admission backpressure while hooks run
  GraphScheduler scheduler(kModel, opts, &pool);
  std::atomic<int> hooks{0};
  std::vector<std::future<GraphResult>> futs;
  const int jobs = test::scaled(40, 8);
  for (int j = 0; j < jobs; ++j) {
    KernelGraph g = adhoc_graph({{fabric::make_cholesky(cfg, 2.0, bad.view()), "bad"},
                                 {small_gemm(cfg, "mid")},
                                 {small_gemm(cfg, "down")},
                                 {small_gemm(cfg, "indep")}},
                                {{0, 1}, {1, 2}});
    futs.push_back(scheduler.submit(
        0, std::move(g),
        [&hooks](const GraphResult& r) { if (!r.ok) hooks.fetch_add(1); }));
  }
  for (auto& f : futs) {
    GraphResult res = f.get();
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.failed, 3);  // bad + mid + down; indep survives
    ASSERT_EQ(res.nodes.size(), 4u);
    EXPECT_TRUE(res.nodes[3].ok);
    EXPECT_EQ(res.nodes[2].error.rfind("cancelled:", 0), 0u);
  }
  scheduler.drain();
  // Every hook ran exactly once, after its job's last unit resolved.
  EXPECT_EQ(hooks.load(), jobs);
  EXPECT_EQ(scheduler.pending(), 0u);
}

TEST(GraphScheduler, CommittedNodesReleaseOutputs) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  const MatrixD a = random_matrix(32, 32, 27);
  const fabric::KernelResult plain = kSim.execute(small_gemm(cfg, "x"));
  ThreadPool pool(4);
  SchedulerOptions opts;
  opts.workers = 4;
  GraphScheduler scheduler(kSim, opts, &pool);
  for (const bool lu : {false, true}) {
    FactorGraph fg = lu ? build_lu_graph(cfg, 2.0, a.view(), 8)
                        : build_qr_graph(cfg, 2.0, a.view(), 8);
    const NodeId committed = fg.graph.size();
    const GraphResult res = scheduler.submit(0, std::move(fg.graph)).get();
    ASSERT_TRUE(res.ok) << res.error;
    for (NodeId id = 0; id < committed; ++id) {
      const fabric::KernelResult& r = res.nodes[id];
      SCOPED_TRACE((lu ? "LU node " : "QR node ") + std::to_string(id));
      EXPECT_TRUE(r.ok);
      EXPECT_EQ(r.out.rows() * r.out.cols(), 0);
      EXPECT_TRUE(r.pivots.empty());
      EXPECT_TRUE(r.taus.empty());
      EXPECT_TRUE(r.spectrum.empty());
      EXPECT_GT(r.cycles.value(), 0.0);
      EXPECT_GT(r.energy_nj.value(), 0.0);
      EXPECT_GT(r.stats.mac_ops, 0);
    }
  }
  // Neither of these has a commit, so both keep their outputs.
  const NodeId immediate = 0, deferred = 1;
  const GraphResult res =
      scheduler
          .submit(0, adhoc_graph({{small_gemm(cfg, "immediate")},
                                  {[&cfg] { return small_gemm(cfg, "deferred"); }, "deferred"}}))
          .get();
  ASSERT_TRUE(res.ok) << res.error;
  for (NodeId id : {immediate, deferred}) {
    EXPECT_TRUE(res.nodes[id].ok);
    EXPECT_TRUE(res.nodes[id].out == plain.out) << id;
    EXPECT_EQ(res.nodes[id].cycles.value(), plain.cycles.value()) << id;
  }
}

/// Wraps a backend and records, per node, the thread each request runs on
/// (the tag carries the node id).
struct ThreadRecordingExecutor final : fabric::Executor {
  ThreadRecordingExecutor(const fabric::Executor& inner, std::size_t nodes)
      : inner(inner), ran(nodes) {}
  const char* name() const override { return inner.name(); }
  fabric::KernelResult execute(const fabric::KernelRequest& req) const override {
    ran[std::stoul(req.tag)] = std::this_thread::get_id();
    return inner.execute(req);
  }
  const fabric::Executor& inner;
  mutable std::vector<std::thread::id> ran;  // one slot per node, written once
};

/// Forwards to a graph's program; `make` records, per node, the thread it
/// runs on and tags the request with the node id.
struct ThreadRecordingProgram final : GraphProgram {
  explicit ThreadRecordingProgram(KernelGraph graph)
      : inner(std::move(graph)), made(inner.size()) {}
  fabric::KernelRequest make(NodeId id) override {
    made[id] = std::this_thread::get_id();
    fabric::KernelRequest req = inner.make(id);
    req.tag = std::to_string(id);
    return req;
  }
  bool commit(NodeId id, const fabric::KernelResult& result) override {
    return inner.commit(id, result);
  }
  std::string name(NodeId id) const override { return inner.name(id); }
  const KernelGraph inner;
  std::vector<std::thread::id> made;  // one slot per node, written once
};

TEST(GraphScheduler, DeferredRequestsBuildOnTheRunningWorker) {
  // A node's `make` runs on the worker that executes the node, so the
  // payloads it allocates are freed on the thread that allocated them.
  const arch::CoreConfig cfg = arch::lac_4x4_dp();
  for (const char* kind : {"CHOL", "LU", "QR"}) {
    SCOPED_TRACE(kind);
    const std::string k = kind;
    FactorGraph fg =
        k == "CHOL" ? build_cholesky_graph(cfg, 2.0, random_spd(64, 41).view(), 16)
        : k == "LU" ? build_lu_graph(cfg, 2.0, random_matrix(64, 64, 42).view(), 16)
                    : build_qr_graph(cfg, 2.0, random_matrix(64, 64, 43).view(), 16);
    const std::size_t nodes = fg.graph.size();
    // The test keeps the program, so `made` outlives the job.
    const auto program = std::make_shared<ThreadRecordingProgram>(fg.graph);
    const std::vector<std::thread::id>& made = program->made;
    const ThreadRecordingExecutor exec(kModel, nodes);
    ThreadPool pool(4);
    SchedulerOptions opts;
    opts.workers = 4;
    GraphScheduler scheduler(exec, opts, &pool);
    KernelGraph wrapped(std::make_shared<const GraphShape>(fg.graph.shape()), program);
    const GraphResult res = scheduler.submit(0, std::move(wrapped)).get();
    ASSERT_TRUE(res.ok) << res.error;
    for (NodeId id = 0; id < nodes; ++id) {
      EXPECT_NE(made[id], std::thread::id()) << id;
      EXPECT_EQ(made[id], exec.ran[id]) << id;
    }
  }
}

TEST(GraphScheduler, UnknownTenantFailsInBand) {
  // Resolved at once, hook run, never admitted -- in every build type
  // (RelWithDebInfo defines NDEBUG, where an assert would index past the
  // tenant roster).
  const arch::CoreConfig cfg = arch::lac_4x4_dp();
  GraphScheduler scheduler(kModel);
  auto graph = [&] { return adhoc_graph({{small_gemm(cfg, "g")}}); };
  std::atomic<int> hooks{0};
  auto ghook = [&hooks](const GraphResult& r) {
    if (!r.ok) hooks.fetch_add(1);
  };
  auto khook = [&hooks](const fabric::KernelResult& r) {
    if (!r.ok) hooks.fetch_add(1);
  };
  for (const TenantId unknown : {scheduler.tenant_count(), TenantId{7}}) {
    const std::string want = "unknown tenant " + std::to_string(unknown);
    SCOPED_TRACE(want);
    const GraphResult g1 = scheduler.submit(unknown, graph(), ghook).get();
    auto g2 = scheduler.try_submit(unknown, graph(), ghook);
    ASSERT_TRUE(g2.has_value());
    for (const GraphResult& r : {g1, g2->get()}) {
      EXPECT_FALSE(r.ok);
      EXPECT_EQ(r.error, want);
      EXPECT_TRUE(r.nodes.empty());
    }
    const fabric::KernelResult s1 = scheduler.submit(unknown, small_gemm(cfg, "s"), khook).get();
    auto s2 = scheduler.try_submit(unknown, small_gemm(cfg, "s"), khook);
    ASSERT_TRUE(s2.has_value());
    for (const fabric::KernelResult& r : {s1, s2->get()}) {
      EXPECT_FALSE(r.ok);
      EXPECT_EQ(r.error, want);
      EXPECT_EQ(r.cycles.value(), 0.0);
    }
    EXPECT_THROW(scheduler.tenant_stats(unknown), std::out_of_range);
  }
  EXPECT_EQ(hooks.load(), 8);
  EXPECT_EQ(scheduler.pending(), 0u);
  EXPECT_EQ(scheduler.peak_pending(), 0u);
  EXPECT_EQ(scheduler.tenant_stats(0).jobs_submitted, 0u);
  // A later valid submit still runs.
  EXPECT_TRUE(scheduler.submit(0, small_gemm(cfg, "ok")).get().ok);
  EXPECT_TRUE(scheduler.submit(0, graph()).get().ok);
  scheduler.drain();
  EXPECT_EQ(scheduler.tenant_stats(0).jobs_completed, 2u);
}

/// The inner backend's result, with the cost a request's tag names
/// ("cycles nan", "energy_nj -1e+12") replaced by the tagged value.
struct BadCostExecutor final : fabric::Executor {
  explicit BadCostExecutor(const fabric::Executor& inner) : inner(inner) {}
  const char* name() const override { return inner.name(); }
  fabric::KernelResult execute(const fabric::KernelRequest& req) const override {
    fabric::KernelResult res = inner.execute(req);
    const std::size_t space = req.tag.find(' ');
    if (space == std::string::npos) return res;
    const double value = std::stod(req.tag.substr(space + 1));
    if (req.tag.rfind("cycles", 0) == 0) res.cycles = units::Cycles(value);
    if (req.tag.rfind("energy_nj", 0) == 0) res.energy_nj = units::Nanojoules(value);
    return res;
  }
  const fabric::Executor& inner;
};

TEST(GraphScheduler, NonFiniteOrNegativeCostsFailInBand) {
  // Charged, a NaN or infinite cost would make the tenant's WFQ virtual
  // time NaN or inf, and -1e12 would let it win every pick: a result whose
  // cycles or energy is not finite and >= 0 fails in-band at zero cost.
  const arch::CoreConfig cfg = arch::lac_4x4_dp();
  const BadCostExecutor exec(kModel);
  ThreadPool pool(2);
  SchedulerOptions opts;
  opts.workers = 2;
  GraphScheduler scheduler(exec, opts, &pool);
  const TenantId bad = scheduler.add_tenant({"bad", 1.0, 0});
  const TenantId other = scheduler.add_tenant({"other", 2.0, 0});
  const fabric::KernelResult good = kModel.execute(small_gemm(cfg, "good"));
  ASSERT_TRUE(good.ok);
  const double inf = std::numeric_limits<double>::infinity();
  int graphs = 0;
  for (const std::string field : {"cycles", "energy_nj"})
    for (const double value : {std::numeric_limits<double>::quiet_NaN(), inf, -inf, -1e12}) {
      const std::string tag = field + " " + std::to_string(value);
      SCOPED_TRACE(tag);
      auto check_failed = [&](const fabric::KernelResult& r) {
        EXPECT_FALSE(r.ok);
        EXPECT_NE(r.error.find("not finite and >= 0: " + field + " = "), std::string::npos)
            << r.error;
        EXPECT_EQ(r.cycles.value(), 0.0);
        EXPECT_EQ(r.energy_nj.value(), 0.0);
      };
      // The other tenant's work runs alongside the bad one.
      std::future<fabric::KernelResult> alongside = scheduler.submit(other, small_gemm(cfg, "o"));
      check_failed(scheduler.submit(bad, small_gemm(cfg, tag)).get());

      const NodeId b = 0, down = 1, indep = 2;
      KernelGraph g = adhoc_graph({{small_gemm(cfg, tag), "bad"},
                                   {small_gemm(cfg, "down"), "down"},
                                   {small_gemm(cfg, "indep"), "indep"}},
                                  {{b, down}});
      const GraphResult res = scheduler.submit(bad, std::move(g)).get();
      ++graphs;
      EXPECT_FALSE(res.ok);
      EXPECT_EQ(res.error.rfind("bad: backend returned a cost", 0), 0u) << res.error;
      check_failed(res.nodes[b]);
      EXPECT_EQ(res.nodes[down].error.rfind("cancelled:", 0), 0u);
      EXPECT_TRUE(res.nodes[indep].ok);
      EXPECT_EQ(res.total_cycles.value(), good.cycles.value());
      EXPECT_EQ(res.energy_nj.value(), good.energy_nj.value());
      EXPECT_TRUE(alongside.get().ok);
      for (const TenantId t : {bad, other}) {
        const TenantStats st = scheduler.tenant_stats(t);
        EXPECT_TRUE(std::isfinite(st.virtual_time.value())) << st.name;
        EXPECT_GE(st.virtual_time.value(), 0.0) << st.name;
        EXPECT_TRUE(std::isfinite(st.cycles.value())) << st.name;
        EXPECT_TRUE(std::isfinite(st.energy_nj.value())) << st.name;
      }
    }
  scheduler.drain();
  // Only the independent nodes were charged, and a later valid unit is
  // charged normally.
  const TenantStats before = scheduler.tenant_stats(bad);
  EXPECT_DOUBLE_EQ(before.cycles.value(), graphs * good.cycles.value());
  EXPECT_EQ(before.units_failed, static_cast<std::uint64_t>(3 * graphs));
  EXPECT_TRUE(scheduler.submit(bad, small_gemm(cfg, "ok")).get().ok);
  const TenantStats after = scheduler.tenant_stats(bad);
  EXPECT_DOUBLE_EQ(after.cycles.value() - before.cycles.value(), good.cycles.value());
  EXPECT_DOUBLE_EQ(after.virtual_time.value() - before.virtual_time.value(),
                   good.cycles.value());
  EXPECT_DOUBLE_EQ(scheduler.tenant_stats(other).virtual_time.value(),
                   graphs * good.cycles.value() / 2.0);
}

TEST(GraphScheduler, ThrowingCompletionHookIsSwallowed) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  GraphScheduler scheduler(kModel);
  std::future<fabric::KernelResult> fut =
      scheduler.submit(0, small_gemm(cfg, "x"), [](const fabric::KernelResult&) {
        throw std::runtime_error("hook boom");
      });
  EXPECT_TRUE(fut.get().ok);  // the hook failure never reaches the future
  scheduler.drain();
  EXPECT_EQ(scheduler.pending(), 0u);
}

TEST(GraphScheduler, CostCacheBackendIsExactWithOneMissAtFourWorkers) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  fabric::CostCache cache;
  const fabric::ModelExecutor cached(&cache);
  ThreadPool pool(4);
  SchedulerOptions opts;
  opts.queue_capacity = 256;
  GraphScheduler scheduler(cached, opts, &pool);

  const int requests = test::scaled(120, 24);
  std::vector<std::future<fabric::KernelResult>> futs;
  for (int i = 0; i < requests; ++i)
    futs.push_back(scheduler.submit(0, small_gemm(cfg, "g" + std::to_string(i))));
  const fabric::KernelResult expect = kModel.execute(small_gemm(cfg, "x"));
  for (auto& f : futs) {
    fabric::KernelResult got = f.get();
    ASSERT_TRUE(got.ok);
    EXPECT_EQ(got.cycles.value(), expect.cycles.value());
    EXPECT_EQ(got.energy_nj.value(), expect.energy_nj.value());
    EXPECT_TRUE(got.out == expect.out);
  }
  // One distinct signature -> exactly one miss, even when workers race on
  // the cold key; every repeat hits.
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), static_cast<std::uint64_t>(requests) - 1u);
}

}  // namespace
}  // namespace lac::sched
