// The kernel-graph scheduler layer: DAG well-formedness and topological
// execution safety, determinism across worker widths, tiled-factorization
// builders against the references, weighted-fair multi-tenant scheduling,
// bounded-admission backpressure, failed-node cancellation with PR 2 zero-
// cost accounting, and the graph-parallel makespan speedup.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
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

fabric::KernelRequest small_gemm(const arch::CoreConfig& cfg, std::string tag) {
  static const auto a = std::make_shared<const MatrixD>(random_matrix(8, 8, 11));
  static const auto b = std::make_shared<const MatrixD>(random_matrix(8, 8, 12));
  static const auto c = std::make_shared<const MatrixD>(random_matrix(8, 8, 13));
  fabric::KernelRequest req = fabric::make_gemm(cfg, 2.0, a, b, c);
  req.tag = std::move(tag);
  return req;
}

TEST(KernelGraph, ValidateCatchesMalformedGraphs) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  KernelGraph ok;
  NodeId n0 = ok.add_node(small_gemm(cfg, "n0"));
  NodeId n1 = ok.add_node(small_gemm(cfg, "n1"));
  ok.add_edge(n0, n1);
  EXPECT_EQ(ok.validate(), "");
  EXPECT_EQ(ok.topo_order(), (std::vector<NodeId>{0, 1}));

  KernelGraph self;
  NodeId s = self.add_node(small_gemm(cfg, "s"));
  self.add_edge(s, s);
  EXPECT_NE(self.validate().find("self-dependency"), std::string::npos);

  // An edge naming a node that does not exist must fail validation, not
  // silently drop the dependency.
  KernelGraph dangling;
  NodeId d = dangling.add_node(small_gemm(cfg, "d"));
  dangling.add_edge(d, 99);
  EXPECT_NE(dangling.validate().find("malformed edge"), std::string::npos);
  KernelGraph dangling_from;
  NodeId d2 = dangling_from.add_node(small_gemm(cfg, "d2"));
  dangling_from.add_edge(99, d2);
  EXPECT_NE(dangling_from.validate().find("malformed edge"), std::string::npos);

  KernelGraph cyclic;
  NodeId a = cyclic.add_node(small_gemm(cfg, "a"));
  NodeId b = cyclic.add_node(small_gemm(cfg, "b"));
  cyclic.add_edge(a, b);
  cyclic.add_edge(b, a);
  EXPECT_NE(cyclic.validate().find("cycle"), std::string::npos);

  // The scheduler resolves an invalid graph immediately with ok = false.
  GraphScheduler scheduler(kModel);
  GraphResult res = scheduler.submit(0, std::move(cyclic)).get();
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("invalid graph"), std::string::npos);
}

TEST(KernelGraph, ListMakespanMatchesHandComputedSchedules) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  // Chain of 3: serialized regardless of W.
  KernelGraph chain;
  NodeId c0 = chain.add_node(small_gemm(cfg, "0"));
  NodeId c1 = chain.add_node(small_gemm(cfg, "1"));
  NodeId c2 = chain.add_node(small_gemm(cfg, "2"));
  chain.add_edge(c0, c1);
  chain.add_edge(c1, c2);
  std::vector<fabric::KernelResult> costs(3);
  costs[0].cycles = units::Cycles(10.0);
  costs[1].cycles = units::Cycles(20.0);
  costs[2].cycles = units::Cycles(30.0);
  EXPECT_DOUBLE_EQ(list_makespan(chain, costs, 4).value(), 60.0);
  EXPECT_DOUBLE_EQ(serial_cycles(costs).value(), 60.0);

  // Fork: two independent successors overlap on 2 workers.
  KernelGraph fork;
  NodeId f0 = fork.add_node(small_gemm(cfg, "0"));
  NodeId f1 = fork.add_node(small_gemm(cfg, "1"));
  NodeId f2 = fork.add_node(small_gemm(cfg, "2"));
  fork.add_edge(f0, f1);
  fork.add_edge(f0, f2);
  EXPECT_DOUBLE_EQ(list_makespan(fork, costs, 2).value(), 40.0);  // 10 + max(20, 30)
  EXPECT_DOUBLE_EQ(list_makespan(fork, costs, 1).value(), 60.0);  // serialized
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
    KernelGraph g;
    std::vector<std::vector<NodeId>> deps(n);
    for (std::size_t i = 0; i < n; ++i)
      g.add_node(small_gemm(cfg, std::to_string(i)));
    for (std::size_t j = 1; j < n; ++j) {
      const int fanin = static_cast<int>(rng.next_index(4));
      for (int e = 0; e < fanin; ++e) {
        const NodeId from = static_cast<NodeId>(rng.next_index(j));
        g.add_edge(from, j);
        deps[j].push_back(from);
      }
    }
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

TEST(GraphScheduler, WeightedFairShareBetweenTenants) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  std::promise<void> release;
  GateExecutor gated(kModel, release.get_future().share());
  RecordingExecutor rec(gated);
  ThreadPool pool(1);
  SchedulerOptions opts;
  opts.workers = 1;
  opts.batch_limit = 1;  // strict WFQ order, no affinity reordering
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

TEST(GraphScheduler, PriorityClassPreemptsFairShare) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  std::promise<void> release;
  GateExecutor gated(kModel, release.get_future().share());
  RecordingExecutor rec(gated);
  ThreadPool pool(1);
  SchedulerOptions opts;
  opts.workers = 1;
  opts.batch_limit = 1;
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

  KernelGraph g;
  NodeId fail = g.add_node(fabric::make_cholesky(cfg, 2.0, bad.view()), "bad-chol");
  NodeId down = g.add_node(small_gemm(cfg, "down"));
  NodeId indep = g.add_node(small_gemm(cfg, "indep"));
  g.add_edge(fail, down);
  (void)indep;

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
  KernelGraph g;
  NodeId ok_node = g.add_node(small_gemm(cfg, "fine"));
  NodeId boom = g.add_node(
      []() -> fabric::KernelRequest { throw std::runtime_error("make boom"); },
      "boom");
  NodeId down = g.add_node(small_gemm(cfg, "down"));
  g.add_edge(boom, down);
  (void)ok_node;

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
    KernelGraph g;
    NodeId fail = g.add_node(fabric::make_cholesky(cfg, 2.0, bad.view()), "bad");
    NodeId mid = g.add_node(small_gemm(cfg, "mid"));
    NodeId down = g.add_node(small_gemm(cfg, "down"));
    NodeId indep = g.add_node(small_gemm(cfg, "indep"));
    g.add_edge(fail, mid);
    g.add_edge(mid, down);
    (void)indep;
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

TEST(GraphScheduler, AffinityBatchingKeepsCostCacheResultsExact) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  fabric::CostCache cache;
  const fabric::ModelExecutor cached(&cache);
  ThreadPool pool(4);
  SchedulerOptions opts;
  opts.batch_limit = 8;
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
  // One distinct signature -> exactly one miss; the batched repeats hit.
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), static_cast<std::uint64_t>(requests) - 1u);
}

}  // namespace
}  // namespace lac::sched
