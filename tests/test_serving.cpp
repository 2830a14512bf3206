// The persistent serving layer: ThreadPool scheduling and exception
// semantics, AsyncExecutor futures under mixed-kernel stress on both
// backends, determinism across pool widths, CostCache hit behavior and
// table growth, and the zero-copy request path.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <complex>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arch/presets.hpp"
#include "common/random.hpp"
#include "common/thread_pool.hpp"
#include "fabric/kernel_registry.hpp"
#include "fabric/model_executor.hpp"
#include "fabric/serving.hpp"
#include "fabric/sim_executor.hpp"
#include "test_support.hpp"

namespace lac::fabric {
namespace {

const SimExecutor kSim;
const ModelExecutor kModel;

/// Mixed-kernel workload with deliberately repeated shapes (every repeat
/// shares the same operand payloads -- the zero-copy serving pattern).
std::vector<KernelRequest> serving_workload(int repeats) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  std::vector<KernelRequest> reqs;
  int seed = 1;
  for (index_t n : {16, 24}) {
    auto a = std::make_shared<const MatrixD>(random_matrix(n, n, seed++));
    auto b = std::make_shared<const MatrixD>(random_matrix(n, n, seed++));
    auto c = std::make_shared<const MatrixD>(random_matrix(n, n, seed++));
    auto l = std::make_shared<const MatrixD>(random_lower_triangular(n, seed++));
    auto spd = std::make_shared<const MatrixD>(random_spd(n, seed++));
    auto panel = std::make_shared<const MatrixD>(random_matrix(n, cfg.nr, seed++));
    const SharedCplxVector frames(
        random_cplx_vector(64 * static_cast<std::size_t>(n / 8), seed++));
    for (int r = 0; r < repeats; ++r) {
      reqs.push_back(make_gemm(cfg, 2.0, a, b, c));
      reqs.push_back(make_syrk(cfg, 2.0, a, c));
      reqs.push_back(make_trsm(cfg, 2.0, l, b));
      reqs.push_back(make_cholesky(cfg, 2.0, spd));
      reqs.push_back(make_lu(cfg, panel));
      reqs.push_back(make_qr(cfg, panel));
      reqs.push_back(make_fft(cfg, 2.0, frames));
    }
  }
  return reqs;
}

/// Serial reference: one execute() per request, in order.
std::vector<KernelResult> run_serial(const Executor& ex,
                                     const std::vector<KernelRequest>& reqs) {
  std::vector<KernelResult> out;
  out.reserve(reqs.size());
  for (const KernelRequest& req : reqs) out.push_back(ex.execute(req));
  return out;
}

/// Every request through an AsyncExecutor on `pool`, hinted by `hints`
/// when set; result i answers request i whatever order the workers finish
/// in.
std::vector<KernelResult> run_async(const Executor& ex, ThreadPool& pool,
                                    const std::vector<KernelRequest>& reqs,
                                    CostCache* hints = nullptr) {
  const AsyncExecutor async(ex, &pool, hints);
  std::vector<std::future<KernelResult>> futs;
  futs.reserve(reqs.size());
  for (const KernelRequest& req : reqs) futs.push_back(async.submit(req));
  std::vector<KernelResult> out;
  out.reserve(futs.size());
  for (auto& f : futs) out.push_back(f.get());
  return out;
}

TEST(ThreadPool, SubmitReturnsFutureValues) {
  ThreadPool pool(3);
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 64; ++i)
    futs.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 64; ++i) EXPECT_EQ(futs[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  std::future<int> fut =
      pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
  // The pool survives a throwing job.
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  // Empty and tiny ranges included: a cap above n clamps to n workers.
  ThreadPool pool(4);
  for (std::size_t n : {0u, 1u, 2u, 1000u}) {
    for (unsigned cap : {0u, 1u, 2u, 7u, 64u}) {
      std::vector<std::atomic<int>> hits(n);
      pool.parallel_for(
          n, [&](std::size_t i) { hits[i].fetch_add(1); }, cap);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i << " n " << n << " cap " << cap;
    }
  }
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  // Cap 1 runs serially on the caller; the pool path rethrows from a
  // helper. Either way the caller sees the original exception and message.
  ThreadPool pool(4);
  for (unsigned cap : {0u, 1u}) {
    try {
      pool.parallel_for(
          100,
          [](std::size_t i) {
            if (i == 41) throw std::invalid_argument("bad index 41");
          },
          cap);
      ADD_FAILURE() << "expected an exception, cap " << cap;
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "bad index 41") << "cap " << cap;
    }
  }
  // Reusable afterwards.
  std::atomic<int> n{0};
  pool.parallel_for(50, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 50);
}

TEST(ThreadPool, ParallelForProgressesWhenWorkersAreBusy) {
  // Occupy the whole pool with blocked jobs: the caller participates in
  // parallel_for, so it completes even with zero pool threads available.
  ThreadPool pool(2);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::vector<std::future<void>> blockers;
  for (int i = 0; i < 2; ++i)
    blockers.push_back(pool.submit([gate] { gate.wait(); }));
  std::atomic<int> n{0};
  pool.parallel_for(64, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 64);
  release.set_value();
  for (auto& b : blockers) b.get();
}

TEST(ZeroCopyRequest, SharedPayloadIsNotDuplicated) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  auto a = std::make_shared<const MatrixD>(random_matrix(16, 16, 70));
  auto b = std::make_shared<const MatrixD>(random_matrix(16, 16, 71));
  auto c = std::make_shared<const MatrixD>(random_matrix(16, 16, 72));
  KernelRequest req = make_gemm(cfg, 2.0, a, b, c);
  // The request references the caller's payloads...
  EXPECT_EQ(req.a.payload().get(), a.get());
  EXPECT_EQ(req.b.payload().get(), b.get());
  // ...and copying the request shares rather than duplicates them.
  KernelRequest copy = req;
  EXPECT_EQ(copy.a.payload().get(), a.get());
  EXPECT_EQ(a.use_count(), 3);  // caller + request + copy

  // Execution never mutates the shared operands.
  MatrixD c_before = *c;
  KernelResult sim = kSim.execute(req);
  KernelResult model = kModel.execute(req);
  ASSERT_TRUE(sim.ok && model.ok);
  EXPECT_TRUE(*c == c_before);
  // Both backends produced the same update from the shared payloads.
  for (index_t j = 0; j < 16; ++j)
    for (index_t i = 0; i < 16; ++i)
      EXPECT_NEAR(sim.out(i, j), model.out(i, j), 1e-9);
}

TEST(ZeroCopyRequest, ViewOperandsAreCopiedIntoTheRequest) {
  // A view operand -- a strided block of a larger matrix, a ViewD or a
  // ConstViewD of a whole one -- is deep-copied into the request's payload,
  // so overwriting or freeing the source leaves the request as built.
  const arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD big = random_matrix(24, 24, 73);
  MatrixD b = random_matrix(8, 8, 74);
  MatrixD c = random_matrix(16, 8, 75);
  const MatrixD a_want = to_matrix<double>(ConstViewD(big.block(4, 8, 16, 8)));
  const MatrixD b_want = b;
  const MatrixD c_want = c;
  const KernelRequest req =
      make_gemm(cfg, 2.0, big.block(4, 8, 16, 8), b.view(), std::as_const(c).view());
  for (MatrixD* m : {&big, &b, &c})
    for (index_t j = 0; j < m->cols(); ++j)
      for (index_t i = 0; i < m->rows(); ++i) (*m)(i, j) = 7.0;
  big = MatrixD();
  EXPECT_TRUE(req.a.matrix() == a_want);
  EXPECT_TRUE(req.b.matrix() == b_want);
  EXPECT_TRUE(req.c.matrix() == c_want);
  EXPECT_EQ(req.a.rows(), 16);
  EXPECT_EQ(req.a.cols(), 8);
}

TEST(AsyncExecutor, StressMixedKernelsBothBackends) {
  // 350 requests at full scale; LAC_TEST_SCALE shrinks the repeat count
  // for the sanitizer lanes (min 4 repeats keeps every kernel contended).
  const int repeats = test::scaled(25, 4);
  std::vector<KernelRequest> reqs = serving_workload(repeats);
  ASSERT_EQ(reqs.size(), 14u * static_cast<std::size_t>(repeats));
  for (const Executor* ex : {static_cast<const Executor*>(&kSim),
                             static_cast<const Executor*>(&kModel)}) {
    std::vector<KernelResult> expect = run_serial(*ex, reqs);
    std::vector<KernelResult> got = run_async(*ex, ThreadPool::shared(), reqs);
    ASSERT_EQ(got.size(), reqs.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(got[i].ok) << ex->name() << " request " << i << ": " << got[i].error;
      EXPECT_EQ(got[i].cycles.value(), expect[i].cycles.value())
          << ex->name() << " request " << i;
      EXPECT_TRUE(got[i].out == expect[i].out) << ex->name() << " request " << i;
    }
  }
}

TEST(AsyncExecutor, DeterministicAcrossPoolWidths) {
  std::vector<KernelRequest> reqs = serving_workload(4);
  for (const Executor* ex : {static_cast<const Executor*>(&kSim),
                             static_cast<const Executor*>(&kModel)}) {
    ThreadPool one(1);
    std::vector<KernelResult> expect = run_async(*ex, one, reqs);
    for (unsigned width : {2u, 5u}) {
      ThreadPool pool(width);
      std::vector<KernelResult> got = run_async(*ex, pool, reqs);
      ASSERT_EQ(got.size(), expect.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(got[i].ok) << ex->name() << " request " << i;
        EXPECT_EQ(got[i].cycles.value(), expect[i].cycles.value())
            << ex->name() << " width " << width;
        EXPECT_EQ(got[i].stats.mac_ops, expect[i].stats.mac_ops)
            << ex->name() << " width " << width;
        EXPECT_TRUE(got[i].out == expect[i].out)  // byte-identical
            << ex->name() << " width " << width;
      }
    }
  }
}

TEST(AsyncExecutor, CostHintedDispatchMatchesUnhintedResults) {
  // Size-aware dispatch must steer placement only: a hinted executor's
  // results are byte-identical to the un-hinted baseline, and the hint
  // source is the CostCache (repeated-shape traffic resolves to memo hits,
  // never a second simulation).
  std::vector<KernelRequest> reqs = serving_workload(3);
  ThreadPool plain_pool(4);
  std::vector<KernelResult> expect = run_async(kSim, plain_pool, reqs);

  CostCache hints;
  ThreadPool hinted_pool(4);
  std::vector<KernelResult> got = run_async(kSim, hinted_pool, reqs, &hints);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].cycles.value(), expect[i].cycles.value()) << "req " << i;
    EXPECT_TRUE(got[i].out == expect[i].out) << "req " << i;
  }
  // Every submission consulted the cache; the repeated shapes hit.
  EXPECT_EQ(hints.hits() + hints.misses(), reqs.size());
  EXPECT_GT(hints.hits(), 0u);
}

TEST(AsyncExecutor, CompletionHookRunsPerRequest) {
  std::vector<KernelRequest> reqs = serving_workload(2);
  std::atomic<int> completed{0};
  AsyncExecutor async(kModel);
  std::vector<std::future<KernelResult>> futs;
  for (KernelRequest& req : reqs)
    futs.push_back(async.submit(
        std::move(req), [&](const KernelResult& r) {
          if (r.ok) completed.fetch_add(1);
        }));
  for (auto& f : futs) EXPECT_TRUE(f.get().ok);
  EXPECT_EQ(completed.load(), static_cast<int>(futs.size()));
}

TEST(AsyncExecutor, BadBackendResultsFailInBand) {
  // A backend that throws, or returns a cost that is not finite and >= 0,
  // resolves its future in-band at zero cost -- the Executor contract is
  // "never an exception" -- and the completion hook sees the same result.
  struct BadExecutor final : Executor {
    const char* name() const override { return "bad"; }
    KernelResult execute(const KernelRequest& req) const override {
      if (req.tag == "throw") throw std::runtime_error("backend exploded");
      KernelResult res = kModel.execute(req);
      const double inf = std::numeric_limits<double>::infinity();
      if (req.tag == "cycles nan") res.cycles = units::Cycles(std::nan(""));
      if (req.tag == "cycles inf") res.cycles = units::Cycles(inf);
      if (req.tag == "cycles -inf") res.cycles = units::Cycles(-inf);
      if (req.tag == "energy_nj -1") res.energy_nj = units::Nanojoules(-1.0);
      return res;
    }
  } bad;
  ThreadPool pool(2);
  AsyncExecutor async(bad, &pool);
  const arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD spd = random_spd(16, 81);
  const std::pair<const char*, const char*> cases[] = {
      {"cycles nan", "not finite and >= 0: cycles = nan"},
      {"cycles inf", "not finite and >= 0: cycles = inf"},
      {"cycles -inf", "not finite and >= 0: cycles = -inf"},
      {"energy_nj -1", "not finite and >= 0: energy_nj = -1"},
      {"throw", "backend exception: backend exploded"},
  };
  for (const auto& [tag, error] : cases) {
    SCOPED_TRACE(tag);
    KernelRequest req = make_cholesky(cfg, 2.0, spd.view());
    req.tag = tag;
    KernelResult seen;
    const KernelResult res =
        async.submit(std::move(req), [&seen](const KernelResult& r) { seen = r; }).get();
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find(error), std::string::npos) << res.error;
    EXPECT_EQ(res.tag, tag);
    EXPECT_EQ(res.backend, "bad");
    EXPECT_EQ(res.cycles.value(), 0.0);
    EXPECT_EQ(res.energy_nj.value(), 0.0);
    EXPECT_EQ(res.avg_power_w.value(), 0.0);
    EXPECT_EQ(res.area_mm2.value(), 0.0);
    EXPECT_EQ(seen.ok, res.ok);
    EXPECT_EQ(seen.error, res.error);
    EXPECT_EQ(seen.cycles.value(), res.cycles.value());
    EXPECT_EQ(seen.energy_nj.value(), res.energy_nj.value());
  }
  // The pool survives; well-behaved backends keep serving.
  AsyncExecutor ok(kModel, &pool);
  EXPECT_TRUE(ok.submit(make_cholesky(cfg, 2.0, spd.view())).get().ok);
}

TEST(AsyncExecutor, HintedInvalidRequestsFailInBandUnpriced) {
  // The cost hint is priced only for a request that validates: TRSM's
  // cycle model divides by core.nr, so pricing this one at submit killed
  // the process with SIGFPE. Each request reaches the pool and fails there
  // with the error the unhinted executor gives, and nothing is cached.
  const std::pair<const char*, void (*)(KernelRequest&)> cases[] = {
      {"core.nr = 0", [](KernelRequest& r) { r.core.nr = 0; }},
      {"bw_words_per_cycle = 0", [](KernelRequest& r) { r.bw_words_per_cycle = 0.0; }},
      {"pe.pipeline_stages = 0", [](KernelRequest& r) { r.core.pe.pipeline_stages = 0; }},
  };
  ThreadPool pool(2);
  for (const Executor* ex : {static_cast<const Executor*>(&kSim),
                             static_cast<const Executor*>(&kModel)}) {
    CostCache hints;
    const AsyncExecutor plain(*ex, &pool);
    const AsyncExecutor hinted(*ex, &pool, &hints);
    for (const auto& [name, spoil] : cases) {
      SCOPED_TRACE(std::string(ex->name()) + ", " + name);
      KernelRequest req =
          kernel_traits(KernelKind::Trsm).sized_request(arch::lac_4x4_dp(), 2.0, 16, 9);
      spoil(req);
      const KernelResult want = plain.submit(req).get();
      const KernelResult got = hinted.submit(req).get();
      EXPECT_FALSE(want.ok);
      EXPECT_FALSE(got.ok);
      EXPECT_FALSE(got.error.empty());
      EXPECT_EQ(got.error, want.error);
      EXPECT_EQ(got.cycles.value(), 0.0);
    }
    EXPECT_EQ(hints.size(), 0u);
    EXPECT_EQ(hints.hits() + hints.misses(), 0u);
  }
}

TEST(CostCache, RepeatedShapesHitAndMatchUncached) {
  CostCache cache;
  ModelExecutor cached(&cache);
  std::vector<KernelRequest> reqs = serving_workload(test::scaled(10, 3));
  const std::size_t unique_shapes = serving_workload(1).size();

  ThreadPool pool(4);
  std::vector<KernelResult> got = run_async(cached, pool, reqs);
  std::vector<KernelResult> expect = run_serial(kModel, reqs);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i].ok);
    EXPECT_EQ(got[i].cycles.value(), expect[i].cycles.value()) << "request " << i;
    EXPECT_EQ(got[i].utilization, expect[i].utilization) << "request " << i;
    // The memoized energy path must be bit-identical to re-estimation.
    EXPECT_EQ(got[i].energy_nj.value(), expect[i].energy_nj.value()) << "request " << i;
    EXPECT_EQ(got[i].avg_power_w.value(), expect[i].avg_power_w.value()) << "request " << i;
    EXPECT_EQ(got[i].area_mm2.value(), expect[i].area_mm2.value()) << "request " << i;
  }
  // Exactly one miss per distinct shape -- threads racing on a cold key
  // resolve to one inserted entry (the miss) and hits for the losers.
  EXPECT_EQ(cache.hits() + cache.misses(), reqs.size());
  EXPECT_EQ(cache.misses(), unique_shapes);
  EXPECT_EQ(cache.size(), unique_shapes);
  EXPECT_EQ(cache.hits(), reqs.size() - unique_shapes);
  EXPECT_GT(cache.hits(), cache.misses());

  const std::uint64_t hits_before = cache.hits();
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_LT(cache.hits(), hits_before);
}

TEST(CostCache, ColdKeyRaceCountsOneMissPerEntry) {
  // Many threads racing on the same cold key must resolve to exactly one
  // miss (the inserting thread) -- the pre-fix behavior counted one miss
  // per racing thread for a single inserted entry, skewing the miss count.
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  auto a = std::make_shared<const MatrixD>(random_matrix(16, 16, 200));
  auto b = std::make_shared<const MatrixD>(random_matrix(16, 16, 201));
  auto c = std::make_shared<const MatrixD>(random_matrix(16, 16, 202));
  for (int round = 0; round < test::scaled(8, 2); ++round) {
    CostCache cache;
    constexpr unsigned kThreads = 8;
    ThreadPool pool(kThreads);
    std::vector<std::future<CostCache::Estimate>> futs;
    for (unsigned t = 0; t < kThreads; ++t)
      futs.push_back(pool.submit(
          [&] { return cache.estimate(make_gemm(cfg, 2.0, a, b, c)); }));
    CostCache::Estimate first = futs[0].get();
    for (std::size_t t = 1; t < futs.size(); ++t) {
      CostCache::Estimate e = futs[t].get();
      EXPECT_EQ(e.cycles.value(), first.cycles.value());
      EXPECT_EQ(e.energy_nj.value(), first.energy_nj.value());
    }
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.misses(), 1u) << "round " << round;
    EXPECT_EQ(cache.hits(), kThreads - 1u) << "round " << round;
  }

  // The same contract across shards: 8 threads walk 128 cold keys in the
  // same order (several keys per shard), so most keys are raced.
  std::vector<KernelRequest> keys;
  for (int i = 0; i < 64; ++i) {
    keys.push_back(make_gemm(cfg, 0.5 + 0.125 * i, a, b, c));
    keys.push_back(make_syrk(cfg, 0.5 + 0.125 * i, a, c));
  }
  for (int round = 0; round < test::scaled(4, 1); ++round) {
    CostCache cache;
    constexpr unsigned kThreads = 8;
    ThreadPool pool(kThreads);
    std::vector<std::future<void>> futs;
    for (unsigned t = 0; t < kThreads; ++t)
      futs.push_back(pool.submit([&] {
        for (const KernelRequest& req : keys) cache.estimate(req);
      }));
    for (std::future<void>& f : futs) f.get();
    EXPECT_EQ(cache.size(), keys.size()) << "round " << round;
    EXPECT_EQ(cache.misses(), keys.size()) << "round " << round;
    EXPECT_EQ(cache.hits() + cache.misses(), kThreads * keys.size())
        << "round " << round;
  }
}

TEST(CostCache, GrowthAndClearKeepEveryEntry) {
  // A dse_sweep-like grid of 4,860 distinct keys (kind x n x bandwidth x
  // node x SFU x clock on two core sizes), about 300 per shard, so every
  // shard's index doubles five or six times from its first 16 slots while
  // 4 threads insert. An entry the table loses shows as a second miss.
  std::vector<KernelRequest> grid;
  for (const arch::CoreConfig& core : {arch::lac_4x4_dp(), arch::lac_8x8_dp()})
    for (KernelKind kind : {KernelKind::Gemm, KernelKind::Syrk, KernelKind::Trsm,
                            KernelKind::Cholesky, KernelKind::Lu, KernelKind::Qr})
      for (index_t n : {16, 32, 48}) {
        const KernelRequest base = kernel_traits(kind).sized_request(core, 1.0, n, 3);
        for (double bw : {0.5, 1.0, 2.0, 4.0, 8.0})
          for (arch::TechNode node :
               {arch::TechNode::nm65, arch::TechNode::nm45, arch::TechNode::nm32})
            for (arch::SfuOption sfu : {arch::SfuOption::Software, arch::SfuOption::IsolatedUnit,
                                        arch::SfuOption::DiagonalPEs})
              for (double clock : {0.0, 0.8, 1.4}) {
                KernelRequest req = base;
                req.bw_words_per_cycle = bw;
                req.core.sfu = sfu;
                req.tech = arch::TechContext{node, clock};
                ASSERT_EQ(validate(req), "");
                grid.push_back(std::move(req));
              }
      }
  std::set<std::string> keys;
  for (const KernelRequest& req : grid) keys.insert(CostCache::signature(req));
  ASSERT_EQ(keys.size(), grid.size());

  // Bit-identical to an uncached model_cost.
  const auto matches = [](const CostCache::Estimate& e, const KernelRequest& req) {
    const ModelCost want = model_cost(req);
    const auto same = [](double a, double b) {
      return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
    };
    return same(e.cycles.value(), want.cycles.value()) &&
           same(e.utilization, want.utilization) &&
           same(e.energy_nj.value(), want.energy.energy_nj().value()) &&
           same(e.avg_power_w.value(), want.energy.avg_power_w.value()) &&
           same(e.area_mm2.value(), want.energy.area_mm2.value());
  };

  CostCache cache;
  ThreadPool pool(3);
  std::vector<CostCache::Estimate> got(grid.size());
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(pass == 0 ? "cold pass" : "warm pass");
    pool.parallel_for(
        grid.size(), [&](std::size_t i) { got[i] = cache.estimate(grid[i]); }, 4);
    EXPECT_EQ(cache.misses(), keys.size());
    EXPECT_EQ(cache.size(), keys.size());
    EXPECT_EQ(cache.hits() + cache.misses(), (pass + 1) * grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i)
      ASSERT_TRUE(matches(got[i], grid[i])) << "point " << i;
  }

  // clear() empties the table; a subset priced again misses again.
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits() + cache.misses(), 0u);
  std::size_t subset = 0;
  for (std::size_t i = 0; i < grid.size(); i += 7, ++subset)
    ASSERT_TRUE(matches(cache.estimate(grid[i]), grid[i])) << "point " << i;
  EXPECT_EQ(cache.misses(), subset);
  EXPECT_EQ(cache.size(), subset);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(CostCache, ColdKeyLookedUpTogetherInsertsOnce) {
  // Threads that miss one cold key together must leave one entry and count
  // one miss: the insert re-checks the key under the shard's lock. Threads
  // that start a walk at different times rarely meet inside a key's
  // pricing, so 4 threads meet at a spin barrier before every key and look
  // it up at once.
  constexpr int kThreads = 4;
  const int keys = test::scaled(200, 40);
  const KernelRequest base =
      kernel_traits(KernelKind::Gemm).sized_request(arch::lac_4x4_dp(), 1.0, 16, 4);
  std::vector<KernelRequest> reqs(static_cast<std::size_t>(keys), base);
  for (int k = 0; k < keys; ++k) reqs[k].bw_words_per_cycle = 0.5 + k;

  CostCache cache;
  std::atomic<int> arrived{0};
  std::vector<std::vector<double>> cycles(kThreads, std::vector<double>(reqs.size()));
  const auto walk = [&](int t) {
    for (int k = 0; k < keys; ++k) {
      arrived.fetch_add(1);
      for (long spins = 0; arrived.load() < (k + 1) * kThreads; ++spins)
        if (spins > 100000) std::this_thread::yield();  // more threads than cores
      cycles[t][k] = cache.estimate(reqs[k]).cycles.value();
    }
  };
  std::vector<std::thread> threads;
  for (int t = 1; t < kThreads; ++t) threads.emplace_back(walk, t);
  walk(0);
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(cache.size(), reqs.size());
  EXPECT_EQ(cache.misses(), reqs.size());
  EXPECT_EQ(cache.hits(), (kThreads - 1) * reqs.size());
  for (int k = 0; k < keys; ++k)
    for (int t = 0; t < kThreads; ++t)
      EXPECT_EQ(cycles[t][k], model_cost(reqs[k]).cycles.value()) << "key " << k;
}

TEST(CostCache, ColdKeyHeldInsidePricingInsertsOnce) {
  // The cache's pricing holds every thread inside a key's pricing until
  // all of them have missed that key, so each key is always raced: the
  // insert's re-check under the shard lock must leave one entry and count
  // one miss, however the host schedules the threads. A thread waits at
  // most 10 s for the others.
  constexpr int kThreads = 4;
  constexpr int kKeys = 16;
  std::atomic<int> inside{0};
  std::atomic<bool> timed_out{false};
  CostCache cache([&](const KernelRequest& req) {
    const int arrived = inside.fetch_add(1) + 1;
    const int all_in = (arrived + kThreads - 1) / kThreads * kThreads;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (inside.load() < all_in)
      if (std::chrono::steady_clock::now() > deadline) {
        timed_out.store(true);
        break;
      } else {
        std::this_thread::yield();
      }
    return model_cost(req);
  });
  const KernelRequest base =
      kernel_traits(KernelKind::Gemm).sized_request(arch::lac_4x4_dp(), 1.0, 16, 5);
  std::vector<KernelRequest> reqs(kKeys, base);
  for (int k = 0; k < kKeys; ++k) reqs[k].bw_words_per_cycle = 0.25 + k;

  std::vector<std::vector<double>> cycles(kThreads, std::vector<double>(kKeys));
  const auto walk = [&](int t) {
    for (int k = 0; k < kKeys; ++k) cycles[t][k] = cache.estimate(reqs[k]).cycles.value();
  };
  std::vector<std::thread> threads;
  threads.reserve(kThreads - 1);
  for (int t = 1; t < kThreads; ++t) threads.emplace_back(walk, t);
  walk(0);
  for (std::thread& thread : threads) thread.join();

  ASSERT_FALSE(timed_out.load()) << "the threads did not all reach a key's pricing";
  EXPECT_EQ(inside.load(), kThreads * kKeys);  // every lookup missed
  EXPECT_EQ(cache.size(), std::size_t{kKeys});
  EXPECT_EQ(cache.misses(), std::uint64_t{kKeys});
  EXPECT_EQ(cache.hits(), std::uint64_t{(kThreads - 1) * kKeys});
  for (int k = 0; k < kKeys; ++k)
    for (int t = 0; t < kThreads; ++t)
      EXPECT_EQ(cycles[t][k], model_cost(reqs[k]).cycles.value()) << "key " << k;
}

TEST(CostCache, SignatureKeysEveryEnergyRelevantField) {
  // Cycles ignore clock, precision, local-store sizing and the technology
  // context -- the energy model reads all of them, so the memo key must
  // separate each (the cycle-only cache would have aliased these points).
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD a = random_matrix(16, 16, 210), b = random_matrix(16, 16, 211),
          c = random_matrix(16, 16, 212);
  const KernelRequest base = make_gemm(cfg, 2.0, a.view(), b.view(), c.view());
  const std::string sig = CostCache::signature(base);

  KernelRequest other_node = base;
  other_node.tech.node = arch::TechNode::nm32;
  EXPECT_NE(CostCache::signature(other_node), sig);

  KernelRequest other_clock = base;
  other_clock.tech.clock_ghz = 1.4;
  EXPECT_NE(CostCache::signature(other_clock), sig);

  arch::CoreConfig sp = arch::lac_4x4_sp();
  EXPECT_NE(
      CostCache::signature(make_gemm(sp, 2.0, a.view(), b.view(), c.view())),
      sig);

  arch::CoreConfig small_store = cfg;
  small_store.pe.mem_a_kbytes = 8.0;
  EXPECT_NE(CostCache::signature(
                make_gemm(small_store, 2.0, a.view(), b.view(), c.view())),
            sig);

  // And a cached executor serves the distinct points distinct energies.
  CostCache cache;
  ModelExecutor cached(&cache);
  KernelResult at45 = cached.execute(base);
  KernelResult at32 = cached.execute(other_node);
  ASSERT_TRUE(at45.ok && at32.ok);
  EXPECT_EQ(at45.cycles.value(), at32.cycles.value());
  EXPECT_GT(at45.energy_nj.value(), at32.energy_nj.value());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(CostCache, SignatureSeparatesExtensionBools) {
  // The two MAC-extension flags are separate key fields: flipping either
  // one alone must change the key.
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD panel = random_matrix(16, 4, 220);
  const std::string base = CostCache::signature(make_lu(cfg, panel.view()));
  arch::CoreConfig with_cmp = cfg;
  with_cmp.pe.extensions.comparator = true;
  arch::CoreConfig with_exp = cfg;
  with_exp.pe.extensions.extended_exponent = true;
  const std::string sig_cmp = CostCache::signature(make_lu(with_cmp, panel.view()));
  const std::string sig_exp = CostCache::signature(make_lu(with_exp, panel.view()));
  EXPECT_NE(sig_cmp, base);
  EXPECT_NE(sig_exp, base);
  EXPECT_NE(sig_cmp, sig_exp);
}

TEST(CostCache, SignatureSeparatesShapeAndConfig) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD a16 = random_matrix(16, 16, 90), b16 = random_matrix(16, 16, 91),
          c16 = random_matrix(16, 16, 92);
  MatrixD a32 = random_matrix(32, 32, 93), b32 = random_matrix(32, 32, 94),
          c32 = random_matrix(32, 32, 95);
  KernelRequest r1 = make_gemm(cfg, 2.0, a16.view(), b16.view(), c16.view());
  KernelRequest same_shape =
      make_gemm(cfg, 2.0, b16.view(), a16.view(), c16.view());  // values differ
  KernelRequest other_n = make_gemm(cfg, 2.0, a32.view(), b32.view(), c32.view());
  KernelRequest other_bw = make_gemm(cfg, 4.0, a16.view(), b16.view(), c16.view());
  KernelRequest other_kind = make_syrk(cfg, 2.0, a16.view(), c16.view());
  EXPECT_EQ(CostCache::signature(r1), CostCache::signature(same_shape));
  EXPECT_NE(CostCache::signature(r1), CostCache::signature(other_n));
  EXPECT_NE(CostCache::signature(r1), CostCache::signature(other_bw));
  EXPECT_NE(CostCache::signature(r1), CostCache::signature(other_kind));

  arch::CoreConfig wider = cfg;
  wider.pe.pipeline_stages += 2;
  KernelRequest other_core =
      make_gemm(wider, 2.0, a16.view(), b16.view(), c16.view());
  EXPECT_NE(CostCache::signature(r1), CostCache::signature(other_core));

  // Bandwidths differing only past the sixth significant digit (a
  // fine-grained sweep step) must still key separately.
  KernelRequest bw_lo = make_gemm(cfg, 1024.001, a16.view(), b16.view(), c16.view());
  KernelRequest bw_hi = make_gemm(cfg, 1024.004, a16.view(), b16.view(), c16.view());
  EXPECT_NE(CostCache::signature(bw_lo), CostCache::signature(bw_hi));

  // One single-field change per remaining key field: every variant, and
  // each base, must land on its own key.
  const KernelTraits& chip_traits = kernel_traits(KernelKind::ChipGemm);
  const KernelRequest chip = chip_traits.sized_request(cfg, 2.0, 16, 7);
  const KernelRequest vnorm = make_vnorm(cfg, std::vector<double>(16, 1.0));
  std::map<std::string, std::string> seen;
  const auto distinct = [&seen](const std::string& label, const KernelRequest& req) {
    const auto [it, fresh] = seen.emplace(CostCache::signature(req), label);
    EXPECT_TRUE(fresh) << label << " shares a key with " << it->second;
  };
  const auto with_core = [&](const std::string& label, auto edit) {
    arch::CoreConfig core = cfg;
    edit(core);
    distinct(label, make_gemm(core, 2.0, a16.view(), b16.view(), c16.view()));
  };
  const auto with_chip = [&](const std::string& label, auto edit) {
    KernelRequest req = chip;
    edit(req);
    distinct(label, req);
  };
  distinct("gemm", r1);
  distinct("chip_gemm", chip);
  distinct("vnorm", vnorm);
  with_core("bus_latency", [](arch::CoreConfig& c) { c.bus_latency = 2; });
  with_core("sfu", [](arch::CoreConfig& c) { c.sfu = arch::SfuOption::DiagonalPEs; });
  with_core("sfu_latency_recip", [](arch::CoreConfig& c) { c.sfu_latency_recip += 1; });
  with_core("sfu_latency_rsqrt", [](arch::CoreConfig& c) { c.sfu_latency_rsqrt += 1; });
  with_core("sfu_latency_sqrt", [](arch::CoreConfig& c) { c.sfu_latency_sqrt += 1; });
  with_core("sw_emulation_cycles", [](arch::CoreConfig& c) { c.sw_emulation_cycles += 1; });
  with_core("mem_a_ports", [](arch::CoreConfig& c) { c.pe.mem_a_ports = 2; });
  with_core("mem_b_ports", [](arch::CoreConfig& c) { c.pe.mem_b_ports = 1; });
  with_core("mem_b_kbytes", [](arch::CoreConfig& c) { c.pe.mem_b_kbytes = 4.0; });
  distinct("overlap", make_gemm(cfg, 2.0, a16.view(), b16.view(), c16.view(),
                                model::Overlap::Full));
  distinct("owner_col", make_vnorm(cfg, std::vector<double>(16, 1.0), 1));
  distinct("x size", make_vnorm(cfg, std::vector<double>(32, 1.0)));
  with_chip("mc", [](KernelRequest& r) { r.mc *= 2; });
  with_chip("kc", [](KernelRequest& r) { r.kc *= 2; });
  with_chip("cores", [](KernelRequest& r) { r.chip.cores += 1; });
  with_chip("onchip_bw", [](KernelRequest& r) { r.chip.onchip_bw_words_per_cycle *= 2; });
  with_chip("offchip_bw", [](KernelRequest& r) { r.chip.offchip_bw_words_per_cycle *= 2; });
  with_chip("mem_kind", [](KernelRequest& r) { r.chip.mem_kind = arch::OnChipMemKind::Nuca; });
  with_chip("onchip_mem_mbytes", [](KernelRequest& r) { r.chip.onchip_mem_mbytes *= 2; });

  // ChipGemm's cycle and energy models read chip.core, not core: a deeper
  // pipeline at a faster clock costs more cycles and energy, so it must
  // not share the base point's entry.
  KernelRequest deep = chip;
  deep.chip.core.pe.pipeline_stages = 9;
  deep.chip.core.pe.clock_ghz = 2.0;
  distinct("chip.core", deep);
  CostCache cache;
  const CostCache::Estimate base_est = cache.estimate(chip);
  const CostCache::Estimate deep_est = cache.estimate(deep);
  EXPECT_EQ(deep_est.cycles.value(), model_cost(deep).cycles.value());
  EXPECT_EQ(deep_est.energy_nj.value(), model_cost(deep).energy.energy_nj().value());
  EXPECT_NE(deep_est.cycles.value(), base_est.cycles.value());
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(CostCache, SignatureKeysFftFieldsWithoutCollisions) {
  // Regression for the tenth kernel: the FFT-specific fields (variant,
  // frame count) are each part of the key, so no two distinct FFT
  // operating points can share an entry.
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  const std::vector<std::complex<double>> one = random_cplx_vector(64, 300);
  const std::vector<std::complex<double>> two = random_cplx_vector(128, 301);
  const KernelRequest base = make_fft(cfg, 2.0, one);
  const std::string sig = CostCache::signature(base);

  // Same payload size, different variant.
  std::vector<std::complex<double>> grid = random_cplx_vector(4096, 302);
  KernelRequest batched_grid = make_fft(cfg, 2.0, grid);
  KernelRequest four_step = make_fft(cfg, 2.0, grid, FftVariant::FourStep);
  EXPECT_NE(CostCache::signature(batched_grid), CostCache::signature(four_step));

  // Frame count is keyed (the cycle model scales with it).
  EXPECT_NE(CostCache::signature(make_fft(cfg, 2.0, two)), sig);

  // Same signature fields, different payload values: one entry.
  const std::vector<std::complex<double>> other_vals = random_cplx_vector(64, 303);
  EXPECT_EQ(CostCache::signature(make_fft(cfg, 2.0, other_vals)), sig);

  // And a cached model executor serves FFT traffic with one miss per
  // distinct operating point.
  CostCache cache;
  ModelExecutor cached(&cache);
  for (int repeat = 0; repeat < 4; ++repeat) {
    ASSERT_TRUE(cached.execute(base).ok);
    ASSERT_TRUE(cached.execute(make_fft(cfg, 2.0, two)).ok);
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 6u);
}

TEST(AsyncExecutor, FftByteIdenticalAcrossPoolWidths) {
  // The tenth kernel obeys the serving determinism contract: the same FFT
  // workload through AsyncExecutors of width 1, 2 and 4 produces
  // bit-identical spectra and identical accounting on both backends.
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  const SimExecutor sim;
  const ModelExecutor model;
  std::vector<KernelRequest> reqs;
  for (std::size_t frames : {1u, 2u, 4u}) {
    const SharedCplxVector payload(random_cplx_vector(64 * frames, 400 + frames));
    for (double bw : {1.0, 4.0})
      for (int repeat = 0; repeat < 3; ++repeat)
        reqs.push_back(make_fft(cfg, bw, payload));
  }
  for (const Executor* ex : {static_cast<const Executor*>(&sim),
                             static_cast<const Executor*>(&model)}) {
    ThreadPool serial(1);
    std::vector<KernelResult> expect = run_async(*ex, serial, reqs);
    for (unsigned width : {2u, 4u}) {
      ThreadPool pool(width);
      std::vector<KernelResult> got = run_async(*ex, pool, reqs);
      for (std::size_t i = 0; i < expect.size(); ++i) {
        ASSERT_TRUE(got[i].ok) << ex->name();
        EXPECT_EQ(got[i].cycles.value(), expect[i].cycles.value())
            << ex->name() << " req " << i;
        EXPECT_EQ(got[i].energy_nj.value(), expect[i].energy_nj.value()) << ex->name();
        ASSERT_EQ(got[i].spectrum.size(), expect[i].spectrum.size());
        // Byte-identical: exact complex equality, no tolerance.
        for (std::size_t g = 0; g < got[i].spectrum.size(); ++g)
          ASSERT_EQ(got[i].spectrum[g], expect[i].spectrum[g])
              << ex->name() << " req " << i << " point " << g;
      }
    }
  }
}

}  // namespace
}  // namespace lac::fabric
