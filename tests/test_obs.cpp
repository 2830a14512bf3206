// Observability layer tests: counter registry semantics and concurrency
// (sharded adds from many threads, stable get-or-create handles, racing
// counter creation).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "test_support.hpp"

namespace {

using namespace lac;

// ---- metrics registry ------------------------------------------------------

TEST(Metrics, CounterAccumulatesAcrossThreads) {
  obs::Counter& c =
      obs::MetricsRegistry::global().counter("lac.test.concurrent_adds");
  const std::uint64_t before = c.value();
  const unsigned threads = 8;
  const std::uint64_t per_thread = test::scaled<std::uint64_t>(20000, 500);
  ThreadPool pool(threads);
  std::vector<std::future<void>> futs;
  for (unsigned t = 0; t < threads; ++t)
    futs.push_back(pool.submit([&c, per_thread] {
      for (std::uint64_t i = 0; i < per_thread; ++i) c.add();
    }));
  for (auto& f : futs) f.get();
  EXPECT_EQ(c.value() - before, threads * per_thread);
}

TEST(Metrics, RegistryGetOrCreateIsStable) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::Counter& a = reg.counter("lac.test.stable");
  obs::Counter& b = reg.counter("lac.test.stable");
  EXPECT_EQ(&a, &b);
}

TEST(Metrics, RegistryCreationRaces) {
  // Hammer get-or-create on one shared name and per-thread names; every
  // thread must resolve the shared name to one instance (TSan lane covers
  // the map guarding, LAC_TEST_SCALE shrinks the hammering).
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  const unsigned threads = 8;
  const int rounds = static_cast<int>(test::scaled(200, 20));
  ThreadPool pool(threads);
  std::atomic<obs::Counter*> shared{nullptr};
  std::atomic<int> mismatches{0};
  std::vector<std::future<void>> futs;
  for (unsigned t = 0; t < threads; ++t)
    futs.push_back(pool.submit([&, t] {
      for (int r = 0; r < rounds; ++r) {
        obs::Counter& c = reg.counter("lac.test.race_shared");
        obs::Counter* expected = nullptr;
        if (!shared.compare_exchange_strong(expected, &c) && expected != &c)
          mismatches.fetch_add(1);
        reg.counter("lac.test.race_t" + std::to_string(t)).add();
      }
    }));
  for (auto& f : futs) f.get();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
