// ThreadPool lifecycle and dispatch: cost-hinted shard placement, work
// stealing, and parking and waking. The pool's submit/parallel_for
// semantics are in test_serving.cpp.
//
// Every wait here has a time limit: a lost wakeup fails the test instead
// of stalling the suite.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "test_support.hpp"

namespace lac {
namespace {

using namespace std::chrono_literals;

constexpr auto kLimit = 10s;

/// True once `f` is ready; false if it is not within kLimit.
template <typename T>
bool ready(std::future<T>& f) {
  return f.wait_for(kLimit) == std::future_status::ready;
}

/// Runs `fn` (a pool's destruction) on a helper thread and fails
/// the test if it has not returned within kLimit. A hung call cannot be
/// abandoned, so the process then aborts rather than stall.
void within_limit(const char* what, const std::function<void()>& fn) {
  std::promise<void> returned;
  std::future<void> done = returned.get_future();
  std::thread helper([&] {
    fn();
    returned.set_value();
  });
  if (!ready(done)) {
    ADD_FAILURE() << what << " did not return within 10 s";
    std::fprintf(stderr, "%s hung; aborting\n", what);
    std::abort();
  }
  helper.join();
}

/// Spins until `count()` reaches `want`; false after kLimit.
template <typename Count, typename T>
bool reaches(Count count, T want) {
  const auto deadline = std::chrono::steady_clock::now() + kLimit;
  while (count() < want)
    if (std::chrono::steady_clock::now() > deadline) return false;
    else std::this_thread::yield();
  return true;
}

/// Spins until `count` reaches `want`; false after kLimit.
bool reaches(const std::atomic<int>& count, int want) {
  return reaches([&count] { return count.load(); }, want);
}

/// Spins, without yielding, until `t`.
void spin_until(std::chrono::steady_clock::time_point t) {
  while (std::chrono::steady_clock::now() < t) {
  }
}

/// Park `count` workers of `pool` on gates so queue placement, not worker
/// timing, decides what runs when. gates[i] releases blocker i (which
/// worker picked it up is racy and does not matter to the callers).
std::vector<std::promise<void>> park_workers(ThreadPool& pool, int count) {
  std::vector<std::promise<void>> gates(static_cast<std::size_t>(count));
  std::atomic<int> parked{0};
  for (int i = 0; i < count; ++i) {
    std::shared_future<void> go = gates[static_cast<std::size_t>(i)].get_future().share();
    pool.post([&parked, go] {
      parked.fetch_add(1);
      go.wait();
    });
  }
  EXPECT_TRUE(reaches(parked, count)) << "the blockers did not all start";
  return gates;
}

TEST(ThreadPoolDispatch, ShortJobsOvertakeAQueuedLongJob) {
  // The size-aware serving pin: a long (high-cost-hint) job queued *first*
  // must not delay a burst of short jobs queued behind it. Two-choice
  // placement steers the shorts onto the other shard, and even under an
  // adversarial placement the idle worker steals them -- either way every
  // short completes while the long job is still running. A NaN or hugely
  // negative hint (an invalid request's estimate) charges one unit like
  // any short job instead of reaching the integer cast.
  for (double short_hint :
       {1.0, std::numeric_limits<double>::quiet_NaN(), -1e300}) {
    ThreadPool pool(2);
    std::vector<std::promise<void>> gates = park_workers(pool, 2);
    std::atomic<bool> long_done{false};
    std::atomic<int> shorts_before_long{0};
    std::future<void> long_fut = pool.submit_hinted(1e9, [&long_done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      long_done.store(true);
    });
    std::vector<std::future<void>> shorts;
    for (int i = 0; i < 8; ++i)
      shorts.push_back(pool.submit_hinted(short_hint, [&] {
        if (!long_done.load()) shorts_before_long.fetch_add(1);
      }));
    for (auto& g : gates) g.set_value();
    for (auto& f : shorts) ASSERT_TRUE(ready(f));
    ASSERT_TRUE(ready(long_fut));
    EXPECT_EQ(shorts_before_long.load(), 8) << "short hint " << short_hint;
  }
}

TEST(ThreadPoolSteal, IdleWorkerStealsFromAStalledShard) {
  // Queue equal-cost jobs across both shards, then release only one
  // worker. The other stays parked, so its shard's jobs can complete only
  // by being stolen -- the free worker must clear all four, and the
  // lac.pool.steals counter must record the cross-shard pops.
  obs::Counter& steals = obs::MetricsRegistry::global().counter("lac.pool.steals");
  ThreadPool pool(2);
  std::vector<std::promise<void>> gates = park_workers(pool, 2);
  const std::uint64_t steals_before = steals.value();
  std::vector<std::future<void>> futs;
  std::atomic<int> ran{0};
  for (int i = 0; i < 4; ++i)
    futs.push_back(pool.submit_hinted(100.0, [&ran] { ran.fetch_add(1); }));
  gates[0].set_value();
  for (auto& f : futs) ASSERT_TRUE(ready(f));  // one worker still held
  EXPECT_EQ(ran.load(), 4);
  EXPECT_GE(steals.value() - steals_before, 2u);  // the stalled shard's pair
  gates[1].set_value();
}

TEST(ThreadPoolSteal, StealStressMixedCostsLosesNoJobs) {
  // Two submitter threads interleave high- and unit-cost jobs across a
  // wide pool, so placement and stealing race live submits. Every job must
  // run exactly once, and the lac.pool.tasks counter (perfbench's
  // pool.tasks_per_op) must count each one once it has returned.
  obs::Counter& tasks = obs::MetricsRegistry::global().counter("lac.pool.tasks");
  const int per_thread = test::scaled(600, 60);
  for (int round = 0; round < test::scaled(4, 2); ++round) {
    ThreadPool pool(8);
    const std::uint64_t tasks_before = tasks.value();
    std::atomic<int> ran{0};
    auto submitter = [&pool, &ran, per_thread] {
      for (int i = 0; i < per_thread; ++i)
        pool.submit_hinted(i % 7 == 0 ? 1e6 : 1.0,
                           [&ran] { ran.fetch_add(1); });
    };
    std::thread a(submitter);
    std::thread b(submitter);
    a.join();
    b.join();
    const auto jobs = static_cast<std::uint64_t>(2 * per_thread);
    ASSERT_TRUE(reaches([&] { return tasks.value() - tasks_before; }, jobs))
        << "round " << round << ": " << ran.load() << " jobs ran";
    EXPECT_EQ(ran.load(), 2 * per_thread) << "round " << round;
    EXPECT_EQ(tasks.value() - tasks_before, jobs) << "round " << round;
  }
}

TEST(ThreadPoolPark, JobPostedToParkedWorkersRuns) {
  // Workers park as soon as the queues are empty; after about 20 ms idle
  // every worker is parked, and the next post alone must wake one.
  ThreadPool pool(4);
  for (int round = 0; round < test::scaled(200, 20); ++round) {
    std::this_thread::sleep_for(20ms);
    std::future<int> f = pool.submit([round] { return round; });
    ASSERT_TRUE(ready(f)) << "round " << round;
    EXPECT_EQ(f.get(), round);
  }
}

TEST(ThreadPoolPark, PostWhileTheWorkerParksIsNotLost) {
  // The only worker spins in a job until a shared instant t, while the test
  // sleeps (so that the two threads run on different CPUs), then spins to a
  // random point from 1 us before t to 2 us after it and posts the next
  // job. Posts so land as the worker finishes, sweeps the empty queue and
  // parks. A post that skips its wake because the worker is still
  // searching is caught by the worker's re-check of the queue count after
  // it publishes `parked`; without that re-check the job waits forever.
  std::atomic<int> ran{0};  // declared first: outlives the pool's workers
  ThreadPool pool(1);
  std::mt19937 rng(3);
  for (int i = 0; i < test::scaled(2000, 400); ++i) {
    const auto t = std::chrono::steady_clock::now() + 200us;
    pool.post([t] { spin_until(t); });
    std::this_thread::sleep_for(20us);
    spin_until(t - 1us + std::chrono::nanoseconds(rng() % 3000));
    pool.post([&ran] { ran.fetch_add(1); });
    const auto deadline = std::chrono::steady_clock::now() + kLimit;
    while (ran.load() <= i)
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "job " << i << " never ran";
  }
}

TEST(ThreadPoolPark, FourPostersWithIdleGapsRunEveryJobOnce) {
  // Four posters, each posting jobs after random idle gaps (none, a spin
  // of up to 20 us, or a sleep long enough for the workers to park), so
  // posts land while workers run, search and park. Half go through post,
  // half through submit with random cost hints.
  obs::Counter& tasks = obs::MetricsRegistry::global().counter("lac.pool.tasks");
  constexpr int kPosters = 4;
  const int per_poster = test::scaled(2000, 200);
  const int total = kPosters * per_poster;
  std::vector<std::atomic<int>> runs(static_cast<std::size_t>(total));
  std::atomic<int> done{0};
  ThreadPool pool(3);
  const std::uint64_t tasks_before = tasks.value();
  const auto poster = [&](int p) {
    std::mt19937 rng(static_cast<unsigned>(p) + 1u);
    for (int k = 0; k < per_poster; ++k) {
      const unsigned gap = rng() % 8;
      if (gap >= 4 && gap < 7)
        spin_until(std::chrono::steady_clock::now() + std::chrono::nanoseconds(rng() % 20000));
      else if (gap == 7)
        std::this_thread::sleep_for(std::chrono::microseconds(100 + rng() % 200));
      std::atomic<int>* slot = &runs[static_cast<std::size_t>(p * per_poster + k)];
      const auto job = [slot, &done] {
        slot->fetch_add(1);
        done.fetch_add(1);
      };
      if (k % 2 == 0)
        pool.post(job);
      else
        pool.submit_hinted(static_cast<double>(rng() % 1000), job);
    }
  };
  std::vector<std::thread> posters;
  posters.reserve(kPosters);
  for (int p = 0; p < kPosters; ++p) posters.emplace_back(poster, p);
  for (std::thread& t : posters) t.join();
  ASSERT_TRUE(reaches(done, total)) << done.load() << " of " << total << " jobs ran";
  ASSERT_TRUE(reaches([&] { return tasks.value() - tasks_before; },
                      static_cast<std::uint64_t>(total)));
  for (std::size_t i = 0; i < runs.size(); ++i) ASSERT_EQ(runs[i].load(), 1) << "job " << i;
  EXPECT_EQ(tasks.value() - tasks_before, static_cast<std::uint64_t>(total));
}

TEST(ThreadPoolPark, ParkedPoolIsDestroyedAndJoins) {
  auto pool = std::make_unique<ThreadPool>(4);
  std::future<void> started = pool->submit([] {});
  ASSERT_TRUE(ready(started));
  std::this_thread::sleep_for(20ms);  // every worker parks
  within_limit("destroying a parked pool", [&] { pool.reset(); });
}

TEST(ThreadPoolPark, OneWorkerRunsTheJobItsJobPosts) {
  // The only worker is running when its job posts the next one, so nobody
  // is parked to wake: the worker must find the follow-up itself.
  ThreadPool pool(1);
  constexpr int kChain = 1000;
  std::atomic<int> hops{0};
  std::promise<void> last;
  std::future<void> done = last.get_future();
  std::function<void()> hop = [&] {
    if (hops.fetch_add(1) + 1 == kChain)
      last.set_value();
    else
      pool.post([&hop] { hop(); });
  };
  pool.post([&hop] { hop(); });
  EXPECT_TRUE(ready(done));
  // The one worker runs jobs in order, so this runs after the chain's last.
  std::future<void> after = pool.submit([] {});
  ASSERT_TRUE(ready(after));
  EXPECT_EQ(hops.load(), kChain);
}

TEST(ThreadPoolJobs, MoveOnlyCallablesGoThroughSubmitAndPost) {
  std::promise<int> got;  // declared first: outlives the pool's workers
  std::future<int> g = got.get_future();
  ThreadPool pool(2);
  std::future<int> f = pool.submit([p = std::make_unique<int>(41)] { return *p + 1; });
  ASSERT_TRUE(ready(f));
  EXPECT_EQ(f.get(), 42);
  pool.post([q = std::make_unique<int>(7), &got] { got.set_value(*q); });
  ASSERT_TRUE(ready(g));
  EXPECT_EQ(g.get(), 7);
}

}  // namespace
}  // namespace lac
