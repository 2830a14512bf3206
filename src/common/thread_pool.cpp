#include "common/thread_pool.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lac {
namespace {

/// Counter handles resolved once per process (registry references are
/// stable), so the worker hot path never touches the registry lock.
struct PoolMetrics {
  obs::Counter& tasks;
  obs::Counter& steals;

  static PoolMetrics& instance() {
    static PoolMetrics* m = new PoolMetrics{
        obs::MetricsRegistry::global().counter("lac.pool.tasks"),
        obs::MetricsRegistry::global().counter("lac.pool.steals")};
    return *m;
  }
};

}  // namespace

ThreadPool::ThreadPool(unsigned threads)
    : target_(threads > 0 ? threads
                          : std::max(1u, std::thread::hardware_concurrency())) {
  shards_.reserve(target_);
  for (unsigned i = 0; i < target_; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

ThreadPool::~ThreadPool() {
  std::vector<std::thread> joined;
  {
    MutexLock lock(mu_);
    stop_ = true;
    joined.swap(workers_);
    cv_.notify_all();
  }
  // Discard queued jobs (running ones finish first -- workers re-check
  // the queues before exiting, and a job popped concurrently with this
  // sweep simply runs).
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    const std::size_t dropped = shard->queue.size();
    shard->queue.clear();
    shard->cost.store(0, std::memory_order_relaxed);
    if (dropped > 0) {
      queued_.fetch_sub(dropped);
      outstanding_.fetch_sub(dropped);
    }
  }
  for (std::thread& t : joined) t.join();
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::start_locked() {
  started_ = true;
  workers_.reserve(target_);
  for (unsigned w = 0; w < target_; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
  started_flag_.store(true, std::memory_order_release);
}

void ThreadPool::post_hinted(std::function<void()> job, double cost_hint) {
  QueuedJob qj;
  qj.fn = std::move(job);
  // Hintless jobs count one unit; hinted jobs land proportional to the
  // estimate, so one queued sim job outweighs hundreds of model jobs. A
  // NaN, infinite or sub-unit hint (an invalid request's estimate) counts
  // one unit too: it must never reach the integer cast.
  qj.cost = std::isfinite(cost_hint) && cost_hint >= 1.0
                ? static_cast<std::int64_t>(std::min(cost_hint, 1e15))
                : 1;
  const std::int64_t cost = qj.cost;

  if (!started_flag_.load(std::memory_order_acquire)) {
    MutexLock lock(mu_);
    if (!started_) start_locked();
  }

  // Two-choice placement: of two round-robin candidates, take the shard
  // with the smaller queued cost. This is what keeps short jobs from
  // parking behind a long one -- the shard holding a queued sim job has a
  // huge cost and loses every comparison until it drains.
  const std::uint64_t t = rr_.fetch_add(1, std::memory_order_relaxed);
  unsigned pick = static_cast<unsigned>(t % target_);
  if (target_ > 1) {
    const unsigned alt = static_cast<unsigned>((t + 1) % target_);
    if (shards_[alt]->cost.load(std::memory_order_relaxed) <
        shards_[pick]->cost.load(std::memory_order_relaxed))
      pick = alt;
  }

  Shard& shard = *shards_[pick];
  // outstanding_/queued_ go up before the job is visible so drain() and
  // the sleep protocol never observe a posted job as "no work".
  outstanding_.fetch_add(1);
  queued_.fetch_add(1);
  {
    MutexLock lock(shard.mu);
    shard.queue.push_back(std::move(qj));
    shard.cost.fetch_add(cost, std::memory_order_relaxed);
  }
  // Wake a sleeper only when one exists; the notify is taken under mu_ so
  // it cannot slip between a worker's queued_ re-check and its wait.
  if (sleepers_.load() > 0) {
    MutexLock lock(mu_);
    cv_.notify_one();
  }
}

bool ThreadPool::pop_from(unsigned shard_idx, QueuedJob& out) {
  Shard& shard = *shards_[shard_idx];
  MutexLock lock(shard.mu);
  if (shard.queue.empty()) return false;
  out = std::move(shard.queue.front());
  shard.queue.pop_front();
  shard.cost.fetch_sub(out.cost, std::memory_order_relaxed);
  queued_.fetch_sub(1);
  return true;
}

void ThreadPool::run_job(QueuedJob&& job) {
  {
    // Parent scope for any spans the job opens (serving.execute,
    // sched.run, ...); one relaxed load when no session is active.
    obs::Span span("pool.task", "pool");
    job.fn();
  }
  // Count the task before releasing it, so drain() returns only after
  // every task it waited for is counted.
  PoolMetrics::instance().tasks.add();
  if (outstanding_.fetch_sub(1) == 1) {
    MutexLock lock(mu_);
    idle_cv_.notify_all();
  }
}

void ThreadPool::worker_loop(unsigned me) {
  PoolMetrics& metrics = PoolMetrics::instance();
  for (;;) {
    QueuedJob job;
    bool have = pop_from(me, job);
    if (!have && queued_.load() > 0) {
      // Steal: try the costliest shard first (it has the deepest backlog),
      // then sweep the rest. Taking the oldest job preserves FIFO order.
      unsigned victim = me;
      std::int64_t best = 0;
      for (unsigned s = 0; s < target_; ++s) {
        const std::int64_t c = shards_[s]->cost.load(std::memory_order_relaxed);
        if (s != me && c > best) {
          best = c;
          victim = s;
        }
      }
      if (victim != me) have = pop_from(victim, job);
      for (unsigned s = 0; !have && s < target_; ++s)
        if (s != me && s != victim) have = pop_from(s, job);
      if (have) metrics.steals.add();
    }
    if (!have) {
      MutexLock lock(mu_);
      // Re-check under mu_: post() publishes queued_ before it checks
      // sleepers_, so either we see the job here or post() sees us after
      // the increment below and notifies under mu_.
      if (queued_.load() == 0) {
        // On stop with work still queued, keep draining: shutdown()
        // promises completion, and the destructor clears the queues
        // before its final joins anyway.
        if (stop_) return;
        ++sleepers_;
        cv_.wait(mu_);
        --sleepers_;
      }
      continue;
    }
    run_job(std::move(job));
  }
}

void ThreadPool::drain() {
  MutexLock lock(mu_);
  while (outstanding_.load() != 0) idle_cv_.wait(mu_);
}

void ThreadPool::shutdown() {
  std::vector<std::thread> joined;
  {
    MutexLock lock(mu_);
    // One quiesce at a time: a second caller entering while the first is
    // joining would reset stop_ before the first caller's workers observe
    // it, wedging that join forever.
    while (quiescing_ || outstanding_.load() != 0) idle_cv_.wait(mu_);
    if (!started_) return;
    quiescing_ = true;
    stop_ = true;
    joined.swap(workers_);
    cv_.notify_all();
  }
  for (std::thread& t : joined) t.join();
  {
    MutexLock lock(mu_);
    stop_ = false;
    started_ = false;
    quiescing_ = false;
    started_flag_.store(false, std::memory_order_release);
  }
  idle_cv_.notify_all();
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn,
                              unsigned max_workers) {
  const unsigned cap = max_workers > 0 ? max_workers : target_;
  if (cap <= 1 || n < 2) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Shared claim/completion state. Helpers that the queue only gets to
  // after the caller has already claimed everything find next >= n and
  // exit without touching fn, so the state is kept alive by shared_ptr
  // rather than by blocking the caller on stragglers.
  struct Join {
    std::size_t n;
    std::function<void(std::size_t)> fn;
    std::atomic<std::size_t> next{0};
    std::atomic<unsigned> inflight{0};
    Mutex mu;
    CondVar done;
    std::exception_ptr error LAC_GUARDED_BY(mu);
  };
  auto st = std::make_shared<Join>();
  st->n = n;
  st->fn = fn;

  auto runner = [st] {
    st->inflight.fetch_add(1);
    try {
      for (std::size_t i = st->next.fetch_add(1); i < st->n;
           i = st->next.fetch_add(1))
        st->fn(i);
    } catch (...) {
      MutexLock lock(st->mu);
      if (!st->error) st->error = std::current_exception();
      // Drain the remaining iterations so sibling runners exit promptly.
      st->next.store(st->n);
    }
    if (st->inflight.fetch_sub(1) == 1) {
      MutexLock lock(st->mu);
      st->done.notify_all();
    }
  };

  // The caller is one of the workers; only the surplus goes to the pool.
  const unsigned total =
      static_cast<unsigned>(std::min<std::size_t>(std::min(cap, target_ + 1), n));
  for (unsigned w = 1; w < total; ++w) post(runner);
  runner();

  // All indices are claimed once the caller's runner returns (its final
  // fetch_add saw next >= n); wait only for helpers mid-iteration.
  {
    MutexLock lock(st->mu);
    while (st->inflight.load() != 0) st->done.wait(st->mu);
    if (st->error) std::rethrow_exception(st->error);
  }
}

}  // namespace lac
