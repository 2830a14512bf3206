#include "common/thread_pool.hpp"

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"

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

/// Blocks while `word` reads `expected`; returns at once if it does not,
/// and may return spuriously.
void futex_wait(std::atomic<std::uint32_t>& word, std::uint32_t expected) {
  syscall(SYS_futex, &word, FUTEX_WAIT_PRIVATE, expected, nullptr, nullptr, 0);
}

/// Wakes one thread blocked in futex_wait on `word`.
void futex_wake(std::atomic<std::uint32_t>& word) {
  syscall(SYS_futex, &word, FUTEX_WAKE_PRIVATE, 1, nullptr, nullptr, 0);
}

static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t) &&
                  std::atomic<std::uint32_t>::is_always_lock_free,
              "the futex reads the parking word as a plain 32-bit integer");

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
    joined.swap(workers_);
  }
  // A worker re-reads the flag after publishing `parked`, so each one either
  // sees it or is parked by the time the sweep below wakes it.
  stop_.store(true);
  for (auto& shard : shards_) wake(*shard);
  // Discard queued jobs (running ones finish first -- workers re-check
  // the queues before exiting, and a job popped concurrently with this
  // sweep simply runs).
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    const std::size_t dropped = shard->queue.size();
    shard->queue.clear();
    shard->cost.store(0, std::memory_order_relaxed);
    if (dropped > 0) queued_.fetch_sub(dropped);
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

void ThreadPool::enqueue(Job&& job, double cost_hint) {
  // Hintless jobs count one unit; hinted jobs land proportional to the
  // estimate, so one queued sim job outweighs hundreds of model jobs. A
  // NaN, infinite or sub-unit hint (an invalid request's estimate) counts
  // one unit too: it must never reach the integer cast.
  const std::int64_t cost = std::isfinite(cost_hint) && cost_hint >= 1.0
                                ? static_cast<std::int64_t>(std::min(cost_hint, 1e15))
                                : 1;

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
  // queued_ goes up before the job is visible so the parking protocol
  // never observes a posted job as "no work".
  queued_.fetch_add(1);
  {
    MutexLock lock(shard.mu);
    shard.queue.emplace_back(std::move(job), cost);
    shard.cost.fetch_add(cost, std::memory_order_relaxed);
  }
  // A searching worker will reach the job; otherwise wake a parked one,
  // the shard's owner first (see the header for why nothing is lost).
  if (searching_.load() == 0) wake_one(pick);
}

bool ThreadPool::wake(Shard& shard) {
  if (shard.park.load() != kParked) return false;
  // Counted before the CAS, so the worker never leaves the count before
  // joining it.
  searching_.fetch_add(1);
  std::uint32_t parked = kParked;
  if (shard.park.compare_exchange_strong(parked, kWoken)) {
    futex_wake(shard.park);
    return true;
  }
  // It re-checked and stayed up, or another poster woke it: either way it
  // is awake and counted.
  searching_.fetch_sub(1);
  return false;
}

void ThreadPool::wake_one(unsigned first) {
  for (unsigned k = 0, s = first; k < target_; ++k, s = s + 1 == target_ ? 0 : s + 1)
    if (wake(*shards_[s])) return;
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

void ThreadPool::worker_loop(unsigned me) {
  PoolMetrics& metrics = PoolMetrics::instance();
  std::atomic<std::uint32_t>& word = shards_[me]->park;
  bool searching = false;  // counted in searching_
  for (;;) {
    QueuedJob job;
    bool have = pop_from(me, job);
    if (!have && !searching) {
      searching_.fetch_add(1);
      searching = true;
    }
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
    if (have) {
      // The last searcher to find a job hands the search on while jobs
      // remain queued, since posters skipped their wakes while it searched.
      if (searching) {
        searching = false;
        if (searching_.fetch_sub(1) == 1 && queued_.load() > 0)
          wake_one(me + 1 == target_ ? 0 : me + 1);
      }
      // A job counts as a task once it has returned and released what it
      // captured.
      job.fn.run();
      metrics.tasks.add();
      continue;
    }
    // Park: publish, leave the search, then re-check before blocking.
    word.store(kParked);
    searching_.fetch_sub(1);
    if (queued_.load() > 0 || stop_.load()) {
      // Back to searching; a waker that flipped the word counted it already.
      if (word.exchange(kRunning) == kParked) searching_.fetch_add(1);
      // On stop with work still queued, keep popping: the destructor
      // clears the queues before it joins, so only jobs popped before its
      // sweep reaches them still run.
      if (stop_.load() && queued_.load() == 0) return;
      continue;
    }
    while (word.load() == kParked) futex_wait(word, kParked);
    word.store(kRunning, std::memory_order_relaxed);  // its waker counted it
  }
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
  // fetch_add saw next >= n); wait only for helpers mid-iteration. The
  // error moves out of the shared state under its lock: a helper still
  // queued holds `st`, and when it drops the last reference it must not be
  // the thread that destroys the exception the caller is handling.
  std::exception_ptr error;
  {
    MutexLock lock(st->mu);
    while (st->inflight.load() != 0) st->done.wait(st->mu);
    error = std::move(st->error);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace lac
