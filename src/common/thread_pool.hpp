#pragma once
// Persistent work-queue thread pool: the one parallel primitive in the tree.
//
// Spawning and joining threads on every call taxes a sustained serving
// path, so the ThreadPool keeps a fixed set of workers alive across calls
// (started lazily on first use, so merely constructing one -- or linking
// the shared instance -- costs nothing). `submit` returns a std::future for
// any callable; `parallel_for` runs index-addressed work with worker-count
// clamping and rethrows the first exception on the caller.
//
// Queueing is sharded: each worker owns a deque (its shard), and jobs are
// placed by two-choice cost balancing -- every job carries a cost hint
// (serving passes the model/CostCache cycle estimate; un-hinted jobs count
// as one unit), and a new job goes to the cheaper of two round-robin
// candidate shards. Idle workers steal the oldest job from the most loaded
// shard. The combination is what keeps tail latency flat under mixed
// traffic: a short model job is never placed behind a queued long sim job
// (placement sees the backlog cost), and even a misplaced one is stolen by
// the first worker to go idle.
//
// Job storage: a queued job is a `Job`, a move-only callable stored inline
// in three pointers' worth of bytes, with no heap fallback. `submit` keeps
// its std::packaged_task there, so the task's shared state (which the
// future reads) is the one allocation a submission makes; `post` keeps the
// caller's lambda there, and a lambda that does not fit fails to compile.
//
// Parking: each worker owns a 32-bit parking word on its own cache line,
// reading running, parked or woken; no lock is taken to park or to wake.
//   - A worker whose own shard is empty counts itself in `searching_` and
//     sweeps the other shards. Finding nothing, it publishes `parked`,
//     leaves the count, re-checks `queued_` and the stop flag, and only
//     then blocks on its word (a futex wait, which returns at once unless
//     the word still reads `parked`).
//   - A poster enqueues, then, if no worker is searching, flips one parked
//     word to `woken` with a CAS (the shard's owner first) and wakes it
//     with one futex call. The waker counts the woken worker as searching
//     before the CAS, so later posters leave it to that worker.
//   - While any worker is searching, posters wake nobody. The last searcher
//     to find a job, if more are queued, wakes a parked peer to continue
//     the search.
//
// No lost wakeup. Every access to `queued_`, `searching_`, the stop flag
// and the parking words below is seq_cst, so they fall in one total order:
//   poster P:  queued_ += 1;  s = searching_;  if s == 0, wake a parked worker
//   worker W:  word = parked;  searching_ -= 1;  q = queued_;  stop = stop_;
//              block while word == parked, only if q == 0 and !stop
// Say W blocks for good while P's job stays queued. W read q == 0, so its
// three steps precede P's increment, and P reads searching_ after W's
// decrement. If P reads 0, its scan comes after W published `parked`, so P
// finds W's word parked (or woken by someone else) and its CAS and futex
// wake reach W; a CAS that lands before W's futex wait makes the wait
// return at once. If P reads s > 0, the workers counted at that moment
// leave the count later, each either to park, and then its re-check of
// `queued_` sees the job and it searches again instead of blocking, or
// because it found a job; the last of those re-reads `queued_`, sees the
// job and wakes a parked peer (if none is parked, every worker is awake
// and sweeps again). A waker counts a worker before its CAS and takes the
// count back if the CAS fails, and then that worker is awake already: it
// re-checked and stayed up, or another poster woke it. The destructor
// pairs the stop flag with the parking words the same way: it stores the
// flag, then wakes every parked word, and a worker re-reads the flag after
// publishing `parked`.
//
// Locking: each shard has its own lac::Mutex guarding only that deque; the
// global `mu_` guards the worker list and lazy start, so workers take no
// pool-wide lock. Aggregate counts (`queued_`, `searching_`, shard backlog
// costs) are atomics. Everything mutex-guarded is annotated for Clang's
// thread-safety analysis (see common/thread_annotations.hpp): a dedicated
// CI lane compiles with -Wthread-safety -Werror.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <new>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/mutex.hpp"

namespace lac {

class ThreadPool {
 public:
  /// `threads` = 0 sizes the pool to the hardware concurrency (min 1).
  /// Workers are not started until the first job is posted.
  explicit ThreadPool(unsigned threads = 0);

  /// Drains nothing: queued jobs that have not started are discarded, but
  /// running jobs complete before the workers join.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Process-wide pool shared by the serving layer and one-shot sweeps.
  /// Lazily constructed on first use.
  static ThreadPool& shared();

  /// Worker count the pool was sized to.
  unsigned size() const { return target_; }

  /// Queue a callable; the returned future carries its result or exception.
  template <typename F, typename R = std::invoke_result_t<std::decay_t<F>>>
  std::future<R> submit(F&& f) {
    return submit_hinted(0.0, std::forward<F>(f));
  }

  /// submit() with a relative cost hint (any monotone proxy for runtime --
  /// the serving layer passes predicted cycles). Hints only steer shard
  /// placement; they never reorder jobs within a shard, so results must
  /// not (and do not) depend on them. The callable may be move-only.
  template <typename F, typename R = std::invoke_result_t<std::decay_t<F>>>
  std::future<R> submit_hinted(double cost_hint, F&& f) {
    std::packaged_task<R()> task(std::forward<F>(f));
    std::future<R> fut = task.get_future();
    enqueue(Job(std::move(task)), cost_hint);
    return fut;
  }

  /// Fire-and-forget: queue a job with no future (the scheduler's dispatch
  /// loops don't need one). The job must not throw, and must fit a Job:
  /// capture pointers or a shared_ptr, not payloads.
  template <typename F>
  void post(F&& job) {
    enqueue(Job(std::forward<F>(job)), 0.0);
  }

  /// Run fn(i) for i in [0, n) across the pool, the calling thread
  /// participating as one worker (so progress never depends on pool
  /// availability, even when every pool thread is busy elsewhere).
  /// `max_workers` caps the total worker count (0 = pool size, 1 = serial);
  /// results must never depend on it. Exceptions thrown by fn are captured,
  /// remaining iterations are abandoned (fail-fast), and the first
  /// exception is rethrown here after all in-flight iterations finish.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    unsigned max_workers = 0);

 private:
  /// A queued callable, stored inline. run() invokes it once and destroys
  /// it, so what it captured is released before the job counts as done.
  class Job {
   public:
    /// A shared_ptr and one pointer more: a packaged_task or a runner
    /// holding a shared_ptr is two pointers, a `[this]` loop one.
    static constexpr std::size_t kCapacity = 3 * sizeof(void*);

    Job() = default;
    template <typename F, typename Fn = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<Fn, Job>>>
    explicit Job(F&& f) : manage_(&manage<Fn>) {
      static_assert(sizeof(Fn) <= kCapacity && alignof(Fn) <= alignof(void*),
                    "a pool job is stored inline: capture pointers or a "
                    "shared_ptr, not payloads");
      static_assert(std::is_nothrow_move_constructible_v<Fn>,
                    "a pool job must move without throwing");
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    }
    Job(Job&& other) noexcept : manage_(std::exchange(other.manage_, nullptr)) {
      if (manage_) manage_(Op::Move, other.storage_, storage_);
    }
    Job& operator=(Job&& other) noexcept {
      if (this != &other) {
        reset();
        manage_ = std::exchange(other.manage_, nullptr);
        if (manage_) manage_(Op::Move, other.storage_, storage_);
      }
      return *this;
    }
    Job(const Job&) = delete;
    Job& operator=(const Job&) = delete;
    ~Job() { reset(); }

    void run() { std::exchange(manage_, nullptr)(Op::Run, storage_, nullptr); }

   private:
    enum class Op { Run, Move, Destroy };

    /// Runs, moves (into `to`) or destroys the Fn at `self`; every op ends
    /// the object at `self`.
    template <typename Fn>
    static void manage(Op op, void* self, void* to) {
      struct End {
        Fn* fn;
        ~End() { fn->~Fn(); }
      } end{std::launder(static_cast<Fn*>(self))};
      if (op == Op::Run) (*end.fn)();
      if (op == Op::Move) ::new (to) Fn(std::move(*end.fn));
    }

    void reset() {
      if (manage_) std::exchange(manage_, nullptr)(Op::Destroy, storage_, nullptr);
    }

    alignas(void*) unsigned char storage_[kCapacity];
    void (*manage_)(Op, void*, void*) = nullptr;
  };

  /// One queued job plus its placement cost, which is subtracted from the
  /// shard backlog on dequeue.
  struct QueuedJob {
    QueuedJob() = default;
    QueuedJob(Job&& j, std::int64_t c) : fn(std::move(j)), cost(c) {}
    Job fn;
    std::int64_t cost = 1;
  };

  /// A worker's parking word.
  enum : std::uint32_t { kRunning = 0, kParked = 1, kWoken = 2 };

  /// A per-worker queue. `cost` mirrors the summed hint cost of the queued
  /// jobs so placement and steal victim selection can compare shards
  /// without taking their locks. Owner pops and steals both take the
  /// oldest job (FIFO): latency order beats cache affinity for a serving
  /// pool, and it keeps the no-reordering guarantee trivial. `park` is the
  /// owning worker's parking word, on a cache line of its own.
  struct Shard {
    Mutex mu;
    std::deque<QueuedJob> queue LAC_GUARDED_BY(mu);
    std::atomic<std::int64_t> cost{0};
    alignas(64) std::atomic<std::uint32_t> park{kRunning};
  };

  void enqueue(Job&& job, double cost_hint);
  void worker_loop(unsigned me);
  void start_locked() LAC_REQUIRES(mu_);
  bool pop_from(unsigned shard, QueuedJob& out);
  /// Wakes the first parked worker from `first` on, counting it as
  /// searching; does nothing if none is parked.
  void wake_one(unsigned first);
  /// Wakes the shard's worker if it is parked; false if it was not.
  bool wake(Shard& shard);

  unsigned target_ = 1;  ///< immutable after construction

  /// Fixed at construction (one per worker), so shard access needs no
  /// global lock. unique_ptr keeps Shard addresses stable in the vector.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> rr_{0};        ///< round-robin placement cursor
  std::atomic<std::size_t> queued_{0};      ///< jobs sitting in shard queues
  std::atomic<unsigned> searching_{0};      ///< workers sweeping for a job
  std::atomic<bool> stop_{false};           ///< set once, by the destructor

  Mutex mu_;
  std::vector<std::thread> workers_ LAC_GUARDED_BY(mu_);
  /// Lock-free mirror of started_ so the post fast path skips mu_ entirely
  /// once the workers are up.
  std::atomic<bool> started_flag_{false};
  bool started_ LAC_GUARDED_BY(mu_) = false;
};

}  // namespace lac
