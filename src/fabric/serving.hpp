#pragma once
// Persistent serving layer over the fabric Executor interface.
//
// Serving traffic arrives continuously, repeats the same shapes over and
// over, and wants each answer independently and as soon as possible. Two
// pieces serve it:
//
//   AsyncExecutor  -- wraps any Executor and turns submissions into
//                     std::future<KernelResult>s executed on a persistent
//                     ThreadPool (no thread spawn on the hot path).
//   CostCache      -- memoizes the analytical backend's full cost estimate
//                     (cycles, utilization, energy, power, area) keyed by
//                     the request *signature* (kernel kind, operand shapes,
//                     core/chip configuration, bandwidth, overlap regime,
//                     technology context), so repeated-shape traffic skips
//                     re-estimation entirely.
//
// Requests on this path should carry shared operand payloads (see the
// shared-payload make_* overloads in kernel_request.hpp): enqueueing then
// costs two pointer copies instead of three matrix copies.
#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_pool.hpp"
#include "fabric/executor.hpp"

namespace lac::obs {
class Counter;
class Histogram;
}  // namespace lac::obs

namespace lac::fabric {

/// Thread-safe memo of model-backend cost estimates (cycles, utilization,
/// energy, power, area). The estimate for a request depends only on its
/// signature -- never on operand values -- so one entry serves every
/// request of the same shape against the same architecture point and
/// technology context.
class CostCache {
 public:
  struct Estimate {
    units::Cycles cycles;
    double utilization = 0.0;
    units::Nanojoules energy_nj;
    units::Watts avg_power_w;
    units::SquareMillimeters area_mm2;
  };

  /// Cached estimate for the request, computing (and remembering) it on a
  /// miss via the closed-form models behind ModelExecutor.
  Estimate estimate(const KernelRequest& req) LAC_EXCLUDES(mu_);

  /// The memo key: every field of the request that the cycle or energy
  /// models read, each separated by an explicit delimiter (no two adjacent
  /// fields may concatenate ambiguously as more fields are added).
  /// Kind-specific fields (ChipGemm's chip organisation, Fft's
  /// size/radix/variant/frames) come from the registry's signature_extra
  /// hook, so they register with the kernel.
  static std::string signature(const KernelRequest& req);

  std::uint64_t hits() const { return hits_.load(); }
  std::uint64_t misses() const { return misses_.load(); }
  /// Hits over lookups so far (0 when the cache is cold). Threads racing on
  /// a cold key resolve to one miss (the inserting thread) and hits for the
  /// rest, so hits + misses == lookups and misses == distinct entries.
  double hit_rate() const;
  std::size_t size() const LAC_EXCLUDES(mu_);
  void clear() LAC_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::unordered_map<std::string, Estimate> map_ LAC_GUARDED_BY(mu_);
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

/// Asynchronous façade over any Executor: submissions return futures that
/// resolve on the pool's worker threads. The wrapped executor must be
/// thread-safe for independent requests (the Executor contract) and must
/// outlive the AsyncExecutor; in-band failures (ok = false) pass through
/// untouched, while exceptions escaping the backend surface from
/// future::get().
class AsyncExecutor {
 public:
  /// `pool` defaults to the process-wide shared pool. Construction resolves
  /// this wrapper's observability handles (`lac.serving.<backend>.requests`,
  /// `lac.serving.queue_wait_us`), so the submit hot path never touches the
  /// metrics registry lock.
  ///
  /// `cost_hints` (optional, must outlive the wrapper) turns on size-aware
  /// dispatch: each submission is tagged with the cached model-backend
  /// cycle estimate, which the pool uses to keep short requests off shards
  /// holding queued long ones. On repeated-shape serving traffic the hint
  /// is a memo lookup; a cold shape pays one closed-form model evaluation
  /// (microseconds -- never a simulation).
  explicit AsyncExecutor(const Executor& backend, ThreadPool* pool = nullptr,
                         CostCache* cost_hints = nullptr);

  /// Queue one request; the future carries its result.
  std::future<KernelResult> submit(KernelRequest req) const;

  /// As submit(), with a completion hook that runs on the worker thread
  /// right after execution (latency trackers, serving-side logging). The
  /// hook must be thread-safe; the future resolves after it returns.
  std::future<KernelResult> submit(
      KernelRequest req,
      std::function<void(const KernelResult&)> on_complete) const;

  /// Queue a whole workload; future i corresponds to request i.
  std::vector<std::future<KernelResult>> submit_all(
      std::vector<KernelRequest> reqs) const;

  const Executor& backend() const { return backend_; }
  ThreadPool& pool() const { return pool_; }

 private:
  const Executor& backend_;
  ThreadPool& pool_;
  CostCache* hints_;             ///< nullptr = un-hinted submission
  obs::Counter* requests_;       ///< lac.serving.<backend>.requests
  obs::Histogram* queue_wait_us_;  ///< lac.serving.queue_wait_us
};

}  // namespace lac::fabric
