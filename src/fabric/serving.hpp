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
//                     (cycles, utilization, energy, power, area) keyed by a
//                     fixed-size CostKey (kernel kind, operand shapes,
//                     core/chip configuration, bandwidth, overlap regime,
//                     technology context, FFT geometry), so repeated-shape
//                     traffic skips re-estimation entirely.
//
// Requests on this path should carry shared operand payloads (see the
// shared-payload make_* overloads in kernel_request.hpp): enqueueing then
// costs two pointer copies instead of three matrix copies.
#include <array>
#include <cstdint>
#include <functional>
#include <future>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_pool.hpp"
#include "fabric/executor.hpp"

namespace lac::fabric {

/// The CostCache key: every request field a cycle or energy model reads,
/// packed into fixed 64-bit words. Doubles are keyed by bit pattern, so a
/// NaN field still matches itself and -0.0 stays distinct from 0.0. Every
/// kind keys the ChipGemm fields (chip organisation and chip.core) and the
/// FFT fields; kinds that never read them carry their defaults, so no
/// per-kind hook is needed. The key holds no padding: equality and the
/// hash cover exactly the packed fields.
struct CostKey {
  static constexpr std::size_t kWords = 40;

  explicit CostKey(const KernelRequest& req);

  std::array<std::uint64_t, kWords> words;
  std::uint64_t hash;  ///< of `words`, computed once: shard and bucket reuse it

  friend bool operator==(const CostKey&, const CostKey&) = default;

  struct Hash {
    std::size_t operator()(const CostKey& key) const noexcept { return key.hash; }
  };
};

/// Thread-safe memo of model-backend cost estimates (cycles, utilization,
/// energy, power, area). The estimate for a request depends only on its
/// CostKey -- never on operand values -- so one entry serves every request
/// of the same shape against the same architecture point and technology
/// context.
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
  Estimate estimate(const KernelRequest& req);

  /// The request's CostKey words as a byte string: two signatures are
  /// equal exactly when the keys are.
  static std::string signature(const KernelRequest& req);

  /// Threads racing on a cold key resolve to one miss (the inserting
  /// thread) and hits for the rest, so hits + misses == lookups and
  /// misses == size().
  std::uint64_t hits() const { return totals().hits; }
  std::uint64_t misses() const { return totals().misses; }
  /// Hits over lookups so far (0 when the cache is cold).
  double hit_rate() const;
  std::size_t size() const { return totals().entries; }
  void clear();

 private:
  struct Totals {
    std::uint64_t hits = 0, misses = 0;
    std::size_t entries = 0;
  };
  Totals totals() const;

  /// Entries spread over a fixed number of independently locked shards,
  /// chosen by the key's hash: with the key this cheap, a single lock in
  /// front of every lookup would be the cost.
  static constexpr std::size_t kShards = 16;

  struct alignas(64) Shard {
    mutable Mutex mu;
    std::unordered_map<CostKey, Estimate, CostKey::Hash> map LAC_GUARDED_BY(mu);
    std::uint64_t hits LAC_GUARDED_BY(mu) = 0;
    std::uint64_t misses LAC_GUARDED_BY(mu) = 0;
  };

  std::array<Shard, kShards> shards_;
};

/// Asynchronous façade over any Executor: submissions return futures that
/// resolve on the pool's worker threads. The wrapped executor must be
/// thread-safe for independent requests (the Executor contract) and must
/// outlive the AsyncExecutor; in-band failures (ok = false) pass through
/// untouched, while exceptions escaping the backend surface from
/// future::get().
class AsyncExecutor {
 public:
  /// `pool` defaults to the process-wide shared pool.
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
  CostCache* hints_;  ///< nullptr = un-hinted submission
};

}  // namespace lac::fabric
