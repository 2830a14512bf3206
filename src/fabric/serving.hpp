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
//                     technology context, FFT frames and variant), so
//                     repeated-shape traffic skips re-estimation entirely.
//
// Requests on this path should carry shared operand payloads (see the
// request builders in kernel_request.hpp): enqueueing then costs two
// pointer copies instead of three matrix copies.
#include <array>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_pool.hpp"
#include "fabric/executor.hpp"
#include "fabric/model_executor.hpp"

namespace lac::fabric {

/// The CostCache key: every request field a cycle or energy model reads,
/// packed into fixed 64-bit words. Doubles are keyed by bit pattern, so a
/// NaN field still matches itself and -0.0 stays distinct from 0.0. Every
/// kind keys the ChipGemm fields (chip organisation and chip.core) and the
/// FFT fields (frame-batch length and variant; every frame is a 64-point
/// radix-4 transform); kinds that never read them carry their defaults, so
/// no per-kind hook is needed. The key holds no padding: equality and the
/// hash cover exactly the packed fields.
struct CostKey {
  static constexpr std::size_t kWords = 39;

  explicit CostKey(const KernelRequest& req);

  /// Of `words`, computed once: shard and slot reuse it. It leads the key
  /// so a lookup reads the key's lines in address order.
  std::uint64_t hash;
  std::array<std::uint64_t, kWords> words;

  /// The hash first: two different keys almost never share it.
  friend bool operator==(const CostKey& a, const CostKey& b) {
    return a.hash == b.hash && a.words == b.words;
  }
};

/// Thread-safe memo of model-backend cost estimates (cycles, utilization,
/// energy, power, area). The estimate for a request depends only on its
/// CostKey -- never on operand values -- so one entry serves every request
/// of the same shape against the same architecture point and technology
/// context.
///
/// Entries spread over 16 independently locked shards by the key's low hash
/// bits. Each shard is a flat open-addressed table: a power-of-two index of
/// entry pointers, probed linearly from the hash bits above the shard's and
/// kept at most half full, over entries (key and estimate inline) stored in
/// blocks of 8 that never move. A probe reads a slot, then its entry, and
/// compares the stored hash before the key's words; an insert allocates
/// only when it opens a block or doubles the index.
class CostCache {
 public:
  struct Estimate {
    units::Cycles cycles;
    double utilization = 0.0;
    units::Nanojoules energy_nj;
    units::Watts avg_power_w;
    units::SquareMillimeters area_mm2;
  };

  /// What a miss runs. It must be pure: the cache keeps one result per
  /// CostKey, whichever racing thread computed it.
  using Pricing = std::function<ModelCost(const KernelRequest&)>;

  /// `price` defaults to the closed-form models behind ModelExecutor.
  explicit CostCache(Pricing price = model_cost);

  /// Cached estimate for the request, computing (and remembering) it on a
  /// miss. The request must validate(): like model_cost, a miss may divide
  /// by a zero field.
  Estimate estimate(const KernelRequest& req);

  /// The request's CostKey words as a byte string: two signatures are
  /// equal exactly when the keys are.
  static std::string signature(const KernelRequest& req);

  /// Threads racing on a cold key resolve to one miss (the inserting
  /// thread) and hits for the rest, so hits + misses == lookups and
  /// misses == size(): every miss inserts one entry.
  std::uint64_t hits() const { return totals().hits; }
  std::uint64_t misses() const { return totals().entries; }
  std::size_t size() const { return totals().entries; }
  void clear();

 private:
  struct Totals {
    std::uint64_t hits = 0;
    std::size_t entries = 0;
  };
  Totals totals() const;

  /// A single lock in front of every lookup would cost more than the key.
  static constexpr int kShardBits = 4;  ///< the low hash bits that pick the shard
  static constexpr std::size_t kShards = std::size_t{1} << kShardBits;
  static constexpr std::uint32_t kBlock = 8;  ///< entries per block
  static constexpr std::uint32_t kFirstSlots = 16;

  struct Entry {
    CostKey key;
    Estimate value;
  };
  /// Raw room for kBlock entries: each is constructed when it is inserted.
  union Block {
    Block() {}
    Entry entries[kBlock];
  };

  struct alignas(64) Shard {
    mutable Mutex mu;
    /// Null = empty; the index itself is null until the first insert.
    std::unique_ptr<Entry*[]> slots LAC_GUARDED_BY(mu);
    std::uint32_t mask LAC_GUARDED_BY(mu) = 0;  ///< slot count - 1
    std::uint32_t entries LAC_GUARDED_BY(mu) = 0;
    /// Owns the entries; only an insert that opens a block and clear()
    /// read it.
    std::vector<std::unique_ptr<Block>> blocks LAC_GUARDED_BY(mu);
    std::uint64_t hits LAC_GUARDED_BY(mu) = 0;

    /// The memoized estimate for `key`, or nullptr.
    const Estimate* find(const CostKey& key) const LAC_REQUIRES(mu);
    /// Adds `key` unless it is present; false if it was.
    bool insert(const CostKey& key, const Estimate& value) LAC_REQUIRES(mu);

    /// The slot holding `key`, or the empty slot that ends its probe.
    std::uint32_t slot_of(const CostKey& key) const LAC_REQUIRES(mu);
    /// Doubles the index (or opens the first) and re-slots every entry.
    void grow() LAC_REQUIRES(mu);
  };

  const Pricing price_;
  std::array<Shard, kShards> shards_;
};

/// Asynchronous façade over any Executor: submissions return futures that
/// resolve on the pool's worker threads. The wrapped executor must be
/// thread-safe for independent requests (the Executor contract) and must
/// outlive the AsyncExecutor. Every request runs through
/// fabric::run_request, so a backend exception or a cost that is not
/// finite and >= 0 resolves the future in-band (ok = false, zero cost), as
/// the Executor contract has it, not as an exception from future::get().
///
/// A submission is one pool job: ThreadPool::submit_hinted keeps its
/// packaged_task inline in the queue, so the task's shared state (holding
/// the request, the hook and then the result) is the one allocation the
/// hand-off makes. Posting takes no pool-wide lock, and wakes a parked
/// worker only when no worker is already looking for work.
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

  const Executor& backend() const { return backend_; }
  ThreadPool& pool() const { return pool_; }

 private:
  const Executor& backend_;
  ThreadPool& pool_;
  CostCache* hints_;  ///< nullptr = un-hinted submission
};

}  // namespace lac::fabric
