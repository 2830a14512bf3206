#pragma once
// Fabric telemetry: the counter registry.
//
// A few event counts are read from outside the layer that bumps them: the
// benchmark (perfbench/) reads `lac.pool.tasks` and `lac.pool.steals` as
// per-op deltas, and the pool's steal test reads `lac.pool.steals`. The
// MetricsRegistry is their one home: named monotonic counters, updated
// lock-free on the hot path.
//
// Naming convention (enforced by tools/lint/lint.py, check `metric-names`):
// dotted lowercase `lac.<layer>.<name>`, and the final segment carries the
// unit (`_us`, `_cycles`, ...) or is a recognizable dimensionless count
// (`hits`, `tasks`, `steals`). The registry does not parse names; the
// linter holds the line.
//
// Concurrency: add() is atomics only (counters shard across cache lines so
// concurrent writers do not ping-pong one location); the registry map
// itself is guarded by an annotated lac::Mutex and only locked on counter
// *creation*, never per update. Counter references returned by the
// registry are stable for the registry's lifetime -- hot paths look a
// counter up once and keep the pointer.
//
// The registry counts; it does not time. Where an op's wall time goes is
// perfbench's traced ledger, measured from outside the library.
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/mutex.hpp"

namespace lac::obs {

/// Monotonic event count. add() is wait-free: each writer lands on one of
/// kShards cache-line-sized slots (indexed by a per-thread hash), so eight
/// workers bumping the same counter touch eight different lines.
class Counter {
 public:
  static constexpr std::size_t kShards = 16;

  void add(std::uint64_t delta = 1) {
    shards_[shard_index()].v.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  static std::size_t shard_index();
  std::array<Shard, kShards> shards_;
};

/// Named counter set. counter() gets-or-creates and returns a reference
/// that stays valid for the registry's lifetime; the process-wide instance
/// behind every built-in counter is global().
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry the fabric instrumentation writes into.
  static MetricsRegistry& global();

  Counter& counter(std::string_view name) LAC_EXCLUDES(mu_);

 private:
  Mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<Counter>> counters_
      LAC_GUARDED_BY(mu_);
};

}  // namespace lac::obs
