#include "obs/metrics.hpp"

#include <thread>

namespace lac::obs {

std::size_t Counter::shard_index() {
  // One stable shard per thread: hash the thread id once and cache it, so
  // the hot path is a thread_local read plus one relaxed fetch_add.
  static thread_local const std::size_t shard =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kShards;
  return shard;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* reg = new MetricsRegistry();  // never destroyed:
  // worker threads may bump counters during static teardown.
  return *reg;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  MutexLock lock(mu_);
  auto it = counters_.find(std::string(name));
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  return *it->second;
}

}  // namespace lac::obs
