#include "sim/arena.hpp"

namespace lac::sim {

SimArena& SimArena::local() {
  static thread_local SimArena arena;
  return arena;
}

std::unique_ptr<Core> SimArena::acquire(const arch::CoreConfig& cfg,
                                        double bw_words_per_cycle,
                                        int accumulators) {
  for (PoolEntry& entry : pool_) {
    if (entry.cfg != cfg || entry.free.empty()) continue;
    std::unique_ptr<Core> core = std::move(entry.free.back());
    entry.free.pop_back();
    core->reset(bw_words_per_cycle, accumulators);
    return core;
  }
  // lint-allow: hot-alloc (pool miss: first request for this config on
  // this worker; subsequent requests reuse the pooled core)
  return std::make_unique<Core>(cfg, bw_words_per_cycle, accumulators);
}

void SimArena::release(std::unique_ptr<Core> core) {
  if (!core) return;
  const arch::CoreConfig& cfg = core->config();
  for (PoolEntry& entry : pool_) {
    if (entry.cfg != cfg) continue;
    if (entry.free.size() < kMaxPooledPerConfig)
      entry.free.push_back(std::move(core));
    return;
  }
  pool_.push_back(PoolEntry{cfg, {}});
  pool_.back().free.push_back(std::move(core));
}

std::size_t SimArena::pooled() const {
  std::size_t n = 0;
  for (const PoolEntry& entry : pool_) n += entry.free.size();
  return n;
}

}  // namespace lac::sim
