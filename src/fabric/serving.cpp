#include "fabric/serving.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <new>
#include <tuple>
#include <type_traits>
#include <utility>

#include "fabric/model_executor.hpp"

namespace lac::fabric {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }
std::uint64_t word(index_t v) { return static_cast<std::uint64_t>(v); }

/// Two 32-bit fields (ints, enums, bools) in one word.
std::uint64_t ints(int lo, int hi) {
  return static_cast<std::uint32_t>(lo) |
         std::uint64_t{static_cast<std::uint32_t>(hi)} << 32;
}

/// Every core field the cycle or energy models read.
std::array<std::uint64_t, 10> core_words(const arch::CoreConfig& core) {
  const arch::PeConfig& pe = core.pe;
  return {bits(pe.clock_ghz),
          bits(pe.mem_a_kbytes),
          bits(pe.mem_b_kbytes),
          ints(core.nr, pe.pipeline_stages),
          ints(core.bus_latency, static_cast<int>(core.sfu)),
          ints(core.sfu_latency_recip, core.sfu_latency_rsqrt),
          ints(core.sfu_latency_sqrt, core.sw_emulation_cycles),
          ints(pe.extensions.comparator, pe.extensions.extended_exponent),
          ints(static_cast<int>(pe.precision), pe.mem_a_ports),
          ints(pe.mem_b_ports, 0)};
}

std::array<std::uint64_t, CostKey::kWords> pack(const KernelRequest& req) {
  const arch::ChipConfig& chip = req.chip;
  const auto head = std::to_array<std::uint64_t>({
      ints(static_cast<int>(req.kind), static_cast<int>(req.overlap)),
      word(req.a.rows()), word(req.a.cols()),
      word(req.b.rows()), word(req.b.cols()),
      word(req.c.rows()), word(req.c.cols()),
      std::uint64_t{req.x.size()},
      ints(req.owner_col, static_cast<int>(req.tech.node)),
      bits(req.bw_words_per_cycle),
      word(req.mc), word(req.kc),
      bits(req.tech.clock_ghz),
      ints(chip.cores, static_cast<int>(chip.mem_kind)),
      bits(chip.onchip_mem_mbytes),
      bits(chip.onchip_bw_words_per_cycle),
      bits(chip.offchip_bw_words_per_cycle),
      std::uint64_t{req.xc.size()},
      ints(static_cast<int>(req.fft_variant), 0),
  });
  // Both cores: the core-level models read req.core, the ChipGemm cycle
  // and energy models read req.chip.core.
  const auto core = core_words(req.core);
  const auto chip_core = core_words(chip.core);
  static_assert(std::tuple_size_v<decltype(head)> +
                    2 * std::tuple_size_v<decltype(core)> ==
                CostKey::kWords);
  std::array<std::uint64_t, CostKey::kWords> words{};
  auto out = std::copy(head.begin(), head.end(), words.begin());
  out = std::copy(core.begin(), core.end(), out);
  std::copy(chip_core.begin(), chip_core.end(), out);
  return words;
}

/// FxHash-style word chain, then the murmur3 finalizer so the shard and the
/// slot both depend on every word.
std::uint64_t hash_words(const std::array<std::uint64_t, CostKey::kWords>& words) {
  std::uint64_t h = 0;
  for (std::uint64_t w : words) h = (std::rotl(h, 5) ^ w) * 0x9e3779b97f4a7c15ull;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  return h ^ (h >> 33);
}

}  // namespace

// Trivially copyable with no padding bytes: comparing and hashing the
// words covers the whole key.
static_assert(std::has_unique_object_representations_v<CostKey>);

CostKey::CostKey(const KernelRequest& req) : words(pack(req)) {
  hash = hash_words(words);
}

CostCache::CostCache(Pricing price) : price_(std::move(price)) {}

CostCache::Estimate CostCache::estimate(const KernelRequest& req) {
  const CostKey key(req);
  Shard& shard = shards_[key.hash % kShards];
  {
    MutexLock lock(shard.mu);
    if (const Estimate* hit = shard.find(key)) {
      ++shard.hits;
      return *hit;
    }
  }
  // Compute outside the lock: estimation is pure and two threads racing on
  // the same cold key produce identical entries.
  const ModelCost cost = price_(req);
  Estimate e;
  e.cycles = cost.cycles;
  e.utilization = cost.utilization;
  e.energy_nj = cost.energy.energy_nj();
  e.avg_power_w = cost.energy.avg_power_w;
  e.area_mm2 = cost.energy.area_mm2;
  MutexLock lock(shard.mu);
  // Exactly one racing thread owns the insert (one miss per entry); the
  // losers found the value present and count as hits.
  if (!shard.insert(key, e)) ++shard.hits;
  return e;
}

std::uint32_t CostCache::Shard::slot_of(const CostKey& key) const {
  std::uint32_t i = static_cast<std::uint32_t>(key.hash >> kShardBits) & mask;
  while (slots[i] != nullptr && slots[i]->key != key) i = (i + 1) & mask;
  return i;
}

const CostCache::Estimate* CostCache::Shard::find(const CostKey& key) const {
  if (!slots) return nullptr;
  const Entry* e = slots[slot_of(key)];
  return e != nullptr ? &e->value : nullptr;
}

bool CostCache::Shard::insert(const CostKey& key, const Estimate& value) {
  if (2 * (std::size_t{entries} + 1) > std::size_t{mask} + 1) grow();
  const std::uint32_t i = slot_of(key);
  if (slots[i] != nullptr) return false;
  if (entries % kBlock == 0) blocks.push_back(std::make_unique<Block>());
  slots[i] = ::new (&blocks.back()->entries[entries % kBlock]) Entry{key, value};
  ++entries;
  return true;
}

void CostCache::Shard::grow() {
  const std::uint32_t old_count = slots ? mask + 1 : 0;
  const std::uint32_t count = slots ? 2 * old_count : kFirstSlots;
  // The new index is value-initialized: every slot empty.
  std::unique_ptr<Entry*[]> old = std::exchange(slots, std::make_unique<Entry*[]>(count));
  mask = count - 1;
  // Entries are distinct, so each takes the first empty slot of its probe.
  for (std::uint32_t n = 0; n < old_count; ++n) {
    Entry* e = old[n];
    if (e == nullptr) continue;
    std::uint32_t i = static_cast<std::uint32_t>(e->key.hash >> kShardBits) & mask;
    while (slots[i] != nullptr) i = (i + 1) & mask;
    slots[i] = e;
  }
}

std::string CostCache::signature(const KernelRequest& req) {
  const CostKey key(req);
  return std::string(reinterpret_cast<const char*>(key.words.data()),
                     sizeof(key.words));
}

CostCache::Totals CostCache::totals() const {
  Totals t;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    t.hits += shard.hits;
    t.entries += shard.entries;
  }
  return t;
}

void CostCache::clear() {
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    shard.slots.reset();
    shard.mask = 0;
    shard.entries = 0;
    shard.blocks.clear();
    shard.hits = 0;
  }
}

AsyncExecutor::AsyncExecutor(const Executor& backend, ThreadPool* pool,
                             CostCache* cost_hints)
    : backend_(backend),
      pool_(pool ? *pool : ThreadPool::shared()),
      hints_(cost_hints) {}

std::future<KernelResult> AsyncExecutor::submit(KernelRequest req) const {
  return submit(std::move(req), nullptr);
}

std::future<KernelResult> AsyncExecutor::submit(
    KernelRequest req, std::function<void(const KernelResult&)> on_complete) const {
  const Executor& backend = backend_;
  // Size-aware dispatch: the model cycle estimate is a monotone proxy for
  // backend runtime (sim wall time scales with simulated cycles), which is
  // all the pool's placement needs.
  // A request that does not validate fails on the worker, as it would
  // unhinted; pricing it here could divide by a zero field.
  const double hint =
      hints_ && validate(req).empty() ? hints_->estimate(req).cycles.value() : 0.0;
  return pool_.submit_hinted(hint, [&backend, req = std::move(req),
                                    hook = std::move(on_complete)] {
    KernelResult res = run_request(backend, req);
    if (hook) hook(res);
    return res;
  });
}

}  // namespace lac::fabric
