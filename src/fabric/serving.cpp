#include "fabric/serving.hpp"

#include <algorithm>
#include <bit>
#include <tuple>
#include <type_traits>
#include <utility>

#include "fabric/model_executor.hpp"
#include "obs/trace.hpp"

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
      word(req.fft_n),
      std::uint64_t{req.xc.size()},
      ints(req.fft_radix, static_cast<int>(req.fft_variant)),
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

/// FxHash-style word chain, then the murmur3 finalizer so the shard index
/// and the map's bucket both depend on every word.
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

CostKey::CostKey(const KernelRequest& req)
    : words(pack(req)), hash(hash_words(words)) {}

CostCache::Estimate CostCache::estimate(const KernelRequest& req) {
  const CostKey key(req);
  Shard& shard = shards_[key.hash % kShards];
  {
    MutexLock lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      ++shard.hits;
      return it->second;
    }
  }
  // Compute outside the lock: estimation is pure and two threads racing on
  // the same cold key produce identical entries.
  const ModelCost cost = model_cost(req);
  Estimate e;
  e.cycles = cost.cycles;
  e.utilization = cost.utilization;
  e.energy_nj = cost.energy.energy_nj();
  e.avg_power_w = cost.energy.avg_power_w;
  e.area_mm2 = cost.energy.area_mm2;
  MutexLock lock(shard.mu);
  // Exactly one racing thread owns the insert (one miss per entry); the
  // losers found the value present and count as hits.
  if (shard.map.emplace(key, e).second)
    ++shard.misses;
  else
    ++shard.hits;
  return e;
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
    t.misses += shard.misses;
    t.entries += shard.map.size();
  }
  return t;
}

double CostCache::hit_rate() const {
  const Totals t = totals();
  const double lookups = static_cast<double>(t.hits + t.misses);
  return lookups > 0 ? static_cast<double>(t.hits) / lookups : 0.0;
}

void CostCache::clear() {
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    shard.map.clear();
    shard.hits = 0;
    shard.misses = 0;
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
  // Captured on the submitting thread: the queue-wait interval starts here,
  // and the submitter's span id parents the worker-side spans so a
  // request's queue-wait/execute/hook phases chain across the thread hop.
  const std::uint64_t submit_ns = obs::now_ns();
  const std::uint64_t parent = obs::Span::current_id();
  // Size-aware dispatch: the model cycle estimate is a monotone proxy for
  // backend runtime (sim wall time scales with simulated cycles), which is
  // all the pool's placement needs.
  const double hint = hints_ ? hints_->estimate(req).cycles.value() : 0.0;
  return pool_.submit_hinted(hint, [&backend, submit_ns, parent,
                                    req = std::move(req),
                                    hook = std::move(on_complete)] {
    obs::record_interval("serving.queue_wait", "serving", submit_ns,
                         obs::now_ns(), parent);
    KernelResult res;
    {
      obs::Span span("serving.execute", "serving", parent);
      res = backend.execute(req);
      span.set_cycles(res.cycles);
    }
    if (hook) {
      obs::Span span("serving.hook", "serving", parent);
      hook(res);
    }
    return res;
  });
}

std::vector<std::future<KernelResult>> AsyncExecutor::submit_all(
    std::vector<KernelRequest> reqs) const {
  std::vector<std::future<KernelResult>> futures;
  futures.reserve(reqs.size());
  for (KernelRequest& req : reqs) futures.push_back(submit(std::move(req)));
  return futures;
}

}  // namespace lac::fabric
