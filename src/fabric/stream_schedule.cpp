#include "fabric/stream_schedule.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "sim/arena.hpp"

namespace lac::fabric {
namespace {

/// Geometry key of one rank-1 sweep; every field a plan's addresses depend
/// on, nothing else (values stream through the plan unchanged).
struct PlanKey {
  int nr = 0;
  index_t rows = 0;
  index_t row0 = 0;
  index_t p_begin = 0;
  index_t p_end = 0;
  bool operator==(const PlanKey&) const = default;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& k) const {
    std::size_t h = static_cast<std::size_t>(k.nr);
    for (index_t f : {k.rows, k.row0, k.p_begin, k.p_end})
      h = h * 1099511628211u + static_cast<std::size_t>(f);
    return h;
  }
};

/// Thread-local plan memo: serving traffic repeats a handful of shapes, so
/// the same sweeps recur thousands of times per worker. Thread-local keeps
/// the lookup lock-free; the bound is a safety valve for shape sweeps (a
/// full memo restarts cold rather than growing without limit).
const Rank1Plan& rank1_plan(int nr, index_t rows, index_t row0, index_t p_begin,
                            index_t p_end) {
  static thread_local std::unordered_map<PlanKey, Rank1Plan, PlanKeyHash> cache;
  constexpr std::size_t kMaxPlans = 4096;
  const PlanKey key{nr, rows, row0, p_begin, p_end};
  if (auto it = cache.find(key); it != cache.end()) return it->second;
  if (cache.size() >= kMaxPlans) cache.clear();
  Rank1Plan plan;
  const std::size_t steps = static_cast<std::size_t>(p_end - p_begin);
  plan.owner.reserve(steps);
  plan.a_addr.reserve(steps * static_cast<std::size_t>(nr));
  for (index_t p = p_begin; p < p_end; ++p) {
    plan.owner.push_back(static_cast<int>(p % nr));
    for (int r = 0; r < nr; ++r)
      plan.a_addr.push_back(mem_a_addr(row0 + r, p, rows, nr));
  }
  return cache.emplace(key, std::move(plan)).first->second;
}

}  // namespace

sim::time_t_ StreamSchedule::dma(double words) {
  cursor_ = core_.dma(words, cursor_);
  return cursor_;
}

sim::time_t_ StreamSchedule::dma_after(double words, sim::time_t_ earliest) {
  cursor_ = core_.dma(words, std::max(cursor_, earliest));
  return cursor_;
}

void StreamSchedule::poke_resident(ConstViewD a, index_t base) {
  const int nr = core_.nr();
  const index_t rows = a.rows();
  const index_t cols = a.cols();
  assert(rows % nr == 0);
  for (index_t p = 0; p < cols; ++p)
    for (index_t i = 0; i < rows; ++i)
      core_.pe(static_cast<int>(i % nr), static_cast<int>(p % nr))
          .mem_a.poke(base + mem_a_addr(i, p, rows, nr), a(i, p));
}

sim::time_t_ StreamSchedule::stage_resident(ConstViewD a, index_t base) {
  poke_resident(a, base);
  return dma(static_cast<double>(a.rows()) * a.cols());
}

sim::time_t_ StreamSchedule::stage_resident_lower(ConstViewD l) {
  const int nr = core_.nr();
  const index_t n = l.rows();
  assert(l.cols() == n && n % nr == 0);
  for (index_t p = 0; p < n; ++p)
    for (index_t i = p; i < n; ++i)
      core_.pe(static_cast<int>(i % nr), static_cast<int>(p % nr))
          .mem_a.poke(mem_a_addr(i, p, n, nr), l(i, p));
  return dma(static_cast<double>(n) * (n + 1) / 2);
}

sim::time_t_ StreamSchedule::stage_panel(ConstViewD a) {
  const int nr = core_.nr();
  const index_t k = a.rows();
  const index_t cols = a.cols();
  assert(cols <= nr);
  for (index_t i = 0; i < k; ++i)
    for (index_t j = 0; j < cols; ++j)
      core_.pe(static_cast<int>(i % nr), static_cast<int>(j))
          .mem_a.poke(i / nr, a(i, j));
  return dma(static_cast<double>(k) * cols);
}

LAC_FMA_CLONES void StreamSchedule::rank1_update(int parity, index_t a_base,
                                                 index_t rows, index_t row0,
                                                 index_t p_begin, index_t p_end,
                                                 index_t slot, sim::time_t_ gate,
                                                 bool negate) {
  const int nr = core_.nr();
  // Replay the cached SoA plan: owner columns and MEM-A addresses are pure
  // geometry, so repeat shapes skip the address derivation entirely.
  const Rank1Plan& plan = rank1_plan(nr, rows, row0, p_begin, p_end);
  const index_t steps = p_end - p_begin;
  // Lock-step leads: every PE of a row reads the same MEM-B slot at the
  // same gate and MACs the same broadcast, so a PE whose timing matches an
  // earlier PE of its row at entry follows it through the whole sweep.
  // lead[r * nr + c] is the column PE (r, c) follows, c itself for a lead.
  sim::Scratch<int> lead(static_cast<std::size_t>(nr) * nr);
  for (int r = 0; r < nr; ++r)
    for (int c = 0; c < nr; ++c) {
      int l = 0;
      while (l < c && !core_.pe(r, c).lockstep_with(core_.pe(r, l), parity)) ++l;
      lead[static_cast<std::size_t>(r * nr + c)] = l;
    }
  for (index_t s = 0; s < steps; ++s) {
    const int owner = plan.owner[static_cast<std::size_t>(s)];
    for (int r = 0; r < nr; ++r) {
      sim::TimedVal av = core_.pe(r, owner).mem_a.read(
          a_base + plan.a_addr[static_cast<std::size_t>(s * nr + r)], gate);
      if (negate) av.v = -av.v;
      const sim::TimedVal a_bcast = core_.broadcast_row(r, av);
      for (int c = 0; c < nr; ++c) {
        sim::Pe& pe = core_.pe(r, c);
        if (lead[static_cast<std::size_t>(r * nr + c)] == c) {
          sim::TimedVal bv = pe.mem_b.read(slot + s, gate);
          pe.mac.mac_into_acc(parity, a_bcast, bv);
        } else {
          pe.mac.accumulate(parity, a_bcast.v, pe.mem_b.peek(slot + s));
        }
      }
    }
  }
  for (int r = 0; r < nr; ++r)
    for (int c = 0; c < nr; ++c) {
      const int l = lead[static_cast<std::size_t>(r * nr + c)];
      if (l != c) core_.pe(r, c).follow(core_.pe(r, l), parity, steps);
    }
}

}  // namespace lac::fabric
