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
  if (!plan.a_addr.empty()) {
    const auto [lo, hi] = std::minmax_element(plan.a_addr.begin(), plan.a_addr.end());
    plan.a_lo = *lo;
    plan.a_hi = *hi;
  }
  return cache.emplace(key, std::move(plan)).first->second;
}

// ---- closing a rank-1 sweep's rows in bulk ----------------------------------
//
// Write B for row r's bus next-free time, A_c for the MEM-A port next-free
// time of PE (r, c), and for a lead PE P_c for its MEM-B port's and T_c for
// its issue port's, with L the bus latency. The row is *regular* before a
// step when
//   (1) B >= max(gate, every A_c) + 1, and
//   (2) for every lead, its accumulator's chain-free time equals T_c bit
//       for bit, T_c >= B + L and T_c >= max(gate, P_c) + 1.
// Then the step's MEM-A read starts at max(gate, A_owner) and is ready by
// B (the read latency is the + 1), so the broadcast takes slot B and
// arrives at B + L; each lead's MEM-B read is ready by T_c, so its MAC
// issues at T_c. Afterwards B, every T_c and every chain-free time have
// grown by exactly 1, the owner's max(gate, A_c) by one MEM-A slot and
// each max(gate, P_c) by one MEM-B slot, both at most 1 (a slot on the
// grid is 1, 1/2 or 1/4 of a cycle), so (1) and (2) hold again. By
// induction every remaining step issues one cycle after the one before
// and no read binds, and the remaining R steps leave exactly what one run
// per resource leaves: each owner's MEM-A port takes its reads from
// max(gate, A_c), the bus R slots from B, each lead's MEM-B port R reads
// from max(gate, P_c) and its MAC R chained issues from T_c. The runs
// multiply and add where the steps only add, so every time they touch --
// the gate, L, the pipeline depth, both slot durations and every next-free
// and busy time -- must lie on the grid of sim::on_grid, where those sums
// and products are exact in any grouping; the two FMA clones then cannot
// round them differently either.

/// A row closes only with at least this many steps left: below that,
/// stepping them costs less than the regularity check and the close (e.g.
/// CHIP_GEMM's nr-step sweeps).
constexpr index_t kMinCloseRun = 8;

/// One rank-1 sweep, as StreamSchedule::rank1_update received it.
struct Rank1Sweep {
  const Rank1Plan& plan;
  int parity;
  index_t a_base;
  index_t slot;
  index_t steps;
  sim::time_t_ gate;
  bool negate;
};

/// Whether the sweep can close rows at all: enough steps, a gate and bus
/// latency on the exact grid, and an address range inside both stores (the
/// close reads words raw; out of range, the stepping loop's counted
/// accesses report the overrun).
inline bool sweep_closable(const sim::Core& core, const Rank1Sweep& w) {
  const sim::Pe& pe = core.pe(0, 0);
  return w.steps >= kMinCloseRun && w.steps < (index_t{1} << 38) &&
         sim::on_grid(w.gate) && sim::on_grid(core.config().bus_latency) &&
         pe.mem_a.contains(w.a_base + w.plan.a_lo, w.plan.a_hi - w.plan.a_lo + 1) &&
         pe.mem_b.contains(w.slot, w.steps);
}

enum class Regularity {
  kIrregular,  ///< a condition fails: step, check again next step
  kOffGrid,    ///< regular, but a time the close sums is off the grid
  kRegular,    ///< close the rest
};

/// Check row r before a step: conditions (1) and (2) above, then whether
/// everything its close touches is on the exact grid. `row_lead[c]` is the
/// column PE (r, c) follows.
Regularity check_row(const sim::Core& core, const Rank1Sweep& w, int r, const int* row_lead) {
  const int nr = core.nr();
  const sim::Resource& bus = core.row_bus(r);
  sim::time_t_ a_free = w.gate;
  for (int c = 0; c < nr; ++c) a_free = std::max(a_free, core.pe(r, c).mem_a.port_free());
  const sim::time_t_ b = bus.next_free();
  if (!(b >= a_free + 1.0)) return Regularity::kIrregular;
  for (int c = 0; c < nr; ++c) {
    if (row_lead[c] != c) continue;
    const sim::Pe& pe = core.pe(r, c);
    const sim::time_t_ t = pe.mac.issue_port_free();
    if (!sim::same_bits(pe.mac.chain_free(w.parity), t) ||
        !(t >= b + core.config().bus_latency) ||
        !(t >= std::max(w.gate, pe.mem_b.port_free()) + 1.0))
      return Regularity::kIrregular;
  }
  if (!bus.on_grid()) return Regularity::kOffGrid;
  for (int c = 0; c < nr; ++c) {
    const sim::Pe& pe = core.pe(r, c);
    if (!pe.mem_a.port_on_grid()) return Regularity::kOffGrid;
    if (row_lead[c] == c && !(pe.mem_b.port_on_grid() && pe.mac.on_grid()))
      return Regularity::kOffGrid;
  }
  return Regularity::kRegular;
}

/// Close regular row r's steps [s, steps): values first, with the stepping
/// loop's fused multiply-adds per PE in step order, then one run per
/// resource. Followers take their timing from their lead at sweep exit.
LAC_FMA_CLONES void close_row(sim::Core& core, const Rank1Sweep& w, int r,
                              const int* row_lead, index_t s) {
  const int nr = core.nr();
  const index_t steps = w.steps;
  const index_t run = steps - s;
  const Rank1Plan& plan = w.plan;
  // MEM-A negated through sim::negated: a negation the compiler can see
  // in an std::fma operand may fold into the FMA clone's arithmetic.
  const auto a_at = [&](index_t st) {
    const double v =
        core.pe(r, plan.owner[static_cast<std::size_t>(st)])
            .mem_a.words()[w.a_base + plan.a_addr[static_cast<std::size_t>(st * nr + r)]];
    return w.negate ? sim::negated(v) : v;
  };
  const auto b_at = [&](int c) { return core.pe(r, c).mem_b.words() + w.slot; };
  const auto acc_at = [&](int c) { return core.pe(r, c).mac.read_acc(w.parity).v; };
  const auto finish = [&](int c, double value) {
    sim::Pe& pe = core.pe(r, c);
    if (row_lead[c] == c) {
      pe.mem_b.read_run(w.gate, run);
      pe.mac.chain_run(w.parity, run, value);
    } else {
      pe.mac.set_value(w.parity, value);
    }
  };
  // Four PEs share a pass so their dependency chains overlap.
  int c = 0;
  for (; c + 4 <= nr; c += 4) {
    const double *b0 = b_at(c), *b1 = b_at(c + 1), *b2 = b_at(c + 2), *b3 = b_at(c + 3);
    double x0 = acc_at(c), x1 = acc_at(c + 1), x2 = acc_at(c + 2), x3 = acc_at(c + 3);
    for (index_t st = s; st < steps; ++st) {
      const double a = a_at(st);
      x0 = std::fma(a, b0[st], x0);
      x1 = std::fma(a, b1[st], x1);
      x2 = std::fma(a, b2[st], x2);
      x3 = std::fma(a, b3[st], x3);
    }
    finish(c, x0);
    finish(c + 1, x1);
    finish(c + 2, x2);
    finish(c + 3, x3);
  }
  for (; c < nr; ++c) {
    const double* b = b_at(c);
    double x = acc_at(c);
    for (index_t st = s; st < steps; ++st) x = std::fma(a_at(st), b[st], x);
    finish(c, x);
  }
  // MEM-A reads per owner column (owners cycle from plan.owner[s]), then
  // the broadcasts.
  const int first_owner = plan.owner[static_cast<std::size_t>(s)];
  for (int o = 0; o < nr; ++o) {
    const index_t reads = run / nr + ((o - first_owner + nr) % nr < run % nr ? 1 : 0);
    if (reads > 0) core.pe(r, o).mem_a.read_run(w.gate, reads);
  }
  core.broadcast_row_run(r, run);
}

// ---- closing a transpose capture in bulk ------------------------------------
//
// Each capture step reads word (row0 + r, p) of owner column p % nr for
// every row r and broadcasts it on row bus r, re-broadcasts row c's word
// down column bus c, writes it to MEM-B on every PE of column c and, with a
// MAC, chains row r's word times column c's into PE (r, c)'s accumulator.
// Write R_r and C_c for the row and column buses' next-free times, A for a
// MEM-A port's, P for a MEM-B port's, T for a MAC issue port's and F for
// its accumulator's chain-free time, with L the bus latency. The mesh is
// *regular* before a step when
//   (1) every R_r >= max(gate, every A of row r) + 1,
//   (2) every C_c >= R_c + L,
//   (3) every P of column c <= C_c + L, or the MEM-B slot is a whole cycle,
//   (4) with a MAC, every F equals its T bit for bit, T >= R_r + L and
//       T >= C_c + L.
// Then the owner's read is ready by R_r, so row r's broadcast takes slot
// R_r and arrives at R_r + L; column c's takes C_c and arrives at C_c + L;
// each MEM-B write starts at max(C_c + L, P) and each MAC issues at T.
// Afterwards every R_r, C_c, T and F has grown by exactly 1, the owner's
// max(gate, A) by one MEM-A slot (at most 1), and each P is C_c + L plus a
// slot (at most 1) or, with a whole-cycle slot, one cycle later, so (1) to
// (4) hold again. By induction the remaining S steps leave what one run
// per resource leaves: each owner's MEM-A reads back to back from
// max(gate, A), S slots per bus from R_r and C_c, each MEM-B port's S
// writes one cycle apart from max(C_c + L, P), and each MAC's S chained
// issues from T. As for rank-1 rows, every time those runs sum must lie on
// the grid of sim::on_grid.

/// One transpose capture, as StreamSchedule::capture_transpose received it.
struct Capture {
  index_t a_base;
  index_t rows;
  index_t row0;
  index_t steps;
  index_t slot;
  sim::time_t_ gate;
  int mac_parity;  ///< StreamSchedule::kCaptureOnly: no MAC
};

/// Whether the capture can close at all: enough steps, a gate and bus
/// latency on the exact grid, and every word it reads and writes inside
/// the stores (the close reads MEM-A raw; mem_a_addr grows with both of
/// its indices, so the first and last words bound the range).
bool capture_closable(const sim::Core& core, const Capture& w) {
  const sim::Pe& pe = core.pe(0, 0);
  const int nr = core.nr();
  const index_t lo = w.a_base + mem_a_addr(w.row0, 0, w.rows, nr);
  const index_t hi = w.a_base + mem_a_addr(w.row0 + nr - 1, w.steps - 1, w.rows, nr);
  return w.steps >= kMinCloseRun && w.steps < (index_t{1} << 38) && sim::on_grid(w.gate) &&
         sim::on_grid(core.config().bus_latency) && pe.mem_a.contains(lo, hi - lo + 1) &&
         pe.mem_b.contains(w.slot, w.steps);
}

/// Check the mesh before a capture step: conditions (1) to (4) above, then
/// whether every time the close sums is on the exact grid.
Regularity check_capture(const sim::Core& core, const Capture& w) {
  const int nr = core.nr();
  const sim::time_t_ latency = core.config().bus_latency;
  for (int r = 0; r < nr; ++r) {
    sim::time_t_ a_free = w.gate;
    for (int c = 0; c < nr; ++c) a_free = std::max(a_free, core.pe(r, c).mem_a.port_free());
    if (!(core.row_bus(r).next_free() >= a_free + 1.0)) return Regularity::kIrregular;
  }
  for (int c = 0; c < nr; ++c) {
    if (!(core.col_bus(c).next_free() >= core.row_bus(c).next_free() + latency))
      return Regularity::kIrregular;
    const sim::time_t_ col_in = core.col_bus(c).next_free() + latency;
    for (int r = 0; r < nr; ++r) {
      const sim::Pe& pe = core.pe(r, c);
      if (!(pe.mem_b.port_free() <= col_in || pe.mem_b.ports() == 1))
        return Regularity::kIrregular;
      if (w.mac_parity == StreamSchedule::kCaptureOnly) continue;
      const sim::time_t_ t = pe.mac.issue_port_free();
      if (!sim::same_bits(pe.mac.chain_free(w.mac_parity), t) || !(t >= col_in) ||
          !(t >= core.row_bus(r).next_free() + latency))
        return Regularity::kIrregular;
    }
  }
  for (int i = 0; i < nr; ++i) {
    if (!core.row_bus(i).on_grid() || !core.col_bus(i).on_grid()) return Regularity::kOffGrid;
    for (int c = 0; c < nr; ++c) {
      const sim::Pe& pe = core.pe(i, c);
      if (!pe.mem_a.port_on_grid() || !pe.mem_b.port_on_grid() ||
          (w.mac_parity != StreamSchedule::kCaptureOnly && !pe.mac.on_grid()))
        return Regularity::kOffGrid;
    }
  }
  return Regularity::kRegular;
}

/// Close a regular capture's steps [s, steps): gather each row's words,
/// write column c's words to every PE of column c, compute each MAC's
/// value with the stepping loop's fused multiply-adds in step order, then
/// one run per resource.
LAC_FMA_CLONES void close_capture(sim::Core& core, const Capture& w, index_t s) {
  const int nr = core.nr();
  const index_t run = w.steps - s;
  const std::size_t urun = static_cast<std::size_t>(run);
  // words[r * run + k]: row r's word of step s + k, at mem_a_addr(row0 + r,
  // s + k, rows, nr) on the owner: the column block advances every nr steps.
  sim::Scratch<double> words(static_cast<std::size_t>(nr) * urun);
  for (int r = 0; r < nr; ++r) {
    double* out = &words[static_cast<std::size_t>(r) * urun];
    index_t addr = w.a_base + mem_a_addr(w.row0 + r, s, w.rows, nr);
    int owner = static_cast<int>(s % nr);
    for (index_t k = 0; k < run; ++k) {
      out[k] = core.pe(r, owner).mem_a.words()[addr];
      if (++owner == nr) {
        owner = 0;
        addr += w.rows / nr;
      }
    }
  }
  const auto row_words = [&](int r) { return &words[static_cast<std::size_t>(r) * urun]; };
  if (w.mac_parity != StreamSchedule::kCaptureOnly) {
    // Four PEs of a row share a pass so their dependency chains overlap.
    for (int r = 0; r < nr; ++r) {
      const double* a = row_words(r);
      const auto acc_at = [&](int c) { return core.pe(r, c).mac.read_acc(w.mac_parity).v; };
      const auto finish = [&](int c, double value) {
        core.pe(r, c).mac.chain_run(w.mac_parity, run, value);
      };
      int c = 0;
      for (; c + 4 <= nr; c += 4) {
        const double *b0 = row_words(c), *b1 = row_words(c + 1), *b2 = row_words(c + 2),
                     *b3 = row_words(c + 3);
        double x0 = acc_at(c), x1 = acc_at(c + 1), x2 = acc_at(c + 2), x3 = acc_at(c + 3);
        for (index_t k = 0; k < run; ++k) {
          x0 = std::fma(a[k], b0[k], x0);
          x1 = std::fma(a[k], b1[k], x1);
          x2 = std::fma(a[k], b2[k], x2);
          x3 = std::fma(a[k], b3[k], x3);
        }
        finish(c, x0);
        finish(c + 1, x1);
        finish(c + 2, x2);
        finish(c + 3, x3);
      }
      for (; c < nr; ++c) {
        const double* b = row_words(c);
        double x = acc_at(c);
        for (index_t k = 0; k < run; ++k) x = std::fma(a[k], b[k], x);
        finish(c, x);
      }
    }
  }
  const sim::time_t_ latency = core.config().bus_latency;
  for (int c = 0; c < nr; ++c) {
    const sim::time_t_ col_in = core.col_bus(c).next_free() + latency;
    for (int r = 0; r < nr; ++r)
      core.pe(r, c).mem_b.write_run(w.slot + s, row_words(c), run, col_in, 1.0);
  }
  // MEM-A reads per owner column (owners cycle from column s % nr), then
  // the broadcasts.
  const int first_owner = static_cast<int>(s % nr);
  for (int o = 0; o < nr; ++o) {
    const index_t reads = run / nr + ((o - first_owner + nr) % nr < run % nr ? 1 : 0);
    if (reads == 0) continue;
    for (int r = 0; r < nr; ++r) core.pe(r, o).mem_a.read_run(w.gate, reads);
  }
  for (int i = 0; i < nr; ++i) {
    core.broadcast_row_run(i, run);
    core.broadcast_col_run(i, run);
  }
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
  // PE(r, p % nr)'s fragment of column p -- rows r, r + nr, ... -- is one
  // contiguous run of rows / nr words in its MEM-A.
  const index_t frag = rows / nr;
  sim::Scratch<double> words(static_cast<std::size_t>(frag));
  for (index_t p = 0; p < cols; ++p)
    for (int r = 0; r < nr; ++r) {
      for (index_t q = 0; q < frag; ++q)
        words[static_cast<std::size_t>(q)] = a(r + q * nr, p);
      core_.pe(r, static_cast<int>(p % nr))
          .mem_a.poke_range(base + mem_a_addr(r, p, rows, nr), words.vec().data(), frag);
    }
}

sim::time_t_ StreamSchedule::stage_resident(ConstViewD a, index_t base) {
  poke_resident(a, base);
  return dma(static_cast<double>(a.rows()) * a.cols());
}

sim::time_t_ StreamSchedule::stage_resident_lower(ConstViewD l) {
  const int nr = core_.nr();
  const index_t n = l.rows();
  assert(l.cols() == n && n % nr == 0);
  // As poke_resident, from each PE row's first row on or below the diagonal.
  sim::Scratch<double> words(static_cast<std::size_t>(n / nr));
  for (index_t p = 0; p < n; ++p)
    for (int r = 0; r < nr; ++r) {
      const index_t first = p + (r - p % nr + nr) % nr;
      const index_t count = first < n ? (n - first + nr - 1) / nr : 0;
      for (index_t q = 0; q < count; ++q)
        words[static_cast<std::size_t>(q)] = l(first + q * nr, p);
      core_.pe(r, static_cast<int>(p % nr))
          .mem_a.poke_range(mem_a_addr(first, p, n, nr), words.vec().data(), count);
    }
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
  const Rank1Sweep sweep{plan, parity, a_base, slot, steps, gate, negate};
  // Lock-step leads: every PE of a row reads the same MEM-B slot at the
  // same gate and MACs the same broadcast, so a PE whose timing matches an
  // earlier PE of its row at entry follows it through the whole sweep.
  // lead[r * nr + c] is the column PE (r, c) follows, c itself for a lead;
  // lead[nr * nr + r] is row r's state: rows are checked before each step
  // and closed once regular (check_row, close_row). A row regular but off
  // the exact grid, a row with fewer than kMinCloseRun steps left and
  // every row of a sweep that cannot close step to the end unchecked
  // (stepping is exact anywhere, and a time off the grid seldom returns
  // to it).
  enum : int { kClosed, kCheck, kStep };
  const int initial = sweep_closable(core_, sweep) ? kCheck : kStep;
  sim::Scratch<int> lead(static_cast<std::size_t>(nr) * nr + nr);
  for (int r = 0; r < nr; ++r) {
    for (int c = 0; c < nr; ++c) {
      int l = 0;
      while (l < c && !core_.pe(r, c).lockstep_with(core_.pe(r, l), parity)) ++l;
      lead[static_cast<std::size_t>(r * nr + c)] = l;
    }
    lead[static_cast<std::size_t>(nr * nr + r)] = initial;
  }
  // Step-major, rows interleaved as the hardware runs them.
  int open_rows = nr;
  for (index_t s = 0; s < steps && open_rows > 0; ++s) {
    const int owner = plan.owner[static_cast<std::size_t>(s)];
    for (int r = 0; r < nr; ++r) {
      int& state = lead[static_cast<std::size_t>(nr * nr + r)];
      if (state == kClosed) continue;
      const int* row_lead = &lead[static_cast<std::size_t>(r * nr)];
      if (state == kCheck) {
        if (steps - s < kMinCloseRun) {
          state = kStep;
        } else if (const Regularity check = check_row(core_, sweep, r, row_lead);
                   check == Regularity::kRegular) {
          close_row(core_, sweep, r, row_lead, s);
          state = kClosed;
          --open_rows;
          continue;
        } else if (check == Regularity::kOffGrid) {
          state = kStep;
        }
      }
      // One step: the owner's timed MEM-A read and broadcast, then each
      // lead's timed MEM-B read and chained MAC; followers compute values.
      sim::TimedVal av = core_.pe(r, owner).mem_a.read(
          a_base + plan.a_addr[static_cast<std::size_t>(s * nr + r)], gate);
      if (negate) av.v = -av.v;
      const sim::TimedVal a_bcast = core_.broadcast_row(r, av);
      for (int c = 0; c < nr; ++c) {
        sim::Pe& pe = core_.pe(r, c);
        if (row_lead[c] == c) {
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

LAC_FMA_CLONES void StreamSchedule::capture_transpose(index_t a_base, index_t rows,
                                                      index_t row0, index_t steps,
                                                      index_t slot, sim::time_t_ gate,
                                                      int mac_parity) {
  const int nr = core_.nr();
  const Capture capture{a_base, rows, row0, steps, slot, gate, mac_parity};
  // Checked before each step until regular (then closed) or regular off
  // the grid (then stepped to the end, as rank1_update steps such rows).
  bool check = capture_closable(core_, capture);
  sim::Scratch<sim::TimedVal> row_val(static_cast<std::size_t>(nr));
  for (index_t p = 0; p < steps; ++p) {
    if (check) {
      if (steps - p < kMinCloseRun) {
        check = false;
      } else if (const Regularity reg = check_capture(core_, capture);
                 reg == Regularity::kRegular) {
        close_capture(core_, capture, p);
        return;
      } else if (reg == Regularity::kOffGrid) {
        check = false;
      }
    }
    const int owner = static_cast<int>(p % nr);
    for (int r = 0; r < nr; ++r) {
      const sim::TimedVal av =
          core_.pe(r, owner).mem_a.read(a_base + mem_a_addr(row0 + r, p, rows, nr), gate);
      row_val[static_cast<std::size_t>(r)] = core_.broadcast_row(r, av);
    }
    for (int c = 0; c < nr; ++c) {
      const sim::TimedVal tv = core_.broadcast_col(c, row_val[static_cast<std::size_t>(c)]);
      for (int r = 0; r < nr; ++r) {
        sim::Pe& pe = core_.pe(r, c);
        pe.mem_b.write(slot + p, tv.v, tv.ready);
        if (mac_parity != kCaptureOnly)
          pe.mac.mac_into_acc(mac_parity, row_val[static_cast<std::size_t>(r)], tv);
      }
    }
  }
}

}  // namespace lac::fabric
