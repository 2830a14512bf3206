#pragma once
// The simulated Linear Algebra Core: an nr x nr mesh of PEs, row/column
// broadcast buses, a bandwidth-limited memory interface to the on-chip
// memory, and a special-function unit (Fig 1.1 / Fig 3.1).
#include <cassert>
#include <vector>

#include "arch/configs.hpp"
#include "sim/engine.hpp"
#include "sim/local_store.hpp"
#include "sim/mac_pipeline.hpp"
#include "sim/sfu.hpp"

namespace lac::sim {

/// One processing element: MAC pipeline + MEM-A + MEM-B + register file.
struct Pe {
  Pe(const arch::CoreConfig& cfg, int accumulators);

  /// Restore fresh-constructed state (resizing the accumulator set).
  void reset(int accumulators);

  /// MEM-B port, MAC issue port and accumulator `acc` timing bit-identical
  /// to `o`'s: a rank-1 sweep (timed MEM-B read, then a chained MAC into
  /// `acc`, per step) then times this PE exactly as it times `o`.
  bool lockstep_with(const Pe& o, int acc) const {
    return mem_b.port_lockstep_with(o.mem_b) && mac.lockstep_with(o.mac, acc);
  }
  /// Close a sweep of `steps` steps in which `lead` (lockstep_with it at
  /// entry) ran the timed reads and MACs and this PE only computed values
  /// (MEM-B peek + MacPipeline::accumulate): take the lead's timing, count
  /// this PE's own reads and MACs.
  void follow(const Pe& lead, int acc, index_t steps) {
    mem_b.follow_reads(lead.mem_b, steps);
    mac.follow(lead.mac, acc, steps);
  }

  MacPipeline mac;
  LocalStore mem_a;
  LocalStore mem_b;
  RegisterFile rf;
};

class Core {
 public:
  /// `bw_words_per_cycle` is the core <-> on-chip memory bandwidth x of
  /// §3.4; `accumulators` sizes the per-PE accumulator register set.
  Core(const arch::CoreConfig& cfg, double bw_words_per_cycle, int accumulators = 4);

  /// Restore the exact fresh-constructed state for the same config under a
  /// (possibly different) bandwidth and accumulator count: zeroed local
  /// stores, free resources, zero counters. A pooled core run after
  /// reset() is byte-identical to a newly constructed one (sim/arena.hpp
  /// relies on this; tests/test_core_sim.cpp pins it).
  void reset(double bw_words_per_cycle, int accumulators);

  const arch::CoreConfig& config() const { return cfg_; }
  int nr() const { return cfg_.nr; }

  // pe()/broadcast/dma are header-inline: they gate every operation of a
  // kernel schedule and out-of-line calls dominate the sim profile.

  Pe& pe(int row, int col) {
    assert(row >= 0 && row < cfg_.nr && col >= 0 && col < cfg_.nr);
    return pes_[static_cast<std::size_t>(row) * cfg_.nr + col];
  }
  const Pe& pe(int row, int col) const {
    assert(row >= 0 && row < cfg_.nr && col >= 0 && col < cfg_.nr);
    return pes_[static_cast<std::size_t>(row) * cfg_.nr + col];
  }

  /// ---- broadcast communication ----------------------------------------
  /// One-cycle broadcast on row bus `row`; all PEs of the row observe the
  /// value `bus_latency` cycles after the slot is granted.
  TimedVal broadcast_row(int row, TimedVal v) {
    assert(row >= 0 && row < cfg_.nr);
    const time_t_ start = row_bus_[static_cast<std::size_t>(row)].acquire(v.ready, 1.0);
    ++row_xfers_;
    return {v.v, start + cfg_.bus_latency};
  }
  /// Close `count` > 0 broadcasts on row bus `row` whose k-th word is
  /// ready at e_k: with `earliest` the greatest e_k - k (0 when the caller
  /// has shown every word is ready by its slot, so they run back to back),
  /// the state `count` calls of broadcast_row leave, exact when the bus and
  /// `earliest` are on the grid (see Resource::acquire_run).
  void broadcast_row_run(int row, index_t count, time_t_ earliest = 0.0) {
    assert(row >= 0 && row < cfg_.nr);
    row_bus_[static_cast<std::size_t>(row)].acquire_run(earliest, count, 1.0);
    row_xfers_ += count;
  }
  /// Row bus `row`'s timing, for schedules that reason about when it frees.
  const Resource& row_bus(int row) const {
    assert(row >= 0 && row < cfg_.nr);
    return row_bus_[static_cast<std::size_t>(row)];
  }
  TimedVal broadcast_col(int col, TimedVal v) {
    assert(col >= 0 && col < cfg_.nr);
    const time_t_ start = col_bus_[static_cast<std::size_t>(col)].acquire(v.ready, 1.0);
    ++col_xfers_;
    return {v.v, start + cfg_.bus_latency};
  }
  /// broadcast_row_run for column bus `col`.
  void broadcast_col_run(int col, index_t count, time_t_ earliest = 0.0) {
    assert(col >= 0 && col < cfg_.nr);
    col_bus_[static_cast<std::size_t>(col)].acquire_run(earliest, count, 1.0);
    col_xfers_ += count;
  }
  /// Column bus `col`'s timing.
  const Resource& col_bus(int col) const {
    assert(col >= 0 && col < cfg_.nr);
    return col_bus_[static_cast<std::size_t>(col)];
  }

  /// ---- memory interface -------------------------------------------------
  /// Stream `words` over the core's memory interface starting no earlier
  /// than `earliest`; returns the completion time. Charged at the
  /// configured words/cycle. Used for loads and stores alike (the column
  /// buses are multiplexed for external transfers, §3.2.1).
  time_t_ dma(double words, time_t_ earliest) {
    if (words <= 0.0) return earliest;
    const time_t_ start = mem_if_.acquire(earliest, words / bw_);
    dma_words_ += static_cast<std::int64_t>(words);
    return start + words / bw_;
  }

  /// ---- special functions -------------------------------------------------
  Sfu& sfu() { return sfu_; }
  /// Issue a special function from PE (row, col): under the Software
  /// option it occupies that PE's MAC; under DiagonalPEs the request is
  /// serviced locally when row == col, otherwise routed over the buses
  /// (one extra hop each way).
  TimedVal special(SfuKind kind, int row, int col, TimedVal x, time_t_ earliest = 0.0);

  /// ---- bookkeeping --------------------------------------------------------
  /// Latest completion time over every resource and accumulator: the
  /// makespan of everything issued so far.
  time_t_ finish_time() const;

  Stats stats() const;
  double bw_words_per_cycle() const { return bw_; }
  /// MAC issue-slot utilization over the makespan.
  double mac_utilization() const;

 private:
  arch::CoreConfig cfg_;
  double bw_;
  std::vector<Pe> pes_;  ///< flat row-major mesh: one allocation, no per-PE indirection
  std::vector<Resource> row_bus_;
  std::vector<Resource> col_bus_;
  Resource mem_if_;
  Sfu sfu_;
  std::int64_t row_xfers_ = 0;
  std::int64_t col_xfers_ = 0;
  std::int64_t dma_words_ = 0;
};

}  // namespace lac::sim
