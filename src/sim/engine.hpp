#pragma once
// Timed-dataflow simulation engine.
//
// The LAC (Ch. 3) has no caches, no dynamic arbitration and lock-step,
// predetermined control: every data movement is known in advance. For such
// hardware a static-schedule simulation is cycle-exact: each value carries
// the cycle at which it becomes available, each structural resource (MAC
// issue port, bus slot, SRAM port, DMA bandwidth) tracks when it is next
// free, and an operation starts at the max of its operand-ready and
// resource-free times. Functional values flow with the timestamps, so the
// simulator simultaneously verifies numerics and yields exact cycle counts.
//
// Lock-step control also means identical PEs follow identical timelines:
// within a rank-1 sweep every PE of a row sees the same broadcast, gate and
// MEM-B slot, so PEs whose port and accumulator timing start bit-identical
// stay bit-identical. fabric::StreamSchedule::rank1_update times one lead
// per such group and lets the others follow (Pe::lockstep_with /
// Pe::follow); only the values are computed per PE.
//
// Static scheduling also fixes a sweep's timeline once it settles: when a
// row is *regular* -- its bus frees at least one cycle (the MEM-A read
// latency) after every MEM-A read of the row could start, and each lead's
// chained MAC issues when its port frees, no earlier than the broadcast
// and its MEM-B read arrive -- every later step takes one bus cycle and
// one MAC cycle and no read binds. rank1_update then closes the row's
// remaining steps with one bulk update per resource (Resource::acquire_run
// and the *_run helpers built on it). Bulk and per-step sums agree bit for
// bit because every time involved lies on the quarter-cycle grid below
// 2^40 (on_grid() is checked before each close), where double addition is
// exact in any grouping. Cycles, Stats and outputs are byte-identical to timing every
// PE at every step (tests/test_sim_golden.cpp pins them).
//
// Two more loops close the same way. SYRK's and SYR2K's transpose capture
// (StreamSchedule::capture_transpose) closes when the whole mesh is
// regular: every bus, MEM-B port and MAC then advances one cycle per step,
// and the MEM-B writes land one cycle apart (Resource::acquire_spaced).
// The on-core Cholesky's trailing update (kernels::chol_trailing_update)
// is a chain of dependent FMAs per PE and block; each PE closes once no
// broadcast or element it has left can arrive after the back-to-back
// chains would need it, its chains then issue `depth` cycles apart
// (MacPipeline::fma_chains_run), and the buses close after the last PE.
#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/types.hpp"

namespace lac::sim {

/// Simulated time in cycles. Fractional values arise from bandwidth-limited
/// transfers (e.g. 0.5 words/cycle); compute ops land on integer boundaries.
using time_t_ = double;

/// A value travelling through the datapath with its availability time.
struct TimedVal {
  double v = 0.0;
  time_t_ ready = 0.0;
};

inline TimedVal at(double v, time_t_ ready) { return {v, ready}; }

/// True when `t` is a multiple of 1/4 in [0, 2^38). Sums of such times,
/// and their products with counts below 2^38, are multiples of 1/4 below
/// 2^40: exact doubles, so a bulk update of a timeline equals the step-by-
/// step one bit for bit. NaN and infinities are off the grid.
inline bool on_grid(time_t_ t) {
  if (!(t >= 0.0 && t < 0x1p38)) return false;
  const double quarters = t * 4.0;  // exact: a power-of-two scale
  return static_cast<double>(static_cast<std::int64_t>(quarters)) == quarters;
}

/// Bit-pattern equality: unlike `==`, tells -0.0 from 0.0.
inline bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// A structural resource with one in-flight operation slot per cycle
/// (issue port, bus, SRAM port) or a duration-based pipe (DMA engine).
class Resource {
 public:
  /// Claim the resource no earlier than `earliest` for `duration` cycles.
  /// Returns the actual start time.
  time_t_ acquire(time_t_ earliest, time_t_ duration = 1.0) {
    const time_t_ start = std::max(earliest, next_free_);
    next_free_ = start + duration;
    busy_ += duration;
    ++ops_;
    return start;
  }

  /// `count` > 0 back-to-back acquires of `duration` each, the first no
  /// earlier than `earliest`: the state `count` calls of acquire(earliest,
  /// duration) leave, since each later call starts where the one before it
  /// ended. Bit-identical to them when on_grid() holds, `earliest` and
  /// `duration` are on the grid and `count` < 2^38: count * duration is
  /// then exact, so the sums round as the step-by-step ones do, and a
  /// compiler that contracts `start + count * duration` into a fused
  /// multiply-add (as GCC may in a LAC_FMA_CLONES clone) rounds the same
  /// too. Returns the first start. It is also the state `count` acquires
  /// leave whose k-th (from 0) may start no earlier than its own e_k, when
  /// `earliest` is the greatest e_k - k * duration: each starts at the later
  /// of the previous end and its e_k, so the last ends at the greatest of
  /// next_free() + count * duration and every e_k + (count - k) * duration,
  /// which is max(earliest, next_free()) + count * duration.
  time_t_ acquire_run(time_t_ earliest, std::int64_t count, time_t_ duration) {
    const time_t_ start = std::max(earliest, next_free_);
    const time_t_ span = static_cast<double>(count) * duration;
    next_free_ = start + span;
    busy_ += span;
    ops_ += count;
    return start;
  }
  /// `count` > 0 acquires of `duration` each that the caller has shown
  /// start no earlier than the one before ends, the first no earlier than
  /// next_free() and the last at `last_start`: the next-free and busy time
  /// they leave, for runs whose starts are spaced out (LocalStore::write_run,
  /// MacPipeline::fma_chains_run). Bit-identical to the acquire calls under
  /// the conditions of acquire_run.
  void acquire_spaced(time_t_ last_start, std::int64_t count, time_t_ duration) {
    next_free_ = last_start + duration;
    busy_ += static_cast<double>(count) * duration;
    ops_ += count;
  }

  time_t_ next_free() const { return next_free_; }
  time_t_ busy_cycles() const { return busy_; }
  /// Next-free and busy time both on the exact grid (see on_grid).
  bool on_grid() const { return sim::on_grid(next_free_) && sim::on_grid(busy_); }
  std::int64_t ops() const { return ops_; }
  void reset() { next_free_ = 0.0; busy_ = 0.0; ops_ = 0; }

  /// Next-free and busy time equal to `o`'s bit for bit (not `==`): the
  /// same acquire sequence then yields the same starts and busy time.
  bool same_timing(const Resource& o) const {
    return same_bits(next_free_, o.next_free_) && same_bits(busy_, o.busy_);
  }
  /// Account `ops` acquires that `lead` timed from the same state: take
  /// its next-free and busy time, count the ops here.
  void follow(const Resource& lead, std::int64_t ops) {
    next_free_ = lead.next_free_;
    busy_ = lead.busy_;
    ops_ += ops;
  }

 private:
  time_t_ next_free_ = 0.0;
  time_t_ busy_ = 0.0;
  std::int64_t ops_ = 0;
};

/// Activity counters aggregated over a kernel run; the power model turns
/// these into energy via per-op energies.
struct Stats {
  std::int64_t mac_ops = 0;        ///< MAC issues (1 MAC = 2 flops)
  std::int64_t mul_ops = 0;        ///< plain multiplies / adds on the MAC
  std::int64_t cmp_ops = 0;        ///< comparator operations (pivot search)
  std::int64_t mem_a_reads = 0;
  std::int64_t mem_a_writes = 0;
  std::int64_t mem_b_reads = 0;
  std::int64_t mem_b_writes = 0;
  std::int64_t rf_reads = 0;
  std::int64_t rf_writes = 0;
  std::int64_t row_bus_xfers = 0;
  std::int64_t col_bus_xfers = 0;
  std::int64_t sfu_ops = 0;
  std::int64_t dma_words = 0;      ///< words moved over the memory interface
  /// Local-store accesses outside the store, counted instead of performed:
  /// a schedule that does not fit the PE memories. Any makes the run fail.
  std::int64_t overruns = 0;

  std::int64_t flops() const { return 2 * mac_ops + mul_ops; }

  Stats& operator+=(const Stats& o) {
    mac_ops += o.mac_ops; mul_ops += o.mul_ops; cmp_ops += o.cmp_ops;
    mem_a_reads += o.mem_a_reads; mem_a_writes += o.mem_a_writes;
    mem_b_reads += o.mem_b_reads; mem_b_writes += o.mem_b_writes;
    rf_reads += o.rf_reads; rf_writes += o.rf_writes;
    row_bus_xfers += o.row_bus_xfers; col_bus_xfers += o.col_bus_xfers;
    sfu_ops += o.sfu_ops; dma_words += o.dma_words;
    overruns += o.overruns;
    return *this;
  }
};

}  // namespace lac::sim
