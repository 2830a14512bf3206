#pragma once
// PE-local storage: MEM-A (large, single-ported), MEM-B (small,
// dual-ported) and the 4-entry register file (§3.2.2).
//
// Functional contents are flat word arrays addressed by the kernel mappers
// (access patterns are sequential/auto-incrementing in the real hardware,
// so explicit addresses carry no modeling cost). Port contention is timed
// through one Resource per port group; block arrival times are tracked at
// DMA granularity by the kernels. An address outside the store touches no
// memory: it counts an overrun (Stats::overruns), reads as 0.0, and the
// executor fails the run in-band.
#include <algorithm>
#include <cassert>
#include <vector>

#include "sim/engine.hpp"

namespace lac::sim {

class LocalStore {
 public:
  LocalStore(index_t words, int ports)
      : data_(static_cast<std::size_t>(words), 0.0),
        words_(data_.size()),
        ports_(ports),
        slot_(1.0 / ports) {}

  index_t size() const { return static_cast<index_t>(words_); }
  int ports() const { return ports_; }
  /// [first, first + count) lies inside the store.
  bool contains(index_t first, index_t count) const {
    return first >= 0 && count >= 0 && first <= size() - count;
  }
  /// Word `addr` lies inside the store (one unsigned compare: a negative
  /// address wraps past every size).
  bool contains(index_t addr) const { return static_cast<std::size_t>(addr) < words_; }

  // read/write live in the header: they sit on the innermost loop of every
  // kernel schedule and must inline into the callers.

  /// Timed read: charges a port slot, value ready one cycle later.
  TimedVal read(index_t addr, time_t_ earliest) {
    const time_t_ start = port_.acquire(earliest, slot_);
    ++reads_;
    return {peek(addr), start + 1.0};
  }
  /// Timed write: charges a port slot.
  time_t_ write(index_t addr, double v, time_t_ earliest) {
    const time_t_ start = port_.acquire(earliest, slot_);
    poke(addr, v);
    ++writes_;
    return start + 1.0;
  }
  /// Time `count` > 0 reads gated at `earliest` that run back to back (see
  /// Resource::acquire_run); the caller reads the words through words().
  void read_run(time_t_ earliest, index_t count) {
    port_.acquire_run(earliest, count, slot_);
    reads_ += count;
  }
  /// Close `count` > 0 writes of src[0..count) to [first, first + count),
  /// the k-th no earlier than `earliest` + k * `period`, where `period` is
  /// at least a slot and the caller has shown the port frees by `earliest`
  /// or the slot is the whole period: each then starts `period` after the
  /// one before, from max(earliest, port_free()), and this leaves what
  /// `count` write() calls leave (exact on the grid, see
  /// Resource::acquire_run).
  void write_run(index_t first, const double* src, index_t count, time_t_ earliest,
                 time_t_ period) {
    const time_t_ start = std::max(earliest, port_.next_free());
    port_.acquire_spaced(start + static_cast<double>(count - 1) * period, count, slot_);
    poke_range(first, src, count);
    writes_ += count;
  }

  /// Untimed accessors for DMA fills (timing charged on the DMA engine).
  double peek(index_t addr) {
    if (!contains(addr)) return overrun();
    return data_[static_cast<std::size_t>(addr)];
  }
  void poke(index_t addr, double v) {
    if (!contains(addr)) {
      overrun();
      return;
    }
    data_[static_cast<std::size_t>(addr)] = v;
    dirty_ = std::max(dirty_, addr + 1);
  }
  /// Untimed write of `count` words from `src` to [first, first + count),
  /// as `count` pokes would leave it (a range outside the store pokes word
  /// by word, so each outside word counts its overrun).
  void poke_range(index_t first, const double* src, index_t count) {
    if (!contains(first, count)) {
      for (index_t i = 0; i < count; ++i) poke(first + i, src[i]);
      return;
    }
    std::copy_n(src, count, data_.begin() + first);
    if (count > 0) dirty_ = std::max(dirty_, first + count);
  }
  /// The words, for untimed bulk reads: the caller checks its range with
  /// contains() first.
  const double* words() const { return data_.data(); }

  /// Port next-free time: the earliest an ungated access could start.
  time_t_ port_free() const { return port_.next_free(); }
  /// Port state and slot duration on the exact grid (see sim::on_grid); the
  /// slot is then 1, 1/2 or 1/4 of a cycle.
  bool port_on_grid() const { return on_grid(slot_) && port_.on_grid(); }
  /// Port timing bit-identical to `o`'s (see Resource::same_timing).
  bool port_lockstep_with(const LocalStore& o) const { return port_.same_timing(o.port_); }
  /// Account `reads` reads that `lead`'s port timed from the same state;
  /// the words themselves were read untimed (peek).
  void follow_reads(const LocalStore& lead, index_t reads) {
    port_.follow(lead.port_, reads);
    reads_ += reads;
  }

  std::int64_t reads() const { return reads_; }
  std::int64_t writes() const { return writes_; }
  std::int64_t overruns() const { return overruns_; }
  void reset_counters() { reads_ = 0; writes_ = 0; overruns_ = 0; port_.reset(); }
  /// Restore fresh-constructed state: zeroed words (a freshly constructed
  /// store is zero-initialized, and pooled reuse must be byte-identical to
  /// construction), free port, zero counters. Only words written since the
  /// last reset can be non-zero, so only those are cleared.
  void reset() {
    std::fill(data_.begin(), data_.begin() + dirty_, 0.0);
    dirty_ = 0;
    reset_counters();
  }

 private:
  double overrun() {
    ++overruns_;
    return 0.0;
  }

  std::vector<double> data_;
  std::size_t words_;  ///< data_.size(), fixed at construction: one load per check
  int ports_;
  time_t_ slot_;  ///< `ports_` accesses fit in one cycle: 1/ports_ each
  Resource port_;  ///< aggregated: `ports_` accesses per cycle
  index_t dirty_ = 0;  ///< one past the highest word written since reset
  std::int64_t reads_ = 0;
  std::int64_t writes_ = 0;
  std::int64_t overruns_ = 0;
};

/// Small multi-ported register file (1 write + 2 read ports).
class RegisterFile {
 public:
  explicit RegisterFile(int entries) : regs_(static_cast<std::size_t>(entries)) {}

  TimedVal read(int idx, time_t_ earliest) {
    assert(idx >= 0 && idx < static_cast<int>(regs_.size()));
    ++reads_;
    const TimedVal& r = regs_[static_cast<std::size_t>(idx)];
    return {r.v, std::max(r.ready, earliest)};
  }
  void write(int idx, TimedVal v) {
    assert(idx >= 0 && idx < static_cast<int>(regs_.size()));
    ++writes_;
    regs_[static_cast<std::size_t>(idx)] = v;
  }

  std::int64_t reads() const { return reads_; }
  std::int64_t writes() const { return writes_; }
  /// Restore fresh-constructed state (zeroed entries, zero counters).
  void reset() {
    regs_.assign(regs_.size(), TimedVal{});
    reads_ = 0;
    writes_ = 0;
  }

 private:
  std::vector<TimedVal> regs_;
  std::int64_t reads_ = 0;
  std::int64_t writes_ = 0;
};

}  // namespace lac::sim
