#pragma once
// Pipelined fused multiply-accumulate unit with a local accumulator
// (§3.2): throughput of one MAC per cycle via delayed normalization, so
// back-to-back accumulations into the same accumulator issue every cycle,
// while any consumer of the accumulated value (or of a general FMA result)
// waits the full pipeline depth p.
#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "sim/engine.hpp"

/// Compile the marked function twice on x86-64 ELF (GCC/Clang): once for
/// FMA hardware and once for the baseline ISA, picked by the loader from
/// the CPU. std::fma then becomes one instruction instead of a libm call.
/// Elsewhere it expands to nothing (aarch64 inlines std::fma already; MSVC
/// has no such attribute).
///
/// Rule: a function carrying LAC_FMA_CLONES -- counting everything inlined
/// into it -- may contain no `a * b + c` other than an explicit std::fma.
/// GCC contracts such an expression into a fused multiply-add in the FMA
/// clone only, so the two clones would round differently and the
/// simulator's output would depend on the host CPU. (Times on the exact
/// grid of sim::on_grid are exempt: there every grouping rounds alike.)
/// Nor may an std::fma operand be negated where the compiler can see it:
/// GCC folds std::fma(-a, b, c) into a negated multiply-add, which returns
/// a NaN `a` without flipping its sign; negate through sim::negated
/// instead. Where two different NaNs meet in one std::fma, which one the
/// result carries follows the operand order of the instruction the
/// compiler picks, so such outputs are not pinned. Every helper holding an
/// std::fma must inline into the clone, or it stays a libm call there
/// (tools/check_fma_clones.py checks the built library).
///
/// ThreadSanitizer builds go without clones: the loader runs the clone
/// resolver before the TSan runtime is up, and the instrumented resolver
/// crashes at startup.
#if defined(__x86_64__) && defined(__ELF__) && defined(__has_attribute) && \
    !defined(__SANITIZE_THREAD__)
#if __has_attribute(target_clones)
#define LAC_FMA_CLONES __attribute__((target_clones("fma", "default")))
#endif
#endif
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#undef LAC_FMA_CLONES
#endif
#endif
#ifndef LAC_FMA_CLONES
#define LAC_FMA_CLONES
#endif

namespace lac::sim {

/// -v, with the negation hidden from the optimizer: GCC folds
/// std::fma(-a, b, c) into a negated multiply-add, which returns a NaN `a`
/// without the sign flip, so an std::fma operand in a LAC_FMA_CLONES
/// function negates through this (the barrier emits no instruction).
inline double negated(double v) {
  v = -v;
#if defined(__x86_64__) && defined(__GNUC__)
  __asm__("" : "+x"(v));
#endif
  return v;
}

class MacPipeline {
 public:
  MacPipeline(int pipeline_stages, int accumulators)
      : depth_(pipeline_stages), accs_(static_cast<std::size_t>(accumulators)) {}

  int depth() const { return static_cast<int>(depth_); }

  // The arithmetic ops below are defined in the header: they are the
  // innermost operations of every kernel schedule (millions of calls per
  // serving request stream), and keeping them inlineable is worth more
  // than any other single optimization on the sim path.

  /// acc[idx] += a.v * b.v. Single-cycle accumulation: a chained MAC into
  /// the same accumulator may issue one cycle after the previous one.
  /// Returns the issue time.
  time_t_ mac_into_acc(int idx, TimedVal a, TimedVal b, time_t_ earliest = 0.0) {
    assert(idx >= 0 && idx < static_cast<int>(accs_.size()));
    Acc& acc = accs_[static_cast<std::size_t>(idx)];
    const time_t_ operands = std::max({a.ready, b.ready, acc.chain_free, earliest});
    const time_t_ issue = issue_.acquire(operands, 1.0);
    acc.value = std::fma(a.v, b.v, acc.value);
    acc.ready = issue + depth_;
    acc.chain_free = issue + 1.0;  // delayed normalization: 1 acc/cycle
    ++mac_ops_;
    return issue;
  }

  /// acc[idx] = fma(a, b, acc[idx]) with no timing and no count: the value
  /// half of mac_into_acc, for a PE whose timing a lock-step lead carries
  /// (Pe::follow accounts the MACs).
  void accumulate(int idx, double a, double b) {
    assert(idx >= 0 && idx < static_cast<int>(accs_.size()));
    Acc& acc = accs_[static_cast<std::size_t>(idx)];
    acc.value = std::fma(a, b, acc.value);
  }

  /// General 3-input FMA: returns a*b + c as a new value, ready p cycles
  /// after issue (used by TRSM updates, butterflies, ...).
  TimedVal fma(TimedVal a, TimedVal b, TimedVal c, time_t_ earliest = 0.0) {
    const time_t_ operands = std::max({a.ready, b.ready, c.ready, earliest});
    const time_t_ issue = issue_.acquire(operands, 1.0);
    ++mac_ops_;
    return {std::fma(a.v, b.v, c.v), issue + depth_};
  }

  /// 2-input multiply (counted separately from MACs in the stats).
  TimedVal mul(TimedVal a, TimedVal b, time_t_ earliest = 0.0) {
    const time_t_ operands = std::max({a.ready, b.ready, earliest});
    const time_t_ issue = issue_.acquire(operands, 1.0);
    ++mul_ops_;
    return {a.v * b.v, issue + depth_};
  }
  TimedVal add(TimedVal a, TimedVal b, time_t_ earliest = 0.0) {
    const time_t_ operands = std::max({a.ready, b.ready, earliest});
    const time_t_ issue = issue_.acquire(operands, 1.0);
    ++mul_ops_;
    return {a.v + b.v, issue + depth_};
  }

  /// Magnitude compare on the MAC datapath. With the comparator extension
  /// it is a 1-cycle dedicated op; without it, emulation costs two issue
  /// slots, and the outcome is known once the pipeline drains.
  TimedVal compare_abs_max(TimedVal a, TimedVal b, bool comparator_ext,
                           time_t_ earliest = 0.0) {
    const time_t_ operands = std::max({a.ready, b.ready, earliest});
    ++cmp_ops_;
    if (comparator_ext) {
      // Dedicated exponent/mantissa comparator beside the MAC: 1 cycle.
      const time_t_ issue = issue_.acquire(operands, 1.0);
      return {std::abs(a.v) >= std::abs(b.v) ? a.v : b.v, issue + 1.0};
    }
    // Emulated: subtract magnitudes on the MAC and examine the sign; costs
    // two issue slots and the result is only known once the pipeline drains.
    const time_t_ issue = issue_.acquire(operands, 2.0);
    return {std::abs(a.v) >= std::abs(b.v) ? a.v : b.v, issue + 2.0 + depth_};
  }

  /// Read the accumulated value (forces normalization: the pipeline drains).
  TimedVal read_acc(int idx, time_t_ earliest = 0.0) const {
    assert(idx >= 0 && idx < static_cast<int>(accs_.size()));
    const Acc& acc = accs_[static_cast<std::size_t>(idx)];
    return {acc.value, std::max(acc.ready, earliest)};
  }
  /// Preload an accumulator (e.g. with an incoming C element).
  void set_acc(int idx, TimedVal v) {
    assert(idx >= 0 && idx < static_cast<int>(accs_.size()));
    Acc& acc = accs_[static_cast<std::size_t>(idx)];
    acc.value = v.v;
    acc.ready = v.ready;
    acc.chain_free = v.ready;
  }

  /// Restore fresh-constructed state (the pipeline depth is config-bound
  /// and survives); `accumulators` resizes the accumulator register set so
  /// one pooled PE serves kernels with different double-buffering needs.
  void reset(int accumulators) {
    accs_.assign(static_cast<std::size_t>(accumulators), Acc{});
    issue_.reset();
    mac_ops_ = 0;
    mul_ops_ = 0;
    cmp_ops_ = 0;
  }

  std::int64_t mac_ops() const { return mac_ops_; }
  std::int64_t mul_ops() const { return mul_ops_; }
  std::int64_t cmp_ops() const { return cmp_ops_; }
  time_t_ issue_port_free() const { return issue_.next_free(); }
  time_t_ busy_cycles() const { return issue_.busy_cycles(); }

  /// Block the issue port (e.g. software-emulated divide on this MAC).
  time_t_ occupy(time_t_ earliest, time_t_ cycles) { return issue_.acquire(earliest, cycles); }

  /// Issue port and accumulator `idx` timing (ready and chain-free) bit-
  /// identical to `o`'s: the same chained MACs then issue at the same times.
  bool lockstep_with(const MacPipeline& o, int idx) const {
    assert(idx >= 0 && idx < static_cast<int>(accs_.size()));
    const Acc& a = accs_[static_cast<std::size_t>(idx)];
    const Acc& b = o.accs_[static_cast<std::size_t>(idx)];
    return issue_.same_timing(o.issue_) && same_bits(a.ready, b.ready) &&
           same_bits(a.chain_free, b.chain_free);
  }
  /// When the next chained MAC into `idx` may issue (see mac_into_acc).
  time_t_ chain_free(int idx) const {
    assert(idx >= 0 && idx < static_cast<int>(accs_.size()));
    return accs_[static_cast<std::size_t>(idx)].chain_free;
  }
  /// Issue port state and pipeline depth on the exact grid (sim::on_grid).
  bool on_grid() const { return sim::on_grid(depth_) && issue_.on_grid(); }
  /// Close `count` > 0 chained MACs into accumulator `idx` that issue back
  /// to back from the issue port's next-free time (the caller has shown no
  /// operand binds), leaving `value`, which the caller computed with the
  /// same std::fma calls in the same order: the state `count` calls of
  /// mac_into_acc leave. Exact under on_grid() (count * 1 cycle and the
  /// sums stay on the grid), so both FMA clones agree.
  void chain_run(int idx, index_t count, double value) {
    assert(idx >= 0 && idx < static_cast<int>(accs_.size()) && count > 0);
    Acc& acc = accs_[static_cast<std::size_t>(idx)];
    const time_t_ first = issue_.acquire_run(issue_.next_free(), count, 1.0);
    const time_t_ last = first + static_cast<double>(count - 1);
    acc.value = value;
    acc.ready = last + depth_;
    acc.chain_free = last + 1.0;
    mac_ops_ += count;
  }
  /// Close `chains` > 0 chains of `len` > 0 general fma() calls issued from
  /// the issue port's next-free time with no operand late: each FMA of a
  /// chain consumes the one before it, so issues `depth` cycles after it,
  /// and the next chain issues one cycle after a chain's last FMA. Leaves
  /// the port as those fma() calls leave it (the caller computes their
  /// values with the same std::fma calls), exact under on_grid(); returns
  /// the first issue time, from which chain_ready() times each result.
  time_t_ fma_chains_run(index_t chains, int len) {
    assert(chains > 0 && len > 0);
    const time_t_ first = issue_.next_free();
    const index_t count = chains * len;
    issue_.acquire_spaced(first + static_cast<double>(chains - 1) * chain_period(len) +
                              static_cast<double>(len - 1) * depth_,
                          count, 1.0);
    mac_ops_ += count;
    return first;
  }
  /// Cycles from the first issue of one chain of an fma_chains_run(.., len)
  /// to the first issue of the next.
  time_t_ chain_period(int len) const { return (len - 1) * depth_ + 1.0; }
  /// When the first chain of an fma_chains_run(.., len) that issued first
  /// at `first` has its result ready (its last issue plus the pipeline
  /// depth); each later chain's is one chain_period(len) after.
  time_t_ chain_ready(time_t_ first, int len) const {
    return first + len * depth_;
  }
  /// Overwrite accumulator `idx`'s value, leaving its timing: the value
  /// half of chain_run, for a PE whose timing a lock-step lead carries.
  void set_value(int idx, double value) {
    assert(idx >= 0 && idx < static_cast<int>(accs_.size()));
    accs_[static_cast<std::size_t>(idx)].value = value;
  }
  /// Account `macs` chained MACs into accumulator `idx` that `lead` timed
  /// from the same state: take its issue-port and accumulator timing.
  void follow(const MacPipeline& lead, int idx, index_t macs) {
    issue_.follow(lead.issue_, macs);
    const Acc& from = lead.accs_[static_cast<std::size_t>(idx)];
    Acc& acc = accs_[static_cast<std::size_t>(idx)];
    acc.ready = from.ready;
    acc.chain_free = from.chain_free;
    mac_ops_ += macs;
  }

 private:
  struct Acc {
    double value = 0.0;
    time_t_ ready = 0.0;       ///< when the value can be consumed
    time_t_ chain_free = 0.0;  ///< when the next chained MAC may issue
  };

  time_t_ depth_;  ///< pipeline depth p, held as a time: converted once
  std::vector<Acc> accs_;
  Resource issue_;
  std::int64_t mac_ops_ = 0;
  std::int64_t mul_ops_ = 0;
  std::int64_t cmp_ops_ = 0;
};

}  // namespace lac::sim
