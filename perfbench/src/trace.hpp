#pragma once
// Benchmark-side tracing: everything the traced run learns, it learns from
// outside the library, around calls into each layer's public functions.
//
//   TimedExecutor  -- a fabric::Executor decorator that records each
//                     execute's start, end and thread-CPU time. The record
//                     of the latest execute stays in a thread-local, so a
//                     completion hook (which runs on the executing worker
//                     right after execute) can hand it to the client.
//   SpanLog        -- in-memory spans (name, op id, parent, thread, start,
//                     end) written out as Chrome trace-event JSON at exit.
//
// Neither exists in an untraced run: the workloads then hand the bare
// backend to the serving layer and record no spans.
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "fabric/executor.hpp"

namespace perfbench {

/// One execute as the decorator saw it.
struct ExecRecord {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t cpu_ns = 0;
  std::uint64_t tid = 0;  ///< thread_tag() of the executing worker
};

/// Count and thread-CPU sum of timed calls since the last reset.
struct ExecTotals {
  std::uint64_t count = 0;
  std::uint64_t cpu_ns = 0;
};

/// ExecTotals accumulated on per-thread cache lines, so workers timing
/// their calls do not contend on one counter.
class ThreadTotals {
 public:
  void add(std::uint64_t cpu_ns);
  ExecTotals sum() const;
  void reset();

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> cpu_ns{0};
  };
  static constexpr unsigned kSlots = 16;
  Slot slots_[kSlots];
};

class TimedExecutor final : public lac::fabric::Executor {
 public:
  explicit TimedExecutor(const lac::fabric::Executor& inner) : inner_(inner) {}

  const char* name() const override { return inner_.name(); }
  lac::fabric::KernelResult execute(const lac::fabric::KernelRequest& req) const override;

  /// The calling thread's most recent execute.
  static const ExecRecord& last();

  ExecTotals totals() const { return totals_.sum(); }
  void reset_totals() { totals_.reset(); }

  /// While on, every executed request is copied into captured() (the
  /// warm-up pass records the workload's request mix this way).
  void set_capture(bool on) { capture_.store(on, std::memory_order_relaxed); }
  std::vector<lac::fabric::KernelRequest> take_captured();

 private:
  const lac::fabric::Executor& inner_;
  mutable ThreadTotals totals_;
  std::atomic<bool> capture_{false};
  mutable lac::Mutex capture_mu_;
  mutable std::vector<lac::fabric::KernelRequest> captured_ LAC_GUARDED_BY(capture_mu_);
};

/// Bounded in-memory span store with a single writer: the client thread
/// records every span of an op once it sees the result, using the execute
/// record the completion hook handed over. Spans past the capacity are
/// counted, not kept; the per-layer metrics never read spans back, they are
/// the record a person opens in Perfetto.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t id = 0;
    std::uint64_t op = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t tid = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  explicit SpanLog(std::size_t capacity = 1u << 16);

  /// Records a span and returns its id (ids are assigned even when the
  /// store is full, so parents stay consistent).
  std::uint64_t add(const char* name, std::uint64_t op, std::uint64_t parent,
                    std::uint64_t tid, std::uint64_t start_ns, std::uint64_t end_ns);

  std::uint64_t dropped() const { return dropped_; }

  /// Chrome trace-event JSON ("X" events, microseconds since `origin_ns`).
  bool write_chrome_json(const std::string& path, std::uint64_t origin_ns) const;

 private:
  std::vector<Span> spans_;
  std::size_t capacity_;
  std::uint64_t next_id_ = 1;
  std::uint64_t dropped_ = 0;
};

/// Small stable id for the calling thread (span `tid`).
std::uint64_t thread_tag();

}  // namespace perfbench
