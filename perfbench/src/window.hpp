#pragma once
// The timed window and the closed loop that fills it.
//
// A window covers whole passes over a workload's seeded request cycle: the
// client stops submitting only at a pass boundary after `seconds` have
// elapsed, then waits for what is in flight.
//
// The window's cost figure is its process CPU (user + sys, every thread,
// getrusage) per completed op. On a shared VM it is far steadier than the
// wall clock: when the host is slow to run a freshly woken vCPU, every
// hand-off between client and pool stalls and wall-clock throughput falls
// 2-4x while CPU per op moves far less. Wall-clock throughput and latency
// are still recorded over the whole window: they are what the client saw.
#include <cstdint>
#include <vector>

#include "common/mutex.hpp"
#include "host.hpp"

namespace perfbench {

struct WindowStats {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t passes = 0;
  double wall_s = 0.0;
  double cpu_us_per_op = 0.0;         ///< process CPU / ops
  double ops_per_s = 0.0;             ///< ops / wall_s
  double latency_p50_ms = 0.0;        ///< over every op of the window
  double latency_p99_ms = 0.0;
  std::uint64_t latency_samples = 0;
  double steal_pct = 0.0;             ///< hypervisor steal over the window
  std::uint64_t process_cpu_ns = 0;   ///< whole window
  std::uint64_t client_cpu_ns = 0;    ///< the client thread over the window
  std::uint64_t pool_tasks = 0;       ///< lac.pool.tasks delta
  std::uint64_t pool_steals = 0;      ///< lac.pool.steals delta
  int threads = 0;                    ///< process threads at the window's end
};

/// Client-thread bookkeeping for one timed window.
class Window {
 public:
  void start();
  /// One op completed with the given latency.
  void complete_one(double latency_us, bool ok);
  /// `ops` completed, `latency` holding their latency samples
  /// (microseconds); `failed` of them were wrong.
  void complete(std::uint64_t ops, const LatencyHistogram& latency, std::uint64_t failed);
  void finish(std::uint64_t passes);

  std::uint64_t start_ns() const { return start_ns_; }
  const WindowStats& stats() const { return stats_; }

 private:
  LatencyHistogram latency_us_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t cpu_start_ns_ = 0;
  std::uint64_t client_cpu_start_ns_ = 0;
  std::uint64_t tasks_start_ = 0, steals_start_ = 0;
  CpuTicks ticks_start_;
  std::uint64_t attempted_ = 0, failed_ = 0;
  WindowStats stats_;
};

/// Completion handoff from worker-side hooks to the client thread.
class CompletionQueue {
 public:
  void push(std::uint32_t slot);
  /// Blocks until at least one slot completed, then moves every completed
  /// slot into `out` (which is cleared first).
  void pop_all(std::vector<std::uint32_t>& out);

 private:
  lac::Mutex mu_;
  lac::CondVar cv_;
  std::vector<std::uint32_t> done_ LAC_GUARDED_BY(mu_);
};

/// Closed loop with refill on completion: `slots` ops stay in flight, and
/// the moment any completes the client submits the next op of the cycle
/// into its slot. submit(slot, op) issues op number `op` (cycle position
/// op % cycle_len) and must arrange for queue.push(slot) when it completes;
/// finish(slot, seen_ns) collects and checks the result, sets seen_ns to
/// when the client saw it, and returns whether it was correct.
template <typename Submit, typename Finish>
void run_closed_loop(std::uint32_t slots, std::uint64_t cycle_len, double seconds,
                     CompletionQueue& queue, Window& window, Submit&& submit,
                     Finish&& finish) {
  std::vector<std::uint64_t> submitted_ns(slots);
  std::uint64_t next = 0;
  std::uint32_t inflight = 0;
  bool stopping = false;
  window.start();
  const std::uint64_t deadline =
      window.start_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  for (std::uint32_t s = 0; s < slots; ++s) {
    submitted_ns[s] = wall_ns();
    submit(s, next++);
    ++inflight;
  }
  std::vector<std::uint32_t> done;
  while (inflight > 0) {
    queue.pop_all(done);
    for (std::uint32_t s : done) {
      std::uint64_t seen_ns = 0;
      const bool ok = finish(s, seen_ns);
      window.complete_one(static_cast<double>(seen_ns - submitted_ns[s]) / 1e3, ok);
      --inflight;
      if (!stopping && next % cycle_len == 0 && seen_ns >= deadline) stopping = true;
      if (stopping) continue;
      submitted_ns[s] = wall_ns();
      submit(s, next++);
      ++inflight;
    }
  }
  window.finish(next / cycle_len);
}

}  // namespace perfbench
