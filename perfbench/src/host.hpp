#pragma once
// Host-side measurement for the closed-loop benchmark: clocks (wall,
// process CPU, thread CPU), the hypervisor steal share and thread count from
// /proc, the resident-set peak, a global allocation counter, and a
// log-binned latency histogram whose memory does not grow with the number of
// samples (so a faster program does not report a larger peak RSS).
#include <cstdint>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds.
std::uint64_t wall_ns();
/// Process CPU (user + sys, every thread) from getrusage, in nanoseconds.
/// A guest kernel without steal-time task accounting charges the time the
/// hypervisor steals from a busy vCPU here too.
std::uint64_t process_cpu_ns();
/// CPU time of the calling thread.
std::uint64_t thread_cpu_ns();
/// Peak resident set of this process image in MiB (VmHWM). Unlike
/// ru_maxrss, it does not inherit the high-water mark of the parent that
/// forked the process.
double peak_rss_mb();
/// CPUs this process may run on (what `nproc` prints).
unsigned online_cpus();
/// Threads in this process right now (/proc/self/status).
int process_threads();
/// process_threads(), read again for up to ~50 ms while it exceeds `limit`:
/// a thread that was just joined is still counted until the kernel has
/// released it.
int settled_threads(unsigned limit);

/// Aggregate `cpu` line of /proc/stat, in ticks.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTicks read_cpu_ticks();
/// Steal share of all CPU ticks between two readings, in percent.
double steal_pct(const CpuTicks& from, const CpuTicks& to);

/// Global operator-new counter (alloc_counter.cpp). Counting is off by
/// default, so an untraced run pays one relaxed load per allocation.
struct AllocCount {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};
void set_alloc_counting(bool on);
AllocCount alloc_count();

/// Latency histogram with 0.5% relative bins from 10 ns to 100 s;
/// percentiles interpolate within a bin.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void add(double us);
  void merge(const LatencyHistogram& other);
  void clear();
  std::uint64_t count() const { return count_; }
  /// Nearest-rank percentile, p in (0, 1], in microseconds.
  double percentile(double p) const;

 private:
  std::vector<std::uint32_t> bins_;
  std::uint64_t count_ = 0;
};

/// Median of the values (mean of the middle two for an even count; 0 when
/// empty).
double median(std::vector<double> v);

}  // namespace perfbench
