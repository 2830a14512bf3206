#include "host.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {
namespace {

std::uint64_t timespec_ns(const timespec& ts) {
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t timeval_ns(const timeval& tv) {
  return static_cast<std::uint64_t>(tv.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(tv.tv_usec) * 1000ull;
}

// Histogram geometry: bin i covers [kMinUs * kRatio^i, kMinUs * kRatio^(i+1)).
constexpr double kMinUs = 0.01;
constexpr double kMaxUs = 1e8;
constexpr double kRatio = 1.005;
const double kLogRatio = std::log(kRatio);
const std::size_t kBins =
    static_cast<std::size_t>(std::ceil(std::log(kMaxUs / kMinUs) / std::log(kRatio)));

}  // namespace

std::uint64_t wall_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return timespec_ns(ts);
}

std::uint64_t process_cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return timeval_ns(ru.ru_utime) + timeval_ns(ru.ru_stime);
}

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return timespec_ns(ts);
}

namespace {

/// A "Name:   value kB" field of /proc/self/status, or -1.
long status_field(const char* name) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return -1;
  const std::size_t len = std::strlen(name);
  char line[256];
  long value = -1;
  while (std::fgets(line, sizeof line, f)) {
    if (std::strncmp(line, name, len) == 0 && line[len] == ':') {
      value = std::atol(line + len + 1);
      break;
    }
  }
  std::fclose(f);
  return value;
}

}  // namespace

double peak_rss_mb() { return static_cast<double>(status_field("VmHWM")) / 1024.0; }

int process_threads() { return static_cast<int>(status_field("Threads")); }

int settled_threads(unsigned limit) {
  int n = process_threads();
  for (int i = 0; i < 50 && n > static_cast<int>(limit); ++i) {
    const timespec ms{0, 1000000};
    nanosleep(&ms, nullptr);
    n = process_threads();
  }
  return n;
}

unsigned online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return 1;
}

CpuTicks read_cpu_ticks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (!f) return t;
  // cpu user nice system idle iowait irq softirq steal guest guest_nice;
  // guest time is already inside user, so it is not added again.
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                  &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

double steal_pct(const CpuTicks& from, const CpuTicks& to) {
  const double total = static_cast<double>(to.total - from.total);
  return total > 0 ? 100.0 * static_cast<double>(to.steal - from.steal) / total : 0.0;
}

LatencyHistogram::LatencyHistogram() : bins_(kBins, 0) {}

void LatencyHistogram::add(double us) {
  const double x = std::clamp(us, kMinUs, kMaxUs);
  const auto bin = static_cast<std::size_t>(std::log(x / kMinUs) / kLogRatio);
  ++bins_[std::min(bin, kBins - 1)];
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kBins; ++i) bins_[i] += other.bins_[i];
  count_ += other.count_;
}

void LatencyHistogram::clear() {
  std::fill(bins_.begin(), bins_.end(), 0u);
  count_ = 0;
}

double LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  const double rank = std::max(1.0, std::ceil(p * static_cast<double>(count_)));
  std::uint64_t below = 0;
  for (std::size_t i = 0; i < kBins; ++i) {
    if (bins_[i] == 0) continue;
    if (static_cast<double>(below + bins_[i]) >= rank) {
      // Spread the bin's samples evenly (in log space) across its width.
      const double frac = (rank - static_cast<double>(below) - 0.5) / bins_[i];
      return kMinUs * std::exp((static_cast<double>(i) + frac) * kLogRatio);
    }
    below += bins_[i];
  }
  return kMaxUs;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
