#include "window.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace perfbench {
namespace {

std::uint64_t pool_counter(const char* name) {
  return lac::obs::MetricsRegistry::global().counter(name).value();
}

}  // namespace

void Window::start() {
  latency_us_.clear();
  attempted_ = failed_ = 0;
  stats_ = WindowStats{};
  tasks_start_ = pool_counter("lac.pool.tasks");
  steals_start_ = pool_counter("lac.pool.steals");
  ticks_start_ = read_cpu_ticks();
  client_cpu_start_ns_ = thread_cpu_ns();
  cpu_start_ns_ = process_cpu_ns();
  start_ns_ = wall_ns();
}

void Window::complete_one(double latency_us, bool ok) {
  latency_us_.add(latency_us);
  ++attempted_;
  if (!ok) ++failed_;
}

void Window::complete(std::uint64_t ops, const LatencyHistogram& latency,
                      std::uint64_t failed) {
  latency_us_.merge(latency);
  attempted_ += ops;
  failed_ += failed;
}

void Window::finish(std::uint64_t passes) {
  const std::uint64_t end_ns = wall_ns();
  const std::uint64_t cpu_end = process_cpu_ns();
  const CpuTicks ticks_end = read_cpu_ticks();

  WindowStats& s = stats_;
  s.attempted = attempted_;
  s.failed = failed_;
  s.passes = passes;
  s.wall_s = static_cast<double>(end_ns - start_ns_) / 1e9;
  s.process_cpu_ns = cpu_end - cpu_start_ns_;
  s.client_cpu_ns = thread_cpu_ns() - client_cpu_start_ns_;
  s.steal_pct = steal_pct(ticks_start_, ticks_end);
  s.pool_tasks = pool_counter("lac.pool.tasks") - tasks_start_;
  s.pool_steals = pool_counter("lac.pool.steals") - steals_start_;
  s.threads = process_threads();

  const double ops = static_cast<double>(std::max<std::uint64_t>(1, attempted_));
  s.cpu_us_per_op = static_cast<double>(s.process_cpu_ns) / 1e3 / ops;
  s.ops_per_s = s.wall_s > 0 ? static_cast<double>(attempted_) / s.wall_s : 0.0;
  s.latency_samples = latency_us_.count();
  s.latency_p50_ms = latency_us_.percentile(0.50) / 1e3;
  s.latency_p99_ms = latency_us_.percentile(0.99) / 1e3;
}

void CompletionQueue::push(std::uint32_t slot) {
  {
    lac::MutexLock lock(mu_);
    done_.push_back(slot);
  }
  cv_.notify_one();
}

void CompletionQueue::pop_all(std::vector<std::uint32_t>& out) {
  out.clear();
  lac::MutexLock lock(mu_);
  while (done_.empty()) cv_.wait(mu_);
  out.swap(done_);
}

}  // namespace perfbench
