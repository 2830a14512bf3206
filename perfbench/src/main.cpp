// Closed-loop benchmark of the fabric stack: one command, four workloads,
// every result checked.
//
//   lac_perfbench --workload <sim_serve|model_serve|dse_sweep|sched_tenants>
//                 --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//
// --trace 0 prints the end-to-end metrics of one untraced run: setup_s
// (median process CPU time of nine set-ups, the first timed from process
// start), cpu_us_per_op (the window's process CPU per op, see window.hpp)
// and peak_rss_mb, plus the wall-clock throughput and latency the client
// saw as context. --trace 1 runs an untraced window, then the same
// workload traced for the same length, then the ledger's isolation pass
// and probes, and prints the per-layer metrics (see ledger.hpp). Either
// way the last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; the lines before it give the run context (nproc,
// pool width, seed, build type, git sha, hypervisor steal over the window
// and over the set-up rounds). Exit code 0 only when every op was correct
// and the exact counts repeated.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "host.hpp"
#include "ledger.hpp"
#include "window.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string spans;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, &end, 10);
      if (*end) return false;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, &end);
      if (*end) return false;
    } else if (key == "--trace") {
      a.trace = std::atoi(val);
    } else if (key == "--spans") {
      a.spans = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0 && (a.trace == 0 || a.trace == 1);
}

/// JSON number with every digit; a non-finite value (never expected) is
/// written as 0 so the line stays parseable, and the run is marked wrong.
std::string num(double v, bool& finite) {
  if (!std::isfinite(v)) {
    finite = false;
    return "0";
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  bool finite = true;
  std::string m;
  for (const Metric& x : metrics) {
    std::printf("  %-32s %14.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());
    m += (m.empty() ? "" : ", ") + ("\"" + x.name + "\": {\"value\": " + num(x.value, finite) +
                                    ", \"unit\": \"" + x.unit + "\"}");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct && finite ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), m.c_str());
  std::fflush(stdout);
}

/// Set-up rounds of an untraced run and the steal over them.
struct Setup {
  std::vector<double> wall_s, cpu_s;  ///< per round
  double steal_pct = 0.0;             ///< hypervisor steal over the rounds
};

void print_context(const Args& a, const Workload& wl, unsigned nproc, unsigned workers,
                   const WindowStats& w, int threads, const Setup& su) {
  std::string rounds;
  for (double c : su.cpu_s) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.6f", rounds.empty() ? "" : ", ", c);
    rounds += buf;
  }
  std::printf(
      "context {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"nproc\": %u, "
      "\"pool_workers\": %u, \"client_threads\": 1, \"threads_peak\": %d, "
      "\"build_type\": \"%s\", \"git_sha\": \"%s\", \"timestamp\": \"%s\", "
      "\"window_s\": %.4f, \"passes\": %llu, \"ops_per_pass\": %llu, "
      "\"steal_pct\": %.2f, \"process_cpu_s\": %.4f, "
      "\"setup_wall_median_s\": %.6f, \"setup_steal_pct\": %.2f, "
      "\"setup_rounds_cpu_s\": [%s]}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.trace, nproc, workers,
      threads, LAC_BUILD_TYPE, lac::bench::run_git_sha().c_str(),
      lac::bench::iso8601_utc_now().c_str(), w.wall_s,
      static_cast<unsigned long long>(w.passes),
      static_cast<unsigned long long>(wl.ops_per_pass()), w.steal_pct,
      static_cast<double>(w.process_cpu_ns) / 1e9, median(su.wall_s), su.steal_pct,
      rounds.c_str());
  // What the client saw on the wall clock: context, not a bounded metric,
  // because on a shared host it moves with the host's load.
  std::printf("  %-32s %14.6g %s\n", "wall.ops_per_s", w.ops_per_s, "1/s");
  std::printf("  %-32s %14.6g %s (%llu samples)\n", "wall.latency_p50_ms", w.latency_p50_ms,
              "ms", static_cast<unsigned long long>(w.latency_samples));
  std::printf("  %-32s %14.6g %s\n", "wall.latency_p99_ms", w.latency_p99_ms, "ms");
}

int run(const Args& a, std::uint64_t process_start_ns) {
  const unsigned nproc = online_cpus();
  const unsigned workers = nproc > 1 ? nproc - 1 : 1;
  WorkloadConfig cfg{a.seed, workers, false};
  int threads = 0;
  auto build = [&](bool traced) {
    cfg.traced = traced;
    std::unique_ptr<Workload> wl = make_workload(a.workload, cfg);
    wl->setup();
    threads = std::max(threads, settled_threads(nproc));
    return wl;
  };

  // Untraced: nine set-ups, the first from process start, each later one
  // rebuilding payloads, pool, backend and warm-up from scratch; the last
  // one's objects run the window. setup_s is the median round's process
  // CPU: the wall time of a set-up on a shared VM mostly measures how fast
  // the host runs freshly woken vCPUs.
  constexpr int kSetups = 9;
  std::unique_ptr<Workload> wl;
  Setup su;
  const CpuTicks ticks0 = read_cpu_ticks();
  for (int i = 0; i < (a.trace ? 1 : kSetups); ++i) {
    wl.reset();
    const std::uint64_t t0 = i == 0 ? process_start_ns : wall_ns();
    const std::uint64_t c0 = i == 0 ? 0 : process_cpu_ns();
    wl = build(false);
    su.wall_s.push_back(static_cast<double>(wall_ns() - t0) / 1e9);
    su.cpu_s.push_back(static_cast<double>(process_cpu_ns() - c0) / 1e9);
  }
  su.steal_pct = steal_pct(ticks0, read_cpu_ticks());

  Window window;
  wl->run(a.seconds, window);
  WindowStats w = window.stats();
  threads = std::max(threads, w.threads);
  bool correct = w.failed == 0 && wl->count_error().empty();
  if (!wl->count_error().empty()) std::fprintf(stderr, "count check: %s\n", wl->count_error().c_str());

  std::vector<Metric> metrics;
  if (!a.trace) {
    metrics = {
        {"setup_s", median(su.cpu_s), "s"},
        {"cpu_us_per_op", w.cpu_us_per_op, "us"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    const WindowStats untraced = w;
    wl.reset();
    wl = build(true);
    Window traced;
    wl->run(a.seconds, traced);
    w = traced.stats();
    threads = std::max(threads, w.threads);
    correct = correct && w.failed == 0 && wl->count_error().empty();
    if (!wl->count_error().empty())
      std::fprintf(stderr, "count check: %s\n", wl->count_error().c_str());
    metrics = layer_ledger(*wl, w, untraced, a.seed);
    threads = std::max(threads, process_threads());
    w.attempted += untraced.attempted;
    w.failed += untraced.failed;
    if (!a.spans.empty() && !wl->spans().write_chrome_json(a.spans, traced.start_ns()))
      std::fprintf(stderr, "could not write %s\n", a.spans.c_str());
  }
  if (threads > static_cast<int>(nproc)) {
    std::fprintf(stderr, "used %d threads on %u CPUs\n", threads, nproc);
    correct = false;
  }
  print_context(a, *wl, nproc, workers, w, threads, su);
  print_result(correct, w.attempted, w.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t start_ns = perfbench::wall_ns();
  Args a;
  const std::vector<std::string>& names = perfbench::workload_names();
  if (!parse(argc, argv, a) ||
      std::find(names.begin(), names.end(), a.workload) == names.end()) {
    std::fprintf(stderr,
                 "usage: %s --workload <sim_serve|model_serve|dse_sweep|sched_tenants> "
                 "--seed <n> --seconds <s> --trace <0|1> [--spans <file>]\n",
                 argv[0]);
    return 2;
  }
  try {
    return run(a, start_ns);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
