#include "ledger.hpp"

#include <algorithm>
#include <functional>
#include <future>
#include <optional>
#include <stdexcept>

#include "fabric/kernel_registry.hpp"
#include "fabric/model_executor.hpp"
#include "fabric/serving.hpp"
#include "sched/graph_scheduler.hpp"

namespace perfbench {
namespace fab = lac::fabric;
namespace {

/// Written by every timed call so the optimizer keeps the call.
volatile std::size_t g_sink = 0;

/// Cost of one back-to-back pair of thread_cpu_ns() reads, in microseconds.
double clock_pair_us() {
  static const double us = [] {
    std::vector<double> v;
    for (int i = 0; i < 2001; ++i) {
      const std::uint64_t t0 = thread_cpu_ns();
      v.push_back(static_cast<double>(thread_cpu_ns() - t0) / 1e3);
    }
    return median(std::move(v));
  }();
  return us;
}

/// One public layer call to time in isolation: call(i) on request i of a
/// mix, `reps` times back to back, after an untimed prepare(i).
struct Call {
  int reps = 1;
  std::function<void(std::size_t)> prepare;
  std::function<void(std::size_t)> call;
};

/// CPU cost per call (us of this thread's CPU time, which hypervisor steal
/// does not inflate) of each call on each request of the mix, less the
/// clock's own cost. Every pass times all the calls on one request before
/// moving to the next, so a change in host speed during the pass hits them
/// alike; each request keeps its median pass. Result: [call][request].
std::vector<std::vector<double>> per_request_us(const RequestMix& m,
                                                const std::vector<Call>& calls) {
  const int passes = m.reqs.size() > 1000 ? 3 : 5;
  const double clock = clock_pair_us();
  std::vector<std::vector<std::vector<double>>> samples(
      calls.size(), std::vector<std::vector<double>>(m.reqs.size()));
  for (int p = 0; p < passes; ++p) {
    for (std::size_t i = 0; i < m.reqs.size(); ++i) {
      for (std::size_t c = 0; c < calls.size(); ++c) {
        if (calls[c].prepare) calls[c].prepare(i);
        const std::uint64_t t0 = thread_cpu_ns();
        for (int r = 0; r < calls[c].reps; ++r) calls[c].call(i);
        const double us = static_cast<double>(thread_cpu_ns() - t0) / 1e3;
        samples[c][i].push_back(std::max(0.0, (us - clock) / calls[c].reps));
      }
    }
  }
  std::vector<std::vector<double>> out(calls.size());
  for (std::size_t c = 0; c < calls.size(); ++c)
    for (std::vector<double>& v : samples[c]) out[c].push_back(median(std::move(v)));
  return out;
}

/// Mean over the mix, each request weighted by its share of the cycle.
double weighted(const RequestMix& m, const std::vector<double>& v) {
  double sum = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) sum += static_cast<double>(m.count[i]) * v[i];
  return m.total() ? sum / static_cast<double>(m.total()) : 0.0;
}

struct HostCosts {
  double validate = 0, signature = 0, hit = 0, miss = 0, model_cost = 0, reference = 0;
};

HostCosts host_costs(const RequestMix& m, const RequestMix& reference_mix) {
  fab::CostCache warm;
  for (const fab::KernelRequest& r : m.reqs) warm.estimate(r);
  std::optional<fab::CostCache> cold;
  const std::vector<std::vector<double>> us = per_request_us(
      m, {{8, nullptr, [&](std::size_t i) { g_sink = fab::validate(m.reqs[i]).size(); }},
          {2, nullptr,
           [&](std::size_t i) { g_sink = fab::CostCache::signature(m.reqs[i]).size(); }},
          {2, nullptr,
           [&](std::size_t i) {
             g_sink = static_cast<std::size_t>(warm.estimate(m.reqs[i]).cycles.value());
           }},
          {1, [&](std::size_t) { cold.emplace(); },
           [&](std::size_t i) {
             g_sink = static_cast<std::size_t>(cold->estimate(m.reqs[i]).cycles.value());
           }},
          {8, nullptr, [&](std::size_t i) {
             g_sink = static_cast<std::size_t>(fab::model_cost(m.reqs[i]).cycles.value());
           }}});
  const RequestMix& rm = reference_mix;
  const std::vector<std::vector<double>> ref =
      per_request_us(rm, {{1, nullptr, [&](std::size_t i) {
                             fab::KernelResult r;
                             g_sink = fab::kernel_traits(rm.reqs[i].kind)
                                          .reference_run(rm.reqs[i], r)
                                          .size();
                           }}});
  HostCosts h;
  h.validate = weighted(m, us[0]);
  h.signature = weighted(m, us[1]);
  h.hit = weighted(m, us[2]);
  h.miss = weighted(m, us[3]);
  h.model_cost = weighted(m, us[4]);
  h.reference = weighted(rm, ref[0]);
  return h;
}

struct SimCosts {
  double run = 0, energy = 0, ns_per_cycle = 0, cycles_per_op = 0, macs_per_op = 0;
  std::vector<Metric> by_kind;
};

/// Metric label of a serving-mix kind (sim.<label>.run_us).
const char* kind_label(fab::KernelKind k) {
  if (k == fab::KernelKind::Gemm) return "gemm";
  if (k == fab::KernelKind::Syrk) return "syrk";
  if (k == fab::KernelKind::Trsm) return "trsm";
  if (k == fab::KernelKind::Cholesky) return "chol";
  if (k == fab::KernelKind::Lu) return "lu";
  if (k == fab::KernelKind::Qr) return "qr";
  return "fft";
}

SimCosts sim_costs(const RequestMix& m) {
  SimCosts s;
  std::vector<fab::KernelResult> res(m.reqs.size());
  double cycles = 0.0, macs = 0.0;
  for (std::size_t i = 0; i < m.reqs.size(); ++i) {
    if (std::string err = fab::kernel_traits(m.reqs[i].kind).sim_run(m.reqs[i], res[i]);
        !err.empty())
      throw std::runtime_error("isolated sim_run failed: " + err);
    cycles += static_cast<double>(m.count[i]) * res[i].cycles.value();
    macs += static_cast<double>(m.count[i]) * static_cast<double>(res[i].stats.mac_ops);
  }
  const double total = static_cast<double>(m.total());
  s.cycles_per_op = cycles / total;
  s.macs_per_op = macs / total;

  const std::vector<std::vector<double>> us = per_request_us(
      m, {{1, nullptr,
           [&](std::size_t i) {
             fab::KernelResult r;
             g_sink = fab::kernel_traits(m.reqs[i].kind).sim_run(m.reqs[i], r).size();
           }},
          {4, nullptr, [&](std::size_t i) {
             g_sink = static_cast<std::size_t>(
                 fab::kernel_traits(m.reqs[i].kind)
                     .sim_energy(m.reqs[i], res[i].stats, res[i].cycles)
                     .energy_nj()
                     .value());
           }}});
  const std::vector<double>& run = us[0];
  s.run = weighted(m, run);
  s.ns_per_cycle = s.run * 1e3 * total / cycles;
  s.energy = weighted(m, us[1]);
  for (fab::KernelKind kind :
       {fab::KernelKind::Gemm, fab::KernelKind::Syrk, fab::KernelKind::Trsm,
        fab::KernelKind::Cholesky, fab::KernelKind::Lu, fab::KernelKind::Qr,
        fab::KernelKind::Fft}) {
    double sum = 0.0, n = 0.0;
    for (std::size_t i = 0; i < m.reqs.size(); ++i) {
      if (m.reqs[i].kind != kind) continue;
      sum += static_cast<double>(m.count[i]) * run[i];
      n += static_cast<double>(m.count[i]);
    }
    s.by_kind.push_back(
        Metric{std::string("sim.") + kind_label(kind) + ".run_us", n > 0 ? sum / n : 0.0, "us"});
  }
  return s;
}

struct RoundTrips {
  double submit_us = 0, execute_us = 0, resolve_us = 0, wait_p50_us = 0, wait_p99_us = 0;
};

/// One-at-a-time round trips through a front end: submit(req, hook)
/// returns the op's future and must run `hook` on the executing worker
/// right after execute (so it can read the decorator's record). Submit and
/// resolve are medians, execute the mean thread-CPU time inside execute.
template <typename Submit>
RoundTrips round_trips(const RequestMix& m, Submit&& submit) {
  constexpr std::size_t kSamples = 1024;
  ExecRecord rec;
  const std::function<void(const fab::KernelResult&)> hook =
      [&rec](const fab::KernelResult&) { rec = TimedExecutor::last(); };
  for (const fab::KernelRequest& r : m.reqs) submit(r, hook).get();  // warm lap
  RoundTrips rt;
  LatencyHistogram submit_us, wait_us, resolve_us;
  double exec_cpu_ns = 0.0;
  for (std::size_t k = 0; k < kSamples; ++k) {
    const std::uint64_t t0 = wall_ns();
    std::future<fab::KernelResult> fut = submit(m.reqs[k % m.reqs.size()], hook);
    const std::uint64_t t1 = wall_ns();
    fut.get();
    const std::uint64_t t2 = wall_ns();
    submit_us.add(static_cast<double>(t1 - t0) / 1e3);
    wait_us.add(rec.start_ns > t1 ? static_cast<double>(rec.start_ns - t1) / 1e3 : 0.0);
    resolve_us.add(static_cast<double>(t2 - rec.end_ns) / 1e3);
    exec_cpu_ns += static_cast<double>(rec.cpu_ns);
  }
  rt.submit_us = submit_us.percentile(0.50);
  rt.execute_us = exec_cpu_ns / 1e3 / kSamples;
  rt.resolve_us = resolve_us.percentile(0.50);
  rt.wait_p50_us = wait_us.percentile(0.50);
  rt.wait_p99_us = wait_us.percentile(0.99);
  return rt;
}

}  // namespace

std::vector<Metric> layer_ledger(Workload& wl, const WindowStats& w,
                                 const WindowStats& untraced, std::uint64_t seed) {
  const TraceStats& t = wl.trace();
  const ExactCounts& c = wl.counts();
  const FrontEnd fe = wl.front_end();
  const double ops = static_cast<double>(std::max<std::uint64_t>(1, w.attempted));
  const double units = static_cast<double>(std::max<std::uint64_t>(1, c.units));
  const double units_per_job = units / static_cast<double>(std::max<std::uint64_t>(1, c.jobs));

  const RequestMix host = wl.pass_requests();
  const RequestMix sim_mix = serving_mix({16, 32, 64}, seed);
  const RequestMix model_mix = serving_mix({16, 32}, seed);
  const RequestMix& probe_mix = wl.simulates() ? sim_mix : model_mix;

  const HostCosts h = host_costs(host, fe == FrontEnd::Sweep ? sim_mix : host);
  const SimCosts s = sim_costs(sim_mix);

  RoundTrips serving_rt, sched_rt;
  if (fe != FrontEnd::Serving) {
    const fab::AsyncExecutor async(wl.backend(), &wl.pool());
    serving_rt = round_trips(probe_mix, [&](const fab::KernelRequest& r, const auto& hook) {
      return async.submit(r, hook);
    });
  }
  if (fe != FrontEnd::Sched) {
    lac::sched::SchedulerOptions opts;
    opts.workers = wl.pool().size();
    lac::sched::GraphScheduler gs(wl.backend(), opts, &wl.pool());
    sched_rt = round_trips(probe_mix, [&](const fab::KernelRequest& r, const auto& hook) {
      return gs.submit(0, r, hook);
    });
  }

  // Execute time (thread CPU inside execute), and the part of it the
  // isolated calls explain: validate plus sim_run + sim_energy on the
  // simulator, or reference_run + a cache hit on the cached model. The
  // sweep never executes, so its figures come from the serving probe over
  // the model mix.
  double execute_us = 0.0, execute_parts_us = 0.0;
  if (fe == FrontEnd::Sweep) {
    const HostCosts p = host_costs(model_mix, model_mix);
    execute_us = serving_rt.execute_us;
    execute_parts_us = p.validate + p.reference + p.hit;
  } else {
    execute_us = t.exec.count ? static_cast<double>(t.exec.cpu_ns) / 1e3 /
                                    static_cast<double>(t.exec.count)
                              : 0.0;
    execute_parts_us = wl.simulates() ? h.validate + s.run + s.energy
                                      : h.validate + h.reference + h.hit;
  }
  // Isolated work per op: the sweep's op is one cache miss; a served op is
  // its executes (plus the size-hint lookup on the simulator).
  const double isolated_per_op =
      fe == FrontEnd::Sweep
          ? h.miss
          : units / ops * execute_parts_us + (wl.simulates() ? h.hit : 0.0);

  const double cpu_us_per_op = w.cpu_us_per_op;
  const double dispatch_cpu_ns = static_cast<double>(w.process_cpu_ns) -
                                 static_cast<double>(w.client_cpu_ns) -
                                 static_cast<double>(t.exec.cpu_ns);
  const bool serving = fe == FrontEnd::Serving;
  const bool sched = fe == FrontEnd::Sched;
  const double lookups = static_cast<double>(c.cache_hits + c.cache_misses);

  std::vector<Metric> out = {
      {"fabric.validate_us", h.validate, "us"},
      {"fabric.execute_us", execute_us, "us"},
      {"fabric.execute_remainder_us", execute_us - execute_parts_us, "us"},
      {"serving.cache.signature_us", h.signature, "us"},
      {"serving.cache.hit_us", h.hit, "us"},
      {"serving.cache.miss_us", h.miss, "us"},
      {"serving.cache.hit_ratio", lookups > 0 ? static_cast<double>(c.cache_hits) / lookups : 0.0,
       "ratio"},
      {"serving.cache.misses_per_pass",
       static_cast<double>(c.cache_misses) / static_cast<double>(std::max<std::uint64_t>(1, w.passes)),
       "count"},
      {"model.cost_us", h.model_cost, "us"},
      {"blas.reference_us", h.reference, "us"},
      {"power.sim_energy_us", s.energy, "us"},
      {"sim.run_us", s.run, "us"},
  };
  out.insert(out.end(), s.by_kind.begin(), s.by_kind.end());
  const std::vector<Metric> rest = {
      {"sim.ns_per_sim_cycle", s.ns_per_cycle, "ns"},
      {"sim.cycles_per_op", s.cycles_per_op, "count"},
      {"sim.mac_ops_per_op", s.macs_per_op, "count"},
      {"serving.submit_us", serving ? t.submit_us.percentile(0.50) : serving_rt.submit_us, "us"},
      {"serving.resolve_us", serving ? t.resolve_us.percentile(0.50) : serving_rt.resolve_us,
       "us"},
      {"pool.queue_wait_p50_us", serving ? t.wait_us.percentile(0.50) : serving_rt.wait_p50_us,
       "us"},
      {"pool.queue_wait_p99_us", serving ? t.wait_us.percentile(0.99) : serving_rt.wait_p99_us,
       "us"},
      {"pool.dispatch_cpu_us_per_op", dispatch_cpu_ns / 1e3 / ops, "us"},
      {"pool.tasks_per_op", static_cast<double>(w.pool_tasks) / ops, "count"},
      {"pool.steals_per_op", static_cast<double>(w.pool_steals) / ops, "count"},
      {"sched.submit_us", sched ? t.submit_us.percentile(0.50) : sched_rt.submit_us, "us"},
      {"sched.single_wait_p50_us", sched ? t.wait_us.percentile(0.50) : sched_rt.wait_p50_us,
       "us"},
      {"sched.single_wait_p99_us", sched ? t.wait_us.percentile(0.99) : sched_rt.wait_p99_us,
       "us"},
      {"sched.dispatch_cpu_us_per_unit", dispatch_cpu_ns / 1e3 / units, "us"},
      {"sched.fairness_jain", wl.fairness_jain(), "ratio"},
      {"sched.units_per_job", units_per_job, "count"},
      {"alloc.count_per_op", static_cast<double>(t.alloc.count) / ops, "count"},
      {"alloc.bytes_per_op", static_cast<double>(t.alloc.bytes) / ops, "B"},
      {"client.cpu_us_per_op", static_cast<double>(w.client_cpu_ns) / 1e3 / ops, "us"},
      {"client.ops_per_s", untraced.ops_per_s, "1/s"},
      {"client.latency_p50_ms", untraced.latency_p50_ms, "ms"},
      {"client.latency_p99_ms", untraced.latency_p99_ms, "ms"},
      {"cpu.unexplained_us_per_op", cpu_us_per_op - isolated_per_op, "us"},
      {"trace.overhead_pct",
       untraced.cpu_us_per_op > 0
           ? 100.0 * (cpu_us_per_op - untraced.cpu_us_per_op) / untraced.cpu_us_per_op
           : 0.0,
       "%"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

}  // namespace perfbench
