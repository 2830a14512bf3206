#include "sched/workload.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common/random.hpp"
#include "fabric/kernel_registry.hpp"
#include "sched/graph_builders.hpp"

namespace lac::sched {
namespace {

using Clock = std::chrono::steady_clock;

/// Nearest-rank percentile: ceil(p * N) - 1 on the sorted sample, so the
/// median of two values is the lower one and p99 of 100 samples is the
/// 99th, not the maximum.
double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p * static_cast<double>(sorted.size()));
  const std::size_t idx =
      rank <= 1.0 ? 0 : std::min(sorted.size() - 1, static_cast<std::size_t>(rank) - 1);
  return sorted[idx];
}

}  // namespace

std::vector<fabric::KernelKind> default_serving_mix() {
  return {fabric::KernelKind::Gemm, fabric::KernelKind::Syrk,
          fabric::KernelKind::Trsm, fabric::KernelKind::Cholesky,
          fabric::KernelKind::Lu,   fabric::KernelKind::Qr,
          fabric::KernelKind::Fft};
}

std::vector<TraceEvent> generate_trace(const TraceConfig& config) {
  Rng rng(config.seed);
  std::vector<TraceEvent> trace;
  trace.reserve(static_cast<std::size_t>(std::max(0, config.events)));
  double t_ms = 0.0;
  for (int i = 0; i < config.events; ++i) {
    TraceEvent ev;
    if (config.arrivals == ArrivalProcess::Poisson) {
      const double rate = std::max(1e-6, config.rate_per_s);
      // Exponential inter-arrival gap via inverse transform sampling.
      t_ms += -std::log(1.0 - rng.uniform()) * 1e3 / rate;
    } else if (i > 0 && i % std::max(1, config.burst_size) == 0) {
      t_ms += config.burst_gap_ms;  // bursts arrive back-to-back, then idle
    }
    ev.arrival_ms = t_ms;
    ev.tenant = static_cast<std::size_t>(
        rng.next_index(std::max<std::uint64_t>(1, config.tenants)));
    ev.is_graph = rng.uniform() < config.graph_fraction;
    if (ev.is_graph) {
      ev.n = config.graph_n;
      ev.block = config.graph_block;
      ev.shape_seed = 7000 + static_cast<std::uint64_t>(config.graph_n);
    } else {
      ev.kind = config.mix.empty()
                    ? fabric::KernelKind::Gemm
                    : config.mix[static_cast<std::size_t>(i) % config.mix.size()];
      ev.n = config.sizes.empty()
                 ? 16
                 : config.sizes[static_cast<std::size_t>(
                       rng.next_index(config.sizes.size()))];
      // Repeated (kind, n) events share one payload id -- the repeated-
      // shape traffic profile the CostCache serves.
      ev.shape_seed = static_cast<std::uint64_t>(ev.kind) * 131 +
                      static_cast<std::uint64_t>(ev.n);
    }
    trace.push_back(ev);
  }
  return trace;
}

ReplayReport replay(GraphScheduler& scheduler, const std::vector<TraceEvent>& trace,
                    const arch::CoreConfig& cfg, double bw_words_per_cycle,
                    const ReplayOptions& opts) {
  const double bw = bw_words_per_cycle;

  // Map trace tenant indices onto scheduler tenants.
  std::size_t max_tenant = 0;
  for (const TraceEvent& ev : trace) max_tenant = std::max(max_tenant, ev.tenant);
  // Tenants are registered fresh on the scheduler for this replay, so
  // their service counters start from zero.
  std::vector<TenantId> tenant_ids;
  for (std::size_t t = 0; t <= max_tenant; ++t) {
    TenantConfig tc;
    if (t < opts.tenants.size()) tc = opts.tenants[t];
    if (tc.name == "default") tc.name = "tenant" + std::to_string(t);
    tenant_ids.push_back(scheduler.add_tenant(std::move(tc)));
  }

  // Build each distinct single-kernel shape once through the registry's
  // sized_request hook; repeats copy the cached request, which copies
  // shared operand payloads, not matrices (the zero-copy serving
  // pattern). Keyed by (kind, n) -- shape_seed seeds the fill but is not
  // collision-free across kinds, and a Cholesky event must never reuse,
  // say, a GEMM event's non-SPD payload.
  std::map<std::pair<fabric::KernelKind, index_t>, fabric::KernelRequest> shapes;
  auto make_request = [&](const TraceEvent& ev) -> fabric::KernelRequest {
    const auto key = std::make_pair(ev.kind, ev.n);
    auto it = shapes.find(key);
    if (it == shapes.end()) {
      const fabric::KernelTraits* traits = fabric::try_kernel_traits(ev.kind);
      fabric::KernelRequest req;
      if (traits && traits->sized_request) {
        req = traits->sized_request(cfg, bw, ev.n, ev.shape_seed);
      } else {
        // A kind with no registered workload recipe: submit it bare so it
        // fails validation in-band (loud in the replay report's failure
        // count, never a crash or a borrowed payload).
        req.kind = ev.kind;
        req.core = cfg;
      }
      it = shapes.emplace(key, std::move(req)).first;
    }
    return it->second;
  };
  // One SPD source per graph size; each graph event factors a fresh copy.
  std::map<index_t, MatrixD> spd_sources;

  // Completion records, written by the schedulers' worker threads.
  std::mutex rec_mu;
  std::vector<std::vector<double>> latency(tenant_ids.size());
  std::vector<std::uint64_t> failures(tenant_ids.size(), 0);
  double speedup_sum = 0.0;
  std::uint64_t speedup_count = 0;
  // Per-tenant service snapshot taken at the half-completion mark, while
  // the other half of the workload is still queued or running: under
  // contention a weighted-fair scheduler has delivered cycles in
  // proportion to weight at that instant, whereas totals taken after full
  // completion equal the submitted demand regardless of policy.
  std::uint64_t completions = 0;
  const std::uint64_t snapshot_at = (trace.size() + 1) / 2;
  std::vector<double> service_snapshot(tenant_ids.size(), 0.0);
  bool snapped = false;
  auto maybe_snapshot = [&] {  // called with rec_mu held
    if (snapped || ++completions < snapshot_at) return;
    snapped = true;
    for (std::size_t t = 0; t < tenant_ids.size(); ++t)
      service_snapshot[t] =
          scheduler.tenant_stats(tenant_ids[t]).cycles.value();
  };

  std::vector<std::future<fabric::KernelResult>> kernel_futs;
  std::vector<std::future<GraphResult>> graph_futs;
  std::uint64_t graphs = 0;

  const Clock::time_point start = Clock::now();
  for (const TraceEvent& ev : trace) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(ev.arrival_ms *
                                                              opts.time_scale));
    if (opts.time_scale > 0.0) std::this_thread::sleep_until(due);
    const Clock::time_point arrival = opts.time_scale > 0.0 ? due : Clock::now();
    const std::size_t t = ev.tenant;
    if (ev.is_graph) {
      ++graphs;
      auto it = spd_sources.find(ev.n);
      if (it == spd_sources.end())
        it = spd_sources.emplace(ev.n, random_spd(ev.n, ev.shape_seed)).first;
      FactorGraph fg = build_cholesky_graph(cfg, bw, it->second.view(), ev.block);
      graph_futs.push_back(scheduler.submit(
          tenant_ids[t], std::move(fg.graph),
          [&rec_mu, &latency, &failures, &speedup_sum, &speedup_count,
           &maybe_snapshot, t, arrival](const GraphResult& r) {
            const double ms = std::chrono::duration<double, std::milli>(
                                  Clock::now() - arrival)
                                  .count();
            std::lock_guard<std::mutex> lock(rec_mu);
            latency[t].push_back(ms);
            if (!r.ok) ++failures[t];
            if (r.ok && r.makespan_cycles.value() > 0.0) {
              speedup_sum += r.speedup;
              ++speedup_count;
            }
            maybe_snapshot();
          }));
    } else {
      kernel_futs.push_back(scheduler.submit(
          tenant_ids[t], make_request(ev),
          [&rec_mu, &latency, &failures, &maybe_snapshot, t,
           arrival](const fabric::KernelResult& r) {
            const double ms = std::chrono::duration<double, std::milli>(
                                  Clock::now() - arrival)
                                  .count();
            std::lock_guard<std::mutex> lock(rec_mu);
            latency[t].push_back(ms);
            if (!r.ok) ++failures[t];
            maybe_snapshot();
          }));
    }
  }
  for (auto& f : kernel_futs) f.get();
  for (auto& f : graph_futs) f.get();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();

  ReplayReport report;
  report.wall_ms = wall_ms;
  report.requests = trace.size();
  report.graphs = graphs;
  report.requests_per_s =
      wall_ms > 0.0 ? static_cast<double>(trace.size()) / (wall_ms / 1e3) : 0.0;
  report.graph_speedup_mean =
      speedup_count > 0 ? speedup_sum / static_cast<double>(speedup_count) : 0.0;

  double jain_num = 0.0, jain_den = 0.0;
  std::size_t jain_n = 0;
  for (std::size_t t = 0; t < tenant_ids.size(); ++t) {
    const TenantStats now = scheduler.tenant_stats(tenant_ids[t]);
    TenantReplayStats ts;
    ts.name = now.name;
    ts.weight = now.weight;
    ts.requests = latency[t].size();
    ts.failures = failures[t];
    ts.cycles = now.cycles;
    ts.energy_nj = now.energy_nj;
    std::vector<double>& lat = latency[t];
    std::sort(lat.begin(), lat.end());
    ts.p50_ms = percentile(lat, 0.50);
    ts.p99_ms = percentile(lat, 0.99);
    if (!lat.empty()) {
      double sum = 0.0;
      for (double v : lat) sum += v;
      ts.mean_ms = sum / static_cast<double>(lat.size());
    }
    report.failures += ts.failures;
    if (ts.requests > 0) {
      const double share =
          service_snapshot[t] / std::max(1e-12, ts.weight);
      jain_num += share;
      jain_den += share * share;
      ++jain_n;
    }
    report.tenants.push_back(std::move(ts));
  }
  report.fairness_jain =
      jain_n > 0 && jain_den > 0.0
          ? (jain_num * jain_num) / (static_cast<double>(jain_n) * jain_den)
          : 1.0;
  return report;
}

}  // namespace lac::sched
