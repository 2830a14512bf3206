// Kernel-graph scheduler bench: trace-driven replay of multi-tenant mixed
// kernel/graph traffic through the GraphScheduler, per backend.
//
// Three weighted tenants (1x/2x/4x) send Poisson and bursty arrivals of
// repeated-shape single kernels plus tiled-Cholesky graphs; the replay
// harness reports requests/s, per-tenant p50/p99 sojourn latency, Jain's
// weighted-fairness index and the mean graph speedup. A separate section
// pins the graph-parallel story: the tiled-Cholesky DAG's W-worker
// makespan versus serial node-by-node execution on both backends. Emits
// JSON to stdout and BENCH_scheduler.json; LAC_BENCH_SMOKE=1 shrinks the
// trace for CI.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "arch/presets.hpp"
#include "bench_support.hpp"
#include "obs/trace.hpp"
#include "common/random.hpp"
#include "common/thread_pool.hpp"
#include "fabric/model_executor.hpp"
#include "fabric/serving.hpp"
#include "fabric/sim_executor.hpp"
#include "sched/graph_builders.hpp"
#include "sched/graph_scheduler.hpp"
#include "sched/workload.hpp"

namespace {

using namespace lac;

std::string json_replay(const char* backend, const char* arrivals,
                        const sched::ReplayReport& r) {
  std::ostringstream os;
  os << "    {\"backend\": \"" << backend << "\", \"arrivals\": \"" << arrivals
     << "\", \"requests\": " << r.requests << ", \"graphs\": " << r.graphs
     << ", \"failures\": " << r.failures << ", \"wall_ms\": " << r.wall_ms
     << ", \"requests_per_s\": " << r.requests_per_s
     << ", \"fairness_jain\": " << r.fairness_jain
     << ", \"graph_speedup_mean\": " << r.graph_speedup_mean
     << ",\n     \"tenants\": [";
  for (std::size_t t = 0; t < r.tenants.size(); ++t) {
    const sched::TenantReplayStats& ts = r.tenants[t];
    if (t) os << ", ";
    os << "\n      {\"name\": \"" << ts.name << "\", \"weight\": " << ts.weight
       << ", \"requests\": " << ts.requests << ", \"failures\": " << ts.failures
       << ", \"p50_ms\": " << ts.p50_ms << ", \"p99_ms\": " << ts.p99_ms
       << ", \"mean_ms\": " << ts.mean_ms << ", \"cycles\": " << ts.cycles.value()
       << ", \"energy_nj\": " << ts.energy_nj.value() << "}";
  }
  os << "]}";
  return os.str();
}

/// Graph-parallel figures for one backend: run the tiled-Cholesky DAG once
/// through the scheduler at width W and report serial-sum vs makespan.
std::string json_graph(const fabric::Executor& ex, const char* backend,
                       index_t n, index_t block, unsigned workers, bool& ok) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD spd = random_spd(n, 404);
  sched::FactorGraph fg = sched::build_cholesky_graph(cfg, 2.0, spd.view(), block);
  const std::size_t nodes = fg.graph.size();
  ThreadPool pool(workers);
  sched::SchedulerOptions opts;
  opts.workers = workers;
  sched::GraphScheduler scheduler(ex, opts, &pool);
  sched::GraphResult res = scheduler.submit(0, std::move(fg.graph)).get();
  ok = ok && res.ok && res.speedup > 1.0;
  std::ostringstream os;
  os << "    {\"backend\": \"" << backend << "\", \"n\": " << n
     << ", \"block\": " << block << ", \"nodes\": " << nodes
     << ", \"workers\": " << res.workers
     << ", \"serial_cycles\": " << res.total_cycles.value()
     << ", \"makespan_cycles\": " << res.makespan_cycles.value()
     << ", \"graph_speedup\": " << res.speedup
     << ", \"energy_nj\": " << res.energy_nj.value()
     << ", \"avg_power_w\": " << res.avg_power_w.value()
     << ", \"wall_ms\": " << res.wall_ms << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = std::getenv("LAC_BENCH_SMOKE") != nullptr;
  const std::optional<std::string> trace_path =
      lac::bench::trace_path_from_args(argc, argv);
  std::optional<obs::TraceSession> trace_session;
  if (trace_path) trace_session.emplace(obs::TraceSessionOptions{1u << 16});
  const arch::CoreConfig cfg = arch::lac_4x4_dp();
  const double bw = 2.0;
  const unsigned width = 8;

  sched::TraceConfig base;
  base.seed = 42;
  base.events = smoke ? 120 : 600;
  base.rate_per_s = smoke ? 8000.0 : 4000.0;
  base.burst_size = 10;
  base.burst_gap_ms = smoke ? 0.5 : 2.0;
  base.graph_fraction = 0.15;
  base.sizes = {16, 32};
  base.graph_n = 32;
  base.graph_block = 8;
  base.tenants = 3;

  sched::ReplayOptions ropts;
  // Smoke compresses the arrival timeline; the sim backend replays unpaced
  // (its per-kernel latency dominates any realistic arrival gap).
  ropts.time_scale = smoke ? 0.25 : 1.0;
  ropts.tenants = {{"bronze", 1.0, 0}, {"silver", 2.0, 0}, {"gold", 4.0, 0}};

  std::printf("scheduler workload: %d events, 3 weighted tenants, %.0f%% graphs\n",
              base.events, 100.0 * base.graph_fraction);

  const fabric::SimExecutor sim;
  fabric::CostCache cache;
  const fabric::ModelExecutor cached_model(&cache);

  bool ok = true;
  std::ostringstream json;
  json << "{\n  \"smoke\": " << (smoke ? "true" : "false")
       << ",\n  \"events\": " << base.events << ",\n  \"worker_width\": " << width
       << ",\n  \"replays\": [\n";

  // Model backend (CostCache-backed), Poisson then bursty arrivals.
  {
    sched::TraceConfig poisson = base;
    poisson.arrivals = sched::ArrivalProcess::Poisson;
    ThreadPool pool(width);
    sched::SchedulerOptions sopts;
    sopts.queue_capacity = 128;
    sopts.batch_limit = 8;  // CostCache-backed model: affinity batching pays
    sched::GraphScheduler scheduler(cached_model, sopts, &pool);
    sched::ReplayReport r =
        sched::replay(scheduler, sched::generate_trace(poisson), cfg, bw, ropts);
    ok = ok && r.failures == 0;
    json << json_replay("model", "poisson", r) << ",\n";
  }
  {
    sched::TraceConfig bursty = base;
    bursty.arrivals = sched::ArrivalProcess::Bursty;
    ThreadPool pool(width);
    sched::SchedulerOptions sopts;
    sopts.queue_capacity = 128;
    sopts.batch_limit = 8;
    sched::GraphScheduler scheduler(cached_model, sopts, &pool);
    sched::ReplayReport r =
        sched::replay(scheduler, sched::generate_trace(bursty), cfg, bw, ropts);
    ok = ok && r.failures == 0;
    json << json_replay("model", "bursty", r) << ",\n";
  }
  // Sim backend: heavier per-kernel work, unpaced burst replay.
  {
    sched::TraceConfig simtrace = base;
    simtrace.arrivals = sched::ArrivalProcess::Bursty;
    simtrace.events = smoke ? 40 : 150;
    sched::ReplayOptions unpaced = ropts;
    unpaced.time_scale = 0.0;
    ThreadPool pool(width);
    sched::SchedulerOptions sopts;
    sopts.queue_capacity = 128;
    sched::GraphScheduler scheduler(sim, sopts, &pool);
    sched::ReplayReport r =
        sched::replay(scheduler, sched::generate_trace(simtrace), cfg, bw, unpaced);
    ok = ok && r.failures == 0;
    json << json_replay("sim", "bursty", r) << "\n  ],\n";
  }

  // Graph speedup per backend at 4 workers (the acceptance figure).
  json << "  \"graph_speedup\": [\n";
  json << json_graph(cached_model, "model", smoke ? 32 : 64, 8, 4, ok) << ",\n";
  json << json_graph(sim, "sim", smoke ? 24 : 32, 8, 4, ok) << "\n  ],\n";
  json << "  \"cost_cache\": {\"hits\": " << cache.hits()
       << ", \"misses\": " << cache.misses()
       << ", \"hit_rate\": " << cache.hit_rate() << "}"
       << ",\n  \"meta\": " << lac::bench::meta_json(width)
       << ",\n  \"telemetry\": " << lac::bench::telemetry_json() << "\n}\n";

  std::printf("\n%s", json.str().c_str());
  std::ofstream out("BENCH_scheduler.json");
  out << json.str();
  std::printf("wrote BENCH_scheduler.json\n");

  if (trace_session) {
    trace_session->stop();
    const bool wrote = trace_session->write_chrome_trace(*trace_path);
    std::printf("%s %s (%llu events dropped)\n",
                wrote ? "wrote" : "FAILED to write", trace_path->c_str(),
                static_cast<unsigned long long>(trace_session->dropped()));
    if (!wrote) return 1;
  }
  return ok ? 0 : 1;
}
