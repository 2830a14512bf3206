#pragma once
// The outside-in layer ledger of a traced run.
//
// Per-layer figures come from three sources, all measured from the
// benchmark's own code around calls into each layer's public functions:
//
//   window     the traced window itself: execute time from the TimedExecutor
//              decorator, client submit/resolve times, pool queue waits,
//              pool counters, allocations, exact counts;
//   isolation  each public layer call (validate, CostCache signature/hit/
//              miss, model_cost, reference_run, sim_run, sim_energy) timed
//              alone on the workload's distinct requests, weighted by each
//              request's share of the cycle. The simulator hooks are timed
//              on the sim_serve request set on every workload, so the sim
//              figures mean the same thing everywhere;
//   probes     for a front end the workload's loop never enters (sched on
//              the serving workloads, serving on sched_tenants, both on
//              dse_sweep): 1,024 one-at-a-time round trips through it on the
//              workload's pool and backend, over the serving mix.
#include <string>
#include <vector>

#include "window.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Every per-layer metric for a workload whose traced window just ran.
/// `untraced` is the same workload's untraced window from this process:
/// the base of trace.overhead_pct and the source of the client.* wall-clock
/// figures.
std::vector<Metric> layer_ledger(Workload& wl, const WindowStats& traced,
                                 const WindowStats& untraced, std::uint64_t seed);

}  // namespace perfbench
