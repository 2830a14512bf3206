#include "fabric/sim_executor.hpp"

#include "fabric/kernel_registry.hpp"
#include "obs/trace.hpp"

namespace lac::fabric {
namespace {

/// Failed requests charge nothing: a result that reports ok = false must
/// not leak the cycles/activity/energy the simulator absorbed before
/// detecting the failure (both backends agree on this, so a failure
/// contributes zero to any roll-up).
void void_accounting(KernelResult& res) {
  res.cycles = units::Cycles{};
  res.utilization = 0.0;
  res.energy_nj = units::Nanojoules{};
  res.avg_power_w = units::Watts{};
  res.area_mm2 = units::SquareMillimeters{};
  res.metrics = power::Metrics{};
  res.stats = sim::Stats{};
}

}  // namespace

KernelResult SimExecutor::execute(const KernelRequest& req) const {
  KernelResult res;
  res.backend = name();
  res.tag = req.tag;
  if (std::string err = validate(req); !err.empty()) {
    res.error = std::move(err);
    return res;
  }

  // Cycle-exact execution through the registered sim-run closure, then the
  // registered energy hook prices the simulator's activity counters at the
  // request's TechContext: per-event energies for the dynamic part,
  // leakage over the exact cycle count for the static part.
  const KernelTraits& traits = kernel_traits(req.kind);
  obs::Span span(traits.name, "sim");
  if (std::string err = traits.sim_run(req, res); !err.empty()) {
    res.error = std::move(err);
    void_accounting(res);
    return res;
  }
  attach_cost(res, req, traits.sim_energy(req, res.stats, res.cycles));
  res.ok = true;
  span.set_cycles(res.cycles);
  return res;
}

}  // namespace lac::fabric
