#include "fabric/model_executor.hpp"

#include "fabric/kernel_registry.hpp"
#include "fabric/serving.hpp"

namespace lac::fabric {

units::Cycles model_cycles(const KernelRequest& req) {
  return kernel_traits(req.kind).model_cycles(req);
}

ModelCost model_cost(const KernelRequest& req) {
  const KernelTraits& traits = kernel_traits(req.kind);
  ModelCost cost;
  cost.cycles = traits.model_cycles(req);
  cost.utilization = traits.model_utilization(req, cost.cycles);
  cost.energy = traits.model_energy(req, cost.cycles, cost.utilization);
  return cost;
}

KernelResult ModelExecutor::execute(const KernelRequest& req) const {
  KernelResult res;
  res.backend = name();
  res.tag = req.tag;
  if (std::string err = validate(req); !err.empty()) {
    res.error = std::move(err);
    return res;
  }

  // Numerics from the registered host reference (bit-identical to the
  // golden models the simulator is tested against); in-band failures leave
  // every cost field at its zero default.
  const KernelTraits& traits = kernel_traits(req.kind);
  if (std::string err = traits.reference_run(req, res); !err.empty()) {
    res.error = std::move(err);
    return res;
  }

  if (cache_) {
    const CostCache::Estimate est = cache_->estimate(req);
    res.cycles = est.cycles;
    res.utilization = est.utilization;
    power::EnergyReport energy;
    energy.dynamic_nj = est.energy_nj;
    energy.avg_power_w = est.avg_power_w;
    energy.area_mm2 = est.area_mm2;
    attach_cost(res, req, energy);
  } else {
    const ModelCost cost = model_cost(req);
    res.cycles = cost.cycles;
    res.utilization = cost.utilization;
    attach_cost(res, req, cost.energy);
  }
  res.ok = true;
  return res;
}

}  // namespace lac::fabric
