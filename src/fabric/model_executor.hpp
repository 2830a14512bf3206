#pragma once
// Analytical backend: numerics come from each kernel's registered host
// reference (bit-identical to the golden models the simulator is tested
// against) and cycle counts come from the paper's closed-form performance
// models (§3.4 core GEMM, Ch. 4 chip model, Ch. 5 level-3 forms,
// Ch. 6/App. A factorization forms, App. B FFT), all dispatched through
// the kernel registry. Evaluation is instant, which makes this backend the
// one to use for large design-space sweeps; the SimExecutor cross-checks it
// cycle-exactly (see tests/test_fabric.cpp).
#include "fabric/executor.hpp"

namespace lac::fabric {

class CostCache;

class ModelExecutor final : public Executor {
 public:
  /// With a CostCache attached (serving layer), repeated-shape requests
  /// skip re-estimation: cycles/utilization/energy come from the memo and
  /// only the numerics run per request. The cache must outlive the executor.
  explicit ModelExecutor(CostCache* cache = nullptr) : cache_(cache) {}

  const char* name() const override { return "model"; }
  KernelResult execute(const KernelRequest& req) const override;

 private:
  CostCache* cache_ = nullptr;
};

/// Closed-form cycle estimate for a request (exposed for tests/benches).
units::Cycles model_cycles(const KernelRequest& req);

/// Full closed-form cost of a request: cycles, utilization, and the busy +
/// leakage energy/power/area at the request's TechContext. Depends only on
/// the fields packed into the request's CostKey (shapes + configuration),
/// never operand values -- the contract the CostCache memoization relies on.
/// The request must validate(): the models divide by fields such as core.nr
/// and the bandwidth, so an invalid one may trap (SIGFPE) or price nonsense.
struct ModelCost {
  units::Cycles cycles;
  double utilization = 0.0;
  power::EnergyReport energy;
};
ModelCost model_cost(const KernelRequest& req);

}  // namespace lac::fabric
