// Kernel registry at run time: both backends execute every registered
// kind's sample request without throwing, the model cost is the traits'
// hooks, an unregistered kind fails in-band, and no two kinds' sample
// requests share a CostCache key. That every kind has its own slot, its
// name, every hook and a unique name is a static_assert in
// kernel_registry.cpp.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "arch/presets.hpp"
#include "common/random.hpp"
#include "fabric/kernel_registry.hpp"
#include "fabric/model_executor.hpp"
#include "fabric/serving.hpp"
#include "fabric/sim_executor.hpp"

namespace lac::fabric {
namespace {

const SimExecutor kSim;
const ModelExecutor kModel;

TEST(KernelRegistry, SampleRequestsExecuteOnBothBackends) {
  for (KernelKind kind : registered_kernel_kinds()) {
    const KernelTraits& t = kernel_traits(kind);
    const KernelRequest req = sample_request(kind, 1234);
    EXPECT_EQ(req.kind, kind) << t.name;
    EXPECT_EQ(validate(req), "") << t.name;
    for (const Executor* ex : {static_cast<const Executor*>(&kSim),
                               static_cast<const Executor*>(&kModel)}) {
      KernelResult res;
      ASSERT_NO_THROW(res = ex->execute(req)) << t.name << " " << ex->name();
      EXPECT_TRUE(res.ok) << t.name << " " << ex->name() << ": " << res.error;
      EXPECT_GT(res.cycles.value(), 0.0) << t.name << " " << ex->name();
      EXPECT_GT(res.utilization, 0.0) << t.name << " " << ex->name();
      EXPECT_LE(res.utilization, 1.0 + 1e-9) << t.name << " " << ex->name();
      EXPECT_GT(res.energy_nj.value(), 0.0) << t.name << " " << ex->name();
      EXPECT_GT(useful_macs(req).value(), 0.0) << t.name;
    }
  }
}

TEST(KernelRegistry, ModelCostMatchesTraitHooks) {
  for (KernelKind kind : registered_kernel_kinds()) {
    const KernelTraits& t = kernel_traits(kind);
    const KernelRequest req = sample_request(kind, 99);
    const ModelCost cost = model_cost(req);
    EXPECT_DOUBLE_EQ(cost.cycles.value(), t.model_cycles(req).value()) << t.name;
    EXPECT_DOUBLE_EQ(cost.utilization, t.model_utilization(req, cost.cycles))
        << t.name;
    EXPECT_DOUBLE_EQ(cost.energy.energy_nj().value(),
                     t.model_energy(req, cost.cycles, cost.utilization)
                         .energy_nj()
                         .value())
        << t.name;
  }
}

TEST(KernelRegistry, UnregisteredKindFailsInBand) {
  const KernelKind bogus = static_cast<KernelKind>(250);
  EXPECT_EQ(try_kernel_traits(bogus), nullptr);
  EXPECT_STREQ(to_string(bogus), "?");
  EXPECT_EQ(useful_macs(KernelRequest{.kind = bogus}).value(), 0.0);
  KernelRequest req = sample_request(KernelKind::Gemm, 7);
  req.kind = bogus;
  for (const Executor* ex : {static_cast<const Executor*>(&kSim),
                             static_cast<const Executor*>(&kModel)}) {
    KernelResult res;
    ASSERT_NO_THROW(res = ex->execute(req)) << ex->name();
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.error, "unregistered kernel kind");
  }
}

TEST(KernelRegistry, SignaturesOfDistinctKindsNeverCollide) {
  std::set<std::string> sigs;
  for (KernelKind kind : registered_kernel_kinds()) {
    const KernelRequest req = sample_request(kind, 5);
    EXPECT_TRUE(sigs.insert(CostCache::signature(req)).second)
        << to_string(kind);
  }
}

}  // namespace
}  // namespace lac::fabric
