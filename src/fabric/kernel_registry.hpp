#pragma once
// Central kernel registry: the single place a fabric kernel is described.
//
// Every layer that must understand a kernel kind -- request validation and
// flop accounting (kernel_request.cpp), numerics and closed-form cost on
// the analytical backend (ModelExecutor), cycle-exact execution on the
// simulator backend (SimExecutor) and energy pricing (the power hooks) --
// dispatches through one KernelTraits record registered here. The
// CostCache key needs no hook: it packs every request field any cost
// model reads, whatever the kind. Opening a new workload is therefore a
// one-file change:
// add the KernelKind enumerator, register its traits in
// kernel_registry.cpp, and the serving layer (AsyncExecutor, CostCache,
// GraphScheduler) serves it like the other ten.
//
// No `switch` on KernelKind exists outside kernel_registry.cpp (CI greps
// for strays); the registry's own dispatch is the one exhaustive switch,
// so a new enumerator without traits is a compiler warning, and the
// registry completeness test (tests/test_registry.cpp) executes every
// registered kind on both backends.
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "fabric/kernel_request.hpp"

namespace lac::fabric {

/// Everything the fabric stack needs to know about one kernel kind.
/// Hooks take the request (and only the request): traits are stateless and
/// safe to share across threads.
struct KernelTraits {
  KernelKind kind = KernelKind::Gemm;
  /// Stable display/registry name ("GEMM", "FFT", ...); to_string() and
  /// find_kernel_traits() both read this field, so they cannot drift.
  const char* name = "?";

  /// Shape/blocking sanity check; empty string when valid.
  std::function<std::string(const KernelRequest&)> validate;

  /// Useful MAC count (the utilization numerator).
  std::function<units::Flops(const KernelRequest&)> useful_macs;

  /// Closed-form cycle estimate (the analytical backend's clock).
  std::function<units::Cycles(const KernelRequest&)> model_cycles;

  /// Closed-form sustained utilization at `cycles` (defaults to
  /// useful_macs / (cycles * nr^2); ChipGemm scales by the core count).
  std::function<double(const KernelRequest&, units::Cycles cycles)>
      model_utilization;

  /// Host-reference numerics for the analytical backend: fill the result's
  /// output fields (out / pivots / taus / scalar / spectrum) and return an
  /// error string on in-band failure ("" on success).
  std::function<std::string(const KernelRequest&, KernelResult&)> reference_run;

  /// Cycle-exact execution on the simulator backend: fill the result's
  /// output fields plus cycles / utilization / stats and return an error
  /// string on in-band failure (the executor voids the accounting).
  std::function<std::string(const KernelRequest&, KernelResult&)> sim_run;

  /// Closed-form energy at the request's TechContext (model backend).
  std::function<power::EnergyReport(const KernelRequest&, units::Cycles cycles,
                                    double utilization)>
      model_energy;

  /// Activity-priced energy from simulator counters (sim backend).
  std::function<power::EnergyReport(const KernelRequest&, const sim::Stats&,
                                    units::Cycles cycles)>
      sim_energy;

  /// Valid request of this kind scaled to a nominal operand dimension `n`
  /// (workload/trace generators -- the sched layer builds its serving
  /// traffic through this hook, so a new kernel joins the mix with its
  /// registration). Operands are deterministic from `seed` and carried as
  /// shared payloads, so callers may copy the request to fan one payload
  /// out across many submissions.
  std::function<KernelRequest(const arch::CoreConfig& cfg, double bw, index_t n,
                              std::uint64_t seed)>
      sized_request;
};

/// Traits for a registered kind; throws std::out_of_range for a kind with
/// no registration (executors report it in-band via validate()).
const KernelTraits& kernel_traits(KernelKind kind);

/// Null-safe lookup: nullptr when the kind is unregistered.
const KernelTraits* try_kernel_traits(KernelKind kind);

/// Lookup by registry name (the to_string round-trip); nullptr when no
/// registered kind carries `name`.
const KernelTraits* find_kernel_traits(std::string_view name);

/// Every registered kind, in enumerator order.
const std::vector<KernelKind>& registered_kernel_kinds();

/// Small, valid, deterministic request of a registered kind (registry smoke
/// tests, completeness checks): its sized_request at n = 16 and 2 words per
/// cycle on the baseline core. Throws std::out_of_range like kernel_traits.
KernelRequest sample_request(KernelKind kind, std::uint64_t seed);

}  // namespace lac::fabric
