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
// The registry is one constexpr table indexed by KernelKind, and a
// static_assert holds it complete: a kind without its own slot, its name
// and every hook, or with another kind's name, does not compile. The
// table's one switch on KernelKind is exhaustive (-Werror=switch); no other
// exists outside kernel_registry.cpp (lint's stray-kernel-switch), and
// tests/test_registry.cpp executes every registered kind on both backends.
#include <cstdint>
#include <span>
#include <string>

#include "fabric/kernel_request.hpp"

namespace lac::fabric {

/// Everything the fabric stack needs to know about one kernel kind.
/// Hooks are plain functions of the request (and only the request): traits
/// are constant data, safe to share across threads.
struct KernelTraits {
  KernelKind kind = KernelKind::Gemm;
  /// Stable display/registry name ("GEMM", "FFT", ...); to_string() reads
  /// this field, so the two cannot drift.
  const char* name = "?";

  /// Shape/blocking sanity check; empty string when valid.
  std::string (*validate)(const KernelRequest&) = nullptr;

  /// Useful MAC count (the utilization numerator).
  units::Flops (*useful_macs)(const KernelRequest&) = nullptr;

  /// Closed-form cycle estimate (the analytical backend's clock).
  units::Cycles (*model_cycles)(const KernelRequest&) = nullptr;

  /// Closed-form sustained utilization at `cycles` (defaults to
  /// useful_macs / (cycles * nr^2); ChipGemm scales by the core count).
  double (*model_utilization)(const KernelRequest&, units::Cycles cycles) = nullptr;

  /// Host-reference numerics for the analytical backend: fill the result's
  /// output fields (out / pivots / taus / scalar / spectrum) and return an
  /// error string on in-band failure ("" on success).
  std::string (*reference_run)(const KernelRequest&, KernelResult&) = nullptr;

  /// Cycle-exact execution on the simulator backend: fill the result's
  /// output fields plus cycles / utilization / stats and return an error
  /// string on in-band failure (the executor voids the accounting).
  std::string (*sim_run)(const KernelRequest&, KernelResult&) = nullptr;

  /// Closed-form energy at the request's TechContext (model backend).
  power::EnergyReport (*model_energy)(const KernelRequest&, units::Cycles cycles,
                                      double utilization) = nullptr;

  /// Activity-priced energy from simulator counters (sim backend).
  power::EnergyReport (*sim_energy)(const KernelRequest&, const sim::Stats&,
                                    units::Cycles cycles) = nullptr;

  /// Valid request of this kind scaled to a nominal operand dimension `n`
  /// (workload/trace generators -- the sched layer builds its serving
  /// traffic through this hook, so a new kernel joins the mix with its
  /// registration). Operands are deterministic from `seed` and carried as
  /// shared payloads, so callers may copy the request to fan one payload
  /// out across many submissions.
  KernelRequest (*sized_request)(const arch::CoreConfig& cfg, double bw, index_t n,
                                std::uint64_t seed) = nullptr;
};

/// Traits for a registered kind; throws std::out_of_range for a value
/// outside the enum (executors report it in-band via validate()).
const KernelTraits& kernel_traits(KernelKind kind);

/// Null-safe lookup: nullptr for a value outside the enum.
const KernelTraits* try_kernel_traits(KernelKind kind);

/// Every registered kind, in enumerator order.
std::span<const KernelKind> registered_kernel_kinds();

/// Small, valid, deterministic request of a registered kind (registry smoke
/// tests, completeness checks): its sized_request at n = 16 and 2 words per
/// cycle on the baseline core. Throws std::out_of_range like kernel_traits.
KernelRequest sample_request(KernelKind kind, std::uint64_t seed);

}  // namespace lac::fabric
