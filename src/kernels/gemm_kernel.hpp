#pragma once
// GEMM mapped onto the simulated LAC (§3.1-§3.4).
//
// The mc x kc block of A lives 2D-round-robin in the PE MEM-A stores; B
// panels are replicated column-wise in MEM-B (freeing the column buses for
// streaming); nr x nr blocks of C live in the MAC accumulators while being
// updated by kc rank-1 updates, with the next block's operands prefetched
// behind the current block's compute.
#include "arch/configs.hpp"
#include "common/matrix.hpp"
#include "common/units.hpp"
#include "model/core_model.hpp"
#include "sim/engine.hpp"

namespace lac::kernels {

struct KernelResult {
  MatrixD out;             ///< computed values (layout depends on kernel)
  units::Cycles cycles;   ///< makespan of the schedule
  double utilization = 0.0;///< useful MAC slots / (cycles * nr^2)
  sim::Stats stats;
};

/// Single nr x nr rank-1 update kernel: C(nr x nr) += A(nr x kc)*B(kc x nr),
/// with A already resident and B replicated; C preloaded into accumulators.
/// This is the Fig 3.1/3.2 inner engine; cycle count ~ kc + pipeline depth.
KernelResult gemm_rank1_inner(const arch::CoreConfig& cfg, ConstViewD a, ConstViewD b,
                              ConstViewD c_in);

/// Blocked core-level GEMM: C(mc x n) += A(mc x kc) * B(kc x n) streamed
/// through a bandwidth-limited memory interface (§3.3/§3.4).
KernelResult gemm_core(const arch::CoreConfig& cfg, double bw_words_per_cycle,
                       ConstViewD a, ConstViewD b, ConstViewD c_in,
                       model::Overlap overlap = model::Overlap::Partial);

}  // namespace lac::kernels
