#pragma once
// Closed-form cycle counts for the factorization inner kernels (Ch. 6 and
// Appendix A). These are the published formulas; the cycle-accurate
// simulator kernels must agree with them (see tests/test_sim_vs_model.cpp).
// The LU and VNORM panel models the model backend serves are their kernel
// registry entries' (fabric/kernel_registry.cpp), built on the SFU
// latencies below.
#include "arch/configs.hpp"
#include "common/types.hpp"

namespace lac::model {

/// nr x nr Cholesky factorization: 2p(nr-1) + q*nr cycles (§6.1.1), where
/// p is the MAC pipeline depth and q the inverse-sqrt latency.
cycle_t cholesky_unblocked_cycles(int nr, int p, int q);

/// nr x nr TRSM variants (§5.3.1): basic 2p*nr; stacked over p blocks
/// 2p*nr + p; software-pipelined nr x (g*p*nr) panel: p*nr*(g+1).
cycle_t trsm_basic_cycles(int nr, int p);
cycle_t trsm_stacked_cycles(int nr, int p);
cycle_t trsm_swp_cycles(int nr, int p, int g);

/// Latency of one reciprocal under the configured SFU option.
int recip_latency(const arch::CoreConfig& core);
/// Latency of one inverse square root under the configured SFU option.
int rsqrt_latency(const arch::CoreConfig& core);

}  // namespace lac::model
