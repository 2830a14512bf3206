#include "model/factor_model.hpp"

namespace lac::model {

cycle_t cholesky_unblocked_cycles(int nr, int p, int q) {
  return static_cast<cycle_t>(2) * p * (nr - 1) + static_cast<cycle_t>(q) * nr;
}

cycle_t trsm_basic_cycles(int nr, int p) { return static_cast<cycle_t>(2) * p * nr; }

cycle_t trsm_stacked_cycles(int nr, int p) {
  return static_cast<cycle_t>(2) * p * nr + p;
}

cycle_t trsm_swp_cycles(int nr, int p, int g) {
  return static_cast<cycle_t>(p) * nr * (g + 1);
}

int recip_latency(const arch::CoreConfig& core) {
  switch (core.sfu) {
    case arch::SfuOption::Software: return core.sw_emulation_cycles;
    case arch::SfuOption::IsolatedUnit: return core.sfu_latency_recip;
    case arch::SfuOption::DiagonalPEs: return core.sfu_latency_recip + 2;
  }
  return core.sfu_latency_recip;
}

int rsqrt_latency(const arch::CoreConfig& core) {
  switch (core.sfu) {
    case arch::SfuOption::Software: return core.sw_emulation_cycles + 6;
    case arch::SfuOption::IsolatedUnit: return core.sfu_latency_rsqrt;
    case arch::SfuOption::DiagonalPEs: return core.sfu_latency_rsqrt + 2;
  }
  return core.sfu_latency_rsqrt;
}

}  // namespace lac::model
