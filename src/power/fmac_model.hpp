#pragma once
// lint-allow-file: raw-unit (Table 3.1-calibrated mW/mm^2 curve fits; the
// typed layer consumes these via power::EventEnergies and power::Metrics)
// Fused multiply-accumulate (FMAC) unit power/area model.
//
// Calibrated against the dissertation's Table 3.1 operating points, which in
// turn digest the FPU design-space survey it cites. Dynamic power follows
// P(f) = f * V(f)^2 with a linear voltage/frequency characteristic, which
// fits all eight published (frequency, power) pairs to within ~3%.
#include "common/types.hpp"

namespace lac::power {

/// Dynamic power in mW of one FMAC at the given clock (GHz).
double fmac_dynamic_mw(Precision prec, double clock_ghz);

/// Area in mm^2 at 45nm. (0.01 SP / 0.04 DP per the cited survey.)
double fmac_area_mm2(Precision prec);

/// Energy of a single MAC operation in pJ at the given clock.
double fmac_energy_pj(Precision prec, double clock_ghz);

}  // namespace lac::power
