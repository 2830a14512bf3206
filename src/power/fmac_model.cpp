#include "power/fmac_model.hpp"

namespace lac::power {
namespace {
// V(f) = a + b*f (arbitrary units absorbing capacitance): P = f*(a+b*f)^2.
// Fitted to Table 3.1: DP {0.20:3.4, 0.33:6.0, 0.95:31.0, 1.81:105.5} mW,
// SP {0.50:3.3, 0.98:8.7, 1.32:13.4, 2.08:32.3} mW.
constexpr double kDpA = 3.68;
constexpr double kDpB = 2.18;
constexpr double kSpA = 2.14;
constexpr double kSpB = 0.867;
}  // namespace

double fmac_dynamic_mw(Precision prec, double clock_ghz) {
  const double a = prec == Precision::Double ? kDpA : kSpA;
  const double b = prec == Precision::Double ? kDpB : kSpB;
  const double v = a + b * clock_ghz;
  return clock_ghz * v * v;
}

double fmac_area_mm2(Precision prec) {
  return prec == Precision::Double ? 0.04 : 0.01;
}

double fmac_energy_pj(Precision prec, double clock_ghz) {
  // mW / GHz == pJ per cycle; one MAC issues per cycle at full rate.
  return fmac_dynamic_mw(prec, clock_ghz) / clock_ghz;
}

}  // namespace lac::power
