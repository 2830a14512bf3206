#pragma once
// §4.3 model validation: apply the chip-level analytical model to published
// third-party architectures (NVIDIA Fermi C2050, ClearSpeed CSX) and check
// the predicted utilization against their measured GEMM efficiency.
#include <string>
#include <vector>

namespace lac::model {

struct ValidationCase {
  std::string name;
  // Inputs (published machine parameters).
  int cores = 0;
  int nr = 4;                 ///< modeled as S cores of 4x4 MACs
  double onchip_kbytes = 0;   ///< L2 / scratchpad capacity
  double clock_ghz = 0;
  double avail_onchip_gbs = 0;
  double avail_offchip_gbs = 0;
  // Derived by the model.
  long ns = 0;                ///< on-chip C block dimension chosen
  long mc = 0;
  double required_onchip_gbs = 0;
  double required_offchip_gbs = 0;
  double predicted_utilization = 0;
  // Published measurement to compare against.
  double measured_utilization = 0;
};

/// Fermi C2050 (S=14, 768 KB L2, 1.15 GHz): predicted 74% vs measured 70%.
ValidationCase validate_fermi_c2050();

/// ClearSpeed CSX (128 KB, 64x128 C block): predicted 83% vs measured 78%.
ValidationCase validate_clearspeed_csx();

/// Both cases, as the sec_4_3 paper artifact prints them.
std::vector<ValidationCase> all_validation_cases();

}  // namespace lac::model
