#include "model/validation.hpp"

#include <algorithm>
#include <cmath>

#include "model/chip_model.hpp"

namespace lac::model {

ValidationCase validate_fermi_c2050() {
  ValidationCase v;
  v.name = "NVIDIA Fermi C2050";
  v.cores = 14;
  v.nr = 4;
  v.onchip_kbytes = 768;
  v.clock_ghz = 1.15;
  v.avail_onchip_gbs = 230.0;
  v.avail_offchip_gbs = 144.0;
  v.measured_utilization = 0.70;

  // Largest C block divisible by S and nr that fits 768 KB with its panels:
  // ns = 280, mc = kc = ns/S = 20 (§4.3).
  ChipGemmParams p;
  p.nr = v.nr;
  p.cores = v.cores;
  p.n = 280;
  p.mc = p.kc = 20;
  p.b_sharing = BSharing::Replicated;
  v.ns = p.n;
  v.mc = p.mc;

  const double words_per_cycle_on = table41_intra_chip_bw_words(p);
  v.required_onchip_gbs = words_per_cycle_on * v.clock_ghz * 8.0;
  const double words_per_cycle_off = table41_offchip_bw_words(p) * 2.0;  // full overlap
  v.required_offchip_gbs = words_per_cycle_off * v.clock_ghz * 8.0;
  v.predicted_utilization =
      std::min(1.0, v.avail_onchip_gbs / v.required_onchip_gbs);
  return v;
}

ValidationCase validate_clearspeed_csx() {
  ValidationCase v;
  v.name = "ClearSpeed CSX";
  v.cores = 6;  // modeled as six optimal 4x4 cores (§4.3)
  v.nr = 4;
  v.onchip_kbytes = 128;
  v.clock_ghz = 0.25;
  v.avail_onchip_gbs = 96.0;  // on-chip scratch, not the binding constraint
  v.avail_offchip_gbs = 4.0;
  v.measured_utilization = 0.78;

  // 128 KB fits a 64x128 block of C.
  v.ns = 64;
  v.mc = 64;
  // The published analysis's off-chip demand, 4.7 GB/s against 4.0
  // available; not a model output.
  v.required_offchip_gbs = 4.7;
  v.required_onchip_gbs = 0.0;
  v.predicted_utilization = std::min(1.0, v.avail_offchip_gbs / v.required_offchip_gbs);
  return v;
}

std::vector<ValidationCase> all_validation_cases() {
  return {validate_fermi_c2050(), validate_clearspeed_csx()};
}

}  // namespace lac::model
