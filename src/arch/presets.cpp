#include "arch/presets.hpp"

namespace lac::arch {

CoreConfig lac_4x4_dp(double clock_ghz) {
  CoreConfig c;
  c.nr = 4;
  c.pe.precision = Precision::Double;
  c.pe.clock_ghz = clock_ghz;
  c.pe.pipeline_stages = 5;
  c.pe.mem_a_kbytes = 16.0;
  c.pe.mem_b_kbytes = 2.0;
  return c;
}

CoreConfig lac_4x4_sp(double clock_ghz) {
  CoreConfig c = lac_4x4_dp(clock_ghz);
  c.pe.precision = Precision::Single;
  return c;
}

CoreConfig lac_8x8_dp(double clock_ghz) {
  CoreConfig c = lac_4x4_dp(clock_ghz);
  c.nr = 8;
  return c;
}

ChipConfig lap_s8(double onchip_mbytes) {
  ChipConfig chip;
  chip.cores = 8;
  chip.core = lac_4x4_dp(1.0);
  chip.onchip_mem_mbytes = onchip_mbytes;
  chip.onchip_bw_words_per_cycle = 8.0;
  chip.offchip_bw_words_per_cycle = 2.0;
  return chip;
}

ChipConfig lap30_sp() {
  ChipConfig chip;
  chip.cores = 30;
  chip.core = lac_4x4_sp(1.4);
  chip.onchip_mem_mbytes = 5.0;
  chip.onchip_bw_words_per_cycle = 16.0;
  chip.offchip_bw_words_per_cycle = 4.0;
  return chip;
}

ChipConfig lap15_dp() {
  ChipConfig chip = lap30_sp();
  chip.cores = 15;
  chip.core = lac_4x4_dp(1.4);
  return chip;
}

}  // namespace lac::arch
