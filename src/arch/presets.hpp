#pragma once
// Named design points used throughout the dissertation's evaluation.
#include "arch/configs.hpp"

namespace lac::arch {

/// The baseline 4x4 double-precision LAC at 1 GHz (Ch. 3).
CoreConfig lac_4x4_dp(double clock_ghz = 1.0);

/// Single-precision variant of the same core.
CoreConfig lac_4x4_sp(double clock_ghz = 1.0);

/// 8x8 core used in the nr=8 sweeps of Figs 3.4/3.5 and Ch. 5.
CoreConfig lac_8x8_dp(double clock_ghz = 1.0);

/// The LAP used for the chip-level studies: S=8 4x4 cores, 128 MAC units,
/// banked SRAM on-chip memory (Figs 4.9-4.12).
ChipConfig lap_s8(double onchip_mbytes = 5.0);

/// The throughput-matched comparison LAPs of Fig 4.16 / Table 4.2:
/// 30 SP cores ("LAP-30") and 15 DP cores ("LAP-15") at 1.4 GHz.
ChipConfig lap30_sp();
ChipConfig lap15_dp();

}  // namespace lac::arch
