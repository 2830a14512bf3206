#pragma once
// Process-technology scaling helpers.
//
// The paper reports everything scaled to a 45nm bulk-CMOS node (low-power
// ITRS model), with one comparison (Fig 4.13) at 65nm. We model classical
// scaling factors so published numbers at other nodes can be normalized the
// same way the dissertation does.
#include <string>

#include "common/units.hpp"

namespace lac::arch {

enum class TechNode { nm65, nm45, nm32 };

/// Request-level technology/frequency context for energy accounting: the
/// process node everything is evaluated at, and an optional clock override.
/// The default (45nm, core clock) is the operating point the dissertation
/// reports all headline numbers at.
struct TechContext {
  TechNode node = TechNode::nm45;
  double clock_ghz = 0.0;  ///< 0 = use the PE clock of the core/chip config
};

/// Feature size in nanometres.
double feature_nm(TechNode node);

/// Area scale factor relative to 45nm (area ~ (L/L45)^2). Dimensionless
/// ratio by design; typed values go through scale_from_45 below.
double area_scale_to_45(TechNode from);  // lint-allow: raw-unit (dimensionless factor)

/// Inverse direction: multiply a 45nm-calibrated area to express it at
/// `to` (e.g. 65nm costs (65/45)^2 the area of the same design at 45nm).
double area_scale_from_45(TechNode to);  // lint-allow: raw-unit (dimensionless factor)

/// Dynamic-power scale factor relative to 45nm at iso-frequency
/// (P ~ C*V^2*f; capacitance ~ L, voltage headroom shrinks slowly --
/// the dissertation uses ~linear power scaling between adjacent nodes).
double power_scale_to_45(TechNode from);  // lint-allow: raw-unit (dimensionless factor)

/// Inverse direction: multiply a 45nm-calibrated dynamic power/energy to
/// express it at `to`.
double power_scale_from_45(TechNode to);  // lint-allow: raw-unit (dimensionless factor)

/// ---- typed node scaling --------------------------------------------------
/// The 45nm-calibrated component models express every per-event energy,
/// power and area as a typed quantity; rescaling to another node picks the
/// scaling law from the quantity's dimension (energy/power ~ L, area ~
/// L^2), so a caller cannot apply the area law to an energy or mix two
/// nodes in one sum without the seam showing. test_arch_presets.cpp pins
/// the 45nm -> 32nm factors.
units::Picojoules scale_from_45(units::Picojoules at45, TechNode to);
units::Nanojoules scale_from_45(units::Nanojoules at45, TechNode to);
units::Milliwatts scale_from_45(units::Milliwatts at45, TechNode to);
units::Watts scale_from_45(units::Watts at45, TechNode to);
units::SquareMillimeters scale_from_45(units::SquareMillimeters at45, TechNode to);

/// Leakage/idle power expressed as a constant fraction of dynamic power,
/// "ranging between 25% and 30% depending on the technology" (§1.3.3).
double idle_fraction(TechNode node);

std::string to_string(TechNode node);

}  // namespace lac::arch
