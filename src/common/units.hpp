#pragma once
// Zero-cost dimensional analysis for the fabric's physical quantities.
//
// Every headline number this repo produces -- cycles, nanojoules, watts,
// mm^2, GFLOPS/W, energy-delay -- is arithmetic over physical quantities,
// and the repo has already shipped one real unit bug (the PR 3 energy-delay
// banner narrated W/GFLOPS^2 while the code computed mW/GFLOPS^2; it was
// pinned by a test, not prevented). This header makes the compiler the
// static analyzer: a Quantity<Dim, Scale> is a double with a compile-time
// dimension and scale, so
//
//   Nanojoules / Seconds        -> Watts          (dimension algebra)
//   Flops / Joules              -> FlopsPerJoule  (== flops/s per watt)
//   Watts + Nanojoules          -> compile error  (power + energy)
//   Joules + Nanojoules         -> compile error  (explicit scale cast
//                                                  required: the exact
//                                                  class of the PR 3 bug)
//
// Scale discipline: + / - / comparisons require the *identical* type (same
// dimension AND same scale); crossing scales takes an explicit
// quantity_cast / to_*() conversion. Multiplication and division accept any
// scales and always produce a canonical-scale result (SI, except area whose
// canonical unit is mm^2 -- the unit every model in this repo is calibrated
// in), so derived quantities never inherit an ambiguous prefix.
//
// Zero cost: a Quantity is one double, trivially copyable, standard layout
// (static_asserts below). Hot paths are unchanged; `.value()` is the
// raw-double escape hatch, allowed only at output formatting boundaries
// (tables, CSV, JSON; the `raw-unit` rule in tools/lint/lint.py enforces
// the header-level discipline).
#include <compare>
#include <ostream>
#include <ratio>
#include <string>
#include <type_traits>

namespace lac::units {

/// Dimension exponents over the repo's base quantities. `cycle` and `flop`
/// are counts the codesign math treats as first-class dimensions: cycles
/// per second is a clock, flops per joule is an efficiency, and cycles
/// accidentally multiplied by cycles stops compiling.
template <int TimeE, int EnergyE, int AreaE, int FlopE, int ByteE, int CycleE>
struct Dim {
  static constexpr int time = TimeE;
  static constexpr int energy = EnergyE;
  static constexpr int area = AreaE;
  static constexpr int flop = FlopE;
  static constexpr int byte = ByteE;
  static constexpr int cycle = CycleE;
  static constexpr bool dimensionless =
      TimeE == 0 && EnergyE == 0 && AreaE == 0 && FlopE == 0 && ByteE == 0 &&
      CycleE == 0;
};

template <class A, class B>
using DimMultiply = Dim<A::time + B::time, A::energy + B::energy,
                        A::area + B::area, A::flop + B::flop,
                        A::byte + B::byte, A::cycle + B::cycle>;

template <class A, class B>
using DimDivide = Dim<A::time - B::time, A::energy - B::energy,
                      A::area - B::area, A::flop - B::flop,
                      A::byte - B::byte, A::cycle - B::cycle>;

using Dimensionless = Dim<0, 0, 0, 0, 0, 0>;

template <class Ratio>
inline constexpr double ratio_value =
    static_cast<double>(Ratio::num) / static_cast<double>(Ratio::den);

/// One double with a compile-time dimension and scale. `Scale` is the ratio
/// of this unit to the canonical unit of its dimension (std::nano for
/// Nanojoules, std::milli for Milliwatts, ...).
template <class D, class Scale = std::ratio<1>>
class Quantity {
 public:
  using dim = D;
  using scale = Scale;

  constexpr Quantity() = default;
  constexpr explicit Quantity(double v) : v_(v) {}

  /// The raw magnitude in *this* unit (5.0 for Nanojoules(5.0)). The
  /// boundary escape hatch: JSON/stdout emission only.
  constexpr double value() const { return v_; }

  /// The magnitude in the canonical unit of the dimension (5e-9 J for
  /// Nanojoules(5.0)).
  constexpr double canonical() const { return v_ * ratio_value<Scale>; }

  /// Dimensionless quantities (same-dimension ratios: utilization,
  /// speedup, scale factors) collapse back to double implicitly.
  constexpr operator double() const
    requires D::dimensionless
  { return canonical(); }

  /// Additive ops and comparisons bind the identical type only: adding
  /// joules to nanojoules (or watts to milliwatts) requires an explicit
  /// quantity_cast, which is the point.
  constexpr Quantity operator+(Quantity o) const { return Quantity(v_ + o.v_); }
  constexpr Quantity operator-(Quantity o) const { return Quantity(v_ - o.v_); }
  constexpr Quantity operator-() const { return Quantity(-v_); }
  constexpr Quantity& operator+=(Quantity o) { v_ += o.v_; return *this; }
  constexpr Quantity& operator-=(Quantity o) { v_ -= o.v_; return *this; }
  constexpr Quantity& operator*=(double s) { v_ *= s; return *this; }
  constexpr Quantity& operator/=(double s) { v_ /= s; return *this; }

  constexpr bool operator==(const Quantity&) const = default;
  constexpr auto operator<=>(const Quantity&) const = default;

 private:
  double v_ = 0.0;
};

/// Scalar scaling keeps the unit.
template <class D, class S>
constexpr Quantity<D, S> operator*(Quantity<D, S> q, double s) {
  return Quantity<D, S>(q.value() * s);
}
template <class D, class S>
constexpr Quantity<D, S> operator*(double s, Quantity<D, S> q) {
  return Quantity<D, S>(s * q.value());
}
template <class D, class S>
constexpr Quantity<D, S> operator/(Quantity<D, S> q, double s) {
  return Quantity<D, S>(q.value() / s);
}

/// Quantity x quantity: dimensions compose, scales fold away -- the result
/// is always canonical, so `Nanojoules / Seconds` *is* `Watts` and no
/// derived quantity carries a hidden prefix.
template <class D1, class S1, class D2, class S2>
constexpr auto operator*(Quantity<D1, S1> a, Quantity<D2, S2> b) {
  return Quantity<DimMultiply<D1, D2>>(a.canonical() * b.canonical());
}
template <class D1, class S1, class D2, class S2>
constexpr auto operator/(Quantity<D1, S1> a, Quantity<D2, S2> b) {
  return Quantity<DimDivide<D1, D2>>(a.canonical() / b.canonical());
}
template <class D, class S>
constexpr auto operator/(double s, Quantity<D, S> q) {
  return Quantity<DimDivide<Dimensionless, D>>(s / q.canonical());
}

/// Explicit same-dimension scale conversion (nJ <-> J, mW <-> W): the only
/// sanctioned way to cross scales.
template <class To, class D, class S>
constexpr To quantity_cast(Quantity<D, S> q) {
  static_assert(std::is_same_v<typename To::dim, D>,
                "quantity_cast cannot change dimensions, only scale");
  return To(q.canonical() / ratio_value<typename To::scale>);
}

/// Raw magnitude, for test matchers and generic code that already names the
/// unit in the variable (`EXPECT_NEAR(value_of(r.cycles), ...)`).
template <class D, class S>
constexpr double value_of(Quantity<D, S> q) { return q.value(); }

/// Printing (test failure messages, logs): the raw magnitude in this unit.
template <class D, class S>
std::ostream& operator<<(std::ostream& os, Quantity<D, S> q) {
  return os << q.value();
}

// ---- base dimensions --------------------------------------------------------
using TimeDim = Dim<1, 0, 0, 0, 0, 0>;
using EnergyDim = Dim<0, 1, 0, 0, 0, 0>;
using AreaDim = Dim<0, 0, 1, 0, 0, 0>;
using FlopDim = Dim<0, 0, 0, 1, 0, 0>;
using ByteDim = Dim<0, 0, 0, 0, 1, 0>;
using CycleDim = Dim<0, 0, 0, 0, 0, 1>;

// ---- named units ------------------------------------------------------------
// Canonical units: second, joule, mm^2 (every area model in the repo is
// calibrated in mm^2), flop, byte, cycle.
using Seconds = Quantity<TimeDim>;
using Milliseconds = Quantity<TimeDim, std::milli>;
using Nanoseconds = Quantity<TimeDim, std::nano>;
using Joules = Quantity<EnergyDim>;
using Nanojoules = Quantity<EnergyDim, std::nano>;
using Picojoules = Quantity<EnergyDim, std::pico>;
using SquareMillimeters = Quantity<AreaDim>;
using Flops = Quantity<FlopDim>;
using Gigaflops = Quantity<FlopDim, std::giga>;
using Bytes = Quantity<ByteDim>;
using Kilobytes = Quantity<ByteDim, std::kilo>;
using Megabytes = Quantity<ByteDim, std::mega>;
using Cycles = Quantity<CycleDim>;

// ---- derived units ----------------------------------------------------------
using PowerDim = DimDivide<EnergyDim, TimeDim>;
using Watts = Quantity<PowerDim>;
using Milliwatts = Quantity<PowerDim, std::milli>;

/// Clock: cycles per second, so `Cycles / Gigahertz -> Seconds`.
using FrequencyDim = DimDivide<CycleDim, TimeDim>;
using Hertz = Quantity<FrequencyDim>;
using Gigahertz = Quantity<FrequencyDim, std::giga>;

using FlopRateDim = DimDivide<FlopDim, TimeDim>;
using FlopsPerSecond = Quantity<FlopRateDim>;

/// flops/J == (flops/s)/W: the compute-efficiency dimension behind every
/// GFLOPS/W figure.
using FlopsPerJoule = Quantity<DimDivide<FlopDim, EnergyDim>>;

using WattsPerSquareMillimeter = Quantity<DimDivide<PowerDim, AreaDim>>;
using FlopRatePerArea = Quantity<DimDivide<FlopRateDim, AreaDim>>;

/// Energy-delay: power over (compute rate)^2, canonical W.s^2/flop^2 --
/// derived, so the mW-vs-W ambiguity the PR 3 banner tripped on cannot
/// exist until a formatting boundary chooses a display convention.
using EnergyDelayDim =
    DimDivide<PowerDim, DimMultiply<FlopRateDim, FlopRateDim>>;
using EnergyDelay = Quantity<EnergyDelayDim>;
using InverseEnergyDelay = Quantity<DimDivide<Dimensionless, EnergyDelayDim>>;

using BytesPerSecond = Quantity<DimDivide<ByteDim, TimeDim>>;
using CyclesPerFlop = Quantity<DimDivide<CycleDim, FlopDim>>;

// ---- explicit scale conversions ---------------------------------------------
constexpr Joules to_joules(Nanojoules e) { return quantity_cast<Joules>(e); }
constexpr Joules to_joules(Picojoules e) { return quantity_cast<Joules>(e); }
constexpr Nanojoules to_nanojoules(Joules e) { return quantity_cast<Nanojoules>(e); }
constexpr Nanojoules to_nanojoules(Picojoules e) { return quantity_cast<Nanojoules>(e); }
constexpr Picojoules to_picojoules(Nanojoules e) { return quantity_cast<Picojoules>(e); }
constexpr Watts to_watts(Milliwatts p) { return quantity_cast<Watts>(p); }
constexpr Milliwatts to_milliwatts(Watts p) { return quantity_cast<Milliwatts>(p); }
constexpr Seconds to_seconds(Milliseconds t) { return quantity_cast<Seconds>(t); }
constexpr Seconds to_seconds(Nanoseconds t) { return quantity_cast<Seconds>(t); }
constexpr Milliseconds to_milliseconds(Seconds t) { return quantity_cast<Milliseconds>(t); }
constexpr Gigaflops to_gigaflops(Flops f) { return quantity_cast<Gigaflops>(f); }

/// GFLOPS (the display unit of every bench table) from a canonical rate.
constexpr double as_gflops(FlopsPerSecond r) { return r.value() * 1e-9; }
/// GFLOPS/W display value from the canonical efficiency.
constexpr double as_gflops_per_watt(FlopsPerJoule e) { return e.value() * 1e-9; }

// ---- zero-cost pins ---------------------------------------------------------
// A Quantity is exactly one double: same size, trivially copyable, standard
// layout. Hot-path structs carrying quantities keep their ABI, and
// memcpy/vector growth of results is unchanged.
static_assert(sizeof(Cycles) == sizeof(double));
static_assert(sizeof(Nanojoules) == sizeof(double));
static_assert(sizeof(Watts) == sizeof(double));
static_assert(sizeof(SquareMillimeters) == sizeof(double));
static_assert(sizeof(Flops) == sizeof(double));
static_assert(sizeof(Bytes) == sizeof(double));
static_assert(sizeof(Seconds) == sizeof(double));
static_assert(std::is_trivially_copyable_v<Cycles>);
static_assert(std::is_trivially_copyable_v<Nanojoules>);
static_assert(std::is_trivially_copyable_v<Watts>);
static_assert(std::is_trivially_copyable_v<SquareMillimeters>);
static_assert(std::is_trivially_copyable_v<EnergyDelay>);
static_assert(std::is_standard_layout_v<Cycles>);
static_assert(std::is_standard_layout_v<Nanojoules>);

// And the algebra is what the header narrates.
static_assert(std::is_same_v<decltype(Nanojoules{} / Seconds{}), Watts>);
static_assert(std::is_same_v<decltype(Watts{} * Seconds{}), Joules>);
static_assert(std::is_same_v<decltype(Cycles{} / Gigahertz{}), Seconds>);
static_assert(std::is_same_v<decltype(Flops{} / Joules{}), FlopsPerJoule>);
static_assert(std::is_same_v<decltype(Flops{} / Seconds{}), FlopsPerSecond>);
static_assert(
    std::is_same_v<decltype(Watts{} / (FlopsPerSecond{} * FlopsPerSecond{})),
                   EnergyDelay>);

namespace literals {
constexpr Cycles operator""_cycles(long double v) { return Cycles(static_cast<double>(v)); }
constexpr Cycles operator""_cycles(unsigned long long v) { return Cycles(static_cast<double>(v)); }
constexpr Nanojoules operator""_nj(long double v) { return Nanojoules(static_cast<double>(v)); }
constexpr Nanojoules operator""_nj(unsigned long long v) { return Nanojoules(static_cast<double>(v)); }
constexpr Watts operator""_w(long double v) { return Watts(static_cast<double>(v)); }
constexpr Watts operator""_w(unsigned long long v) { return Watts(static_cast<double>(v)); }
constexpr SquareMillimeters operator""_mm2(long double v) { return SquareMillimeters(static_cast<double>(v)); }
constexpr SquareMillimeters operator""_mm2(unsigned long long v) { return SquareMillimeters(static_cast<double>(v)); }
constexpr Seconds operator""_s(long double v) { return Seconds(static_cast<double>(v)); }
constexpr Milliseconds operator""_ms(long double v) { return Milliseconds(static_cast<double>(v)); }
}  // namespace literals

/// Unit symbol ("cycles", "nJ", "W", "mm^2", ...) for a named quantity;
/// formatting helpers live in units.cpp.
const char* symbol(Cycles);
const char* symbol(Seconds);
const char* symbol(Milliseconds);
const char* symbol(Nanoseconds);
const char* symbol(Joules);
const char* symbol(Nanojoules);
const char* symbol(Picojoules);
const char* symbol(Watts);
const char* symbol(Milliwatts);
const char* symbol(SquareMillimeters);
const char* symbol(Flops);
const char* symbol(Bytes);
const char* symbol(FlopsPerSecond);
const char* symbol(FlopsPerJoule);

/// "12.34 W"-style rendering (value in the quantity's own unit).
std::string to_string(Cycles q);
std::string to_string(Seconds q);
std::string to_string(Milliseconds q);
std::string to_string(Nanojoules q);
std::string to_string(Picojoules q);
std::string to_string(Watts q);
std::string to_string(Milliwatts q);
std::string to_string(SquareMillimeters q);
std::string to_string(Flops q);
std::string to_string(FlopsPerSecond q);

}  // namespace lac::units
