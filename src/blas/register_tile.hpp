#pragma once
// The register tile under the reference BLAS/LAPACK loops (internal to
// src/blas).
//
// A Tile is a 4 x 4 block of accumulators held as eight 2-wide vectors
// (GCC/Clang vector extensions): column c's rows 0-1 in lo[c] and rows 2-3
// in hi[c]. rank1_steps feeds it one rank-1 update per step -- four words
// of a column of the left operand times four words of a row of the right
// one -- so its 16 elements carry 16 independent add chains where a
// per-element loop carries one (the §3.3 PE mesh does the same with one
// accumulator per PE).
//
// Each element still sees exactly what the per-element loop gave it: the
// product left(i, p) * right(p, j) in that operand order, then one add or
// subtract, in ascending p, each rounded on its own. A vector lane rounds
// like a scalar, so every output bit is the per-element loop's (see
// ref_blas.hpp for the contract and its one NaN caveat).
#include <cstring>

#include "common/types.hpp"

namespace lac::blas::detail {

using v2d = double __attribute__((vector_size(16)));

inline v2d load2(const double* p) {
  v2d v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
inline void store2(double* p, v2d v) { std::memcpy(p, &v, sizeof v); }
inline v2d splat(double x) { return v2d{x, x}; }

struct Tile {
  v2d lo[4];  ///< rows 0-1 of column c
  v2d hi[4];  ///< rows 2-3 of column c
};

/// The 4 x 4 block at `c` (column stride `ldc`).
inline Tile load_tile(const double* c, index_t ldc) {
  Tile t;
  for (int j = 0; j < 4; ++j) {
    t.lo[j] = load2(c + j * ldc);
    t.hi[j] = load2(c + j * ldc + 2);
  }
  return t;
}

inline void store_tile(const Tile& t, double* c, index_t ldc) {
  for (int j = 0; j < 4; ++j) {
    store2(c + j * ldc, t.lo[j]);
    store2(c + j * ldc + 2, t.hi[j]);
  }
}

/// `steps` rank-1 updates, p = 0, 1, ...: tile(r, c) += left(r, p) *
/// right(p, c), or -= when kSub. left(r, p) is a[r * a_rs + p * a_ps] and
/// right(p, c) is b[p * b_ps + c * b_cs]; kUnitRows says a_rs == 1, so a
/// column of the left operand is two vector loads.
template <bool kSub, bool kUnitRows>
inline void rank1_steps(Tile& t, const double* a, index_t a_rs, index_t a_ps,
                        const double* b, index_t b_ps, index_t b_cs, index_t steps) {
  // Locals, not the struct's arrays, so the compiler keeps all eight in
  // registers across the loop.
  v2d lo0 = t.lo[0], lo1 = t.lo[1], lo2 = t.lo[2], lo3 = t.lo[3];
  v2d hi0 = t.hi[0], hi1 = t.hi[1], hi2 = t.hi[2], hi3 = t.hi[3];
  for (index_t p = 0; p < steps; ++p, a += a_ps, b += b_ps) {
    const v2d a01 = kUnitRows ? load2(a) : v2d{a[0], a[a_rs]};
    const v2d a23 = kUnitRows ? load2(a + 2) : v2d{a[2 * a_rs], a[3 * a_rs]};
    const v2d b0 = splat(b[0]), b1 = splat(b[b_cs]);
    const v2d b2 = splat(b[2 * b_cs]), b3 = splat(b[3 * b_cs]);
    if constexpr (kSub) {
      lo0 -= a01 * b0;
      hi0 -= a23 * b0;
      lo1 -= a01 * b1;
      hi1 -= a23 * b1;
      lo2 -= a01 * b2;
      hi2 -= a23 * b2;
      lo3 -= a01 * b3;
      hi3 -= a23 * b3;
    } else {
      lo0 += a01 * b0;
      hi0 += a23 * b0;
      lo1 += a01 * b1;
      hi1 += a23 * b1;
      lo2 += a01 * b2;
      hi2 += a23 * b2;
      lo3 += a01 * b3;
      hi3 += a23 * b3;
    }
  }
  t.lo[0] = lo0, t.lo[1] = lo1, t.lo[2] = lo2, t.lo[3] = lo3;
  t.hi[0] = hi0, t.hi[1] = hi1, t.hi[2] = hi2, t.hi[3] = hi3;
}

}  // namespace lac::blas::detail
