// StreamSchedule::rank1_update times one lead per group of lock-step PEs
// in a row and lets the rest follow, and closes a row's remaining steps in
// bulk once the row is regular (sim/engine.hpp). This test keeps the
// per-PE, per-step sweep -- every PE's MEM-B read and MAC timed on its own
// -- as the reference, knocks chosen PEs out of step so rows hold from one
// lead to nr, varies every time the close sums (ports, bus latency, gates
// on and off the quarter-cycle grid, rows that turn regular late), and
// requires the two to agree bit for bit on everything observable,
// NaN and signed-zero values included. The transpose capture
// (StreamSchedule::capture_transpose) is held against the loops the SYRK
// and SYR2K kernels stepped the same way.
#include "fabric/stream_schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "arch/presets.hpp"
#include "common/random.hpp"

namespace lac::fabric {
namespace {

using sim::at;
using sim::Core;
using sim::Pe;
using sim::TimedVal;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

struct Sweep {
  int parity = 0;
  index_t a_base = 5;
  index_t rows = 0;
  index_t row0 = 0;
  index_t p_begin = 3;
  index_t p_end = 0;
  index_t slot = 2;
  sim::time_t_ gate = 0.0;
  bool negate = false;
};

void reference_rank1(Core& core, const Sweep& w) {
  const int nr = core.nr();
  for (index_t p = w.p_begin; p < w.p_end; ++p) {
    const int owner = static_cast<int>(p % nr);
    for (int r = 0; r < nr; ++r) {
      TimedVal av = core.pe(r, owner).mem_a.read(
          w.a_base + mem_a_addr(w.row0 + r, p, w.rows, nr), w.gate);
      if (w.negate) av.v = -av.v;
      const TimedVal a_bcast = core.broadcast_row(r, av);
      for (int c = 0; c < nr; ++c) {
        Pe& pe = core.pe(r, c);
        const TimedVal bv = pe.mem_b.read(w.slot + (p - w.p_begin), w.gate);
        pe.mac.mac_into_acc(w.parity, a_bcast, bv);
      }
    }
  }
}

/// Fill both accumulators and the local stores, then knock PEs out of
/// step. Row r holds up to 1 + r % nr lock-step groups; class 0 is left
/// alone and class k > 0 gets one of four knocks, so groups differ in
/// MEM-B port time, issue port and accumulator time, accumulator ready
/// time only, or issue-port busy time only (same next-free time).
///
/// `late` sets each row up so that one condition of a regular row decides
/// when it closes (r % 5): the bus and every MAC run ahead of the gate, so
/// the row is regular at once and the gate binds its reads; the bus runs
/// far ahead of the MACs; the bus and one MEM-A port run past the gate, so
/// the row turns regular only after some steps; one lead's MEM-B port runs
/// past its MAC; one lead's accumulator chain runs past its issue port.
/// `special` puts a NaN into one broadcast word of each even row (negating
/// it flips its sign bit) and gives one PE of each odd row an all -0.0
/// MEM-B stream and accumulator, so every sum it makes is a signed zero.
void prepare(Core& core, const Sweep& w, std::uint64_t seed, bool late, bool special) {
  Rng rng(seed);
  const int nr = core.nr();
  const int parity = w.parity;
  for (int r = 0; r < nr; ++r)
    for (int c = 0; c < nr; ++c) {
      Pe& pe = core.pe(r, c);
      for (index_t i = 0; i < 128; ++i) pe.mem_a.poke(i, rng.uniform(-1.0, 1.0));
      for (index_t i = 0; i < 80; ++i) pe.mem_b.poke(i, rng.uniform(-1.0, 1.0));
      for (int acc = 0; acc < 2; ++acc) pe.mac.set_acc(acc, at(rng.uniform(-1.0, 1.0), 3.0));
      // The other accumulator's timing must survive the sweep untouched.
      if (rng.next_index(2) == 0)
        pe.mac.set_acc(1 - parity, at(0.5, 9.0 + static_cast<double>(c)));

      const int k = static_cast<int>(rng.next_index(static_cast<std::uint64_t>(1 + r % nr)));
      if (k == 0) continue;
      switch (k % 4) {
        case 0:
          for (int i = 0; i < k; ++i) pe.mem_b.read(0, 0.0);
          break;
        case 1:
          for (int i = 0; i < k; ++i) pe.mac.mac_into_acc(parity, at(0.5, 0.0), at(0.25, 0.0));
          break;
        case 2:
          pe.mac.set_acc(parity, at(pe.mac.read_acc(parity).v, 3.0 + k));
          break;
        case 3:
          for (int i = 0; i < k; ++i) pe.mac.mul(at(1.0, 0.0), at(1.0, 0.0));
          pe.mac.mul(at(1.0, 0.0), at(1.0, 0.0), 60.0);
          break;
      }
    }
  const index_t steps = w.p_end - w.p_begin;
  for (int r = 0; r < nr; ++r) {
    if (late) {
      const sim::time_t_ g = w.gate;
      const auto chain_all = [&](sim::time_t_ t) {
        for (int c = 0; c < nr; ++c)
          core.pe(r, c).mac.mac_into_acc(parity, at(0.5, t), at(0.25, 0.0));
      };
      switch (r % 5) {
        case 0:
          core.broadcast_row(r, at(0.0, g + 1.0 + r));
          chain_all(g + 8.0 + r);
          break;
        case 1:
          core.broadcast_row(r, at(0.0, g + 20.0 + r));
          break;
        case 2:
          core.broadcast_row(r, at(0.0, g + 2.0 + r));
          core.pe(r, (r + 1) % nr).mem_a.read(0, g + 6.0 + 2.0 * r);
          break;
        case 3:
          core.broadcast_row(r, at(0.0, g + 1.0));
          chain_all(g + 8.0);
          core.pe(r, 0).mem_b.read(0, g + 30.0);
          break;
        case 4: {
          core.broadcast_row(r, at(0.0, g + 1.0));
          chain_all(g + 8.0);
          Pe& pe = core.pe(r, nr - 1);
          pe.mac.set_acc(parity, at(pe.mac.read_acc(parity).v, g + 50.0));
          break;
        }
      }
    }
    if (!special) continue;
    if (r % 2 == 0) {
      const index_t p = w.p_begin + steps / 2;
      core.pe(r, static_cast<int>(p % nr))
          .mem_a.poke(w.a_base + mem_a_addr(w.row0 + r, p, w.rows, nr),
                      r % 4 == 0 ? std::numeric_limits<double>::quiet_NaN()
                                 : -std::numeric_limits<double>::quiet_NaN());
    } else {
      Pe& pe = core.pe(r, (r + 2) % nr);
      for (index_t s = 0; s < steps; ++s) pe.mem_b.poke(w.slot + s, -0.0);
      pe.mac.set_acc(parity, at(-0.0, pe.mac.read_acc(parity).ready));
      const index_t p = w.p_begin + steps / 3;
      core.pe(r, static_cast<int>(p % nr))
          .mem_a.poke(w.a_base + mem_a_addr(w.row0 + r, p, w.rows, nr), -0.0);
    }
  }
}

void expect_same_stats(const sim::Stats& a, const sim::Stats& b) {
  EXPECT_EQ(a.mac_ops, b.mac_ops);
  EXPECT_EQ(a.mul_ops, b.mul_ops);
  EXPECT_EQ(a.cmp_ops, b.cmp_ops);
  EXPECT_EQ(a.mem_a_reads, b.mem_a_reads);
  EXPECT_EQ(a.mem_a_writes, b.mem_a_writes);
  EXPECT_EQ(a.mem_b_reads, b.mem_b_reads);
  EXPECT_EQ(a.mem_b_writes, b.mem_b_writes);
  EXPECT_EQ(a.rf_reads, b.rf_reads);
  EXPECT_EQ(a.rf_writes, b.rf_writes);
  EXPECT_EQ(a.row_bus_xfers, b.row_bus_xfers);
  EXPECT_EQ(a.col_bus_xfers, b.col_bus_xfers);
  EXPECT_EQ(a.sfu_ops, b.sfu_ops);
  EXPECT_EQ(a.dma_words, b.dma_words);
  EXPECT_EQ(a.overruns, b.overruns);
}

void expect_same_cores(Core& got, Core& want, int parity) {
  const int nr = got.nr();
  expect_same_stats(got.stats(), want.stats());
  EXPECT_EQ(bits(got.finish_time()), bits(want.finish_time()));
  for (int r = 0; r < nr; ++r)
    for (int c = 0; c < nr; ++c) {
      SCOPED_TRACE("PE (" + std::to_string(r) + ", " + std::to_string(c) + ")");
      Pe& g = got.pe(r, c);
      Pe& w = want.pe(r, c);
      for (int acc = 0; acc < 2; ++acc) {
        EXPECT_EQ(bits(g.mac.read_acc(acc).v), bits(w.mac.read_acc(acc).v)) << acc;
        EXPECT_EQ(bits(g.mac.read_acc(acc).ready), bits(w.mac.read_acc(acc).ready)) << acc;
      }
      EXPECT_EQ(bits(g.mac.issue_port_free()), bits(w.mac.issue_port_free()));
      EXPECT_EQ(bits(g.mac.busy_cycles()), bits(w.mac.busy_cycles()));
      // Follow-up timed accesses expose the port state the sweep left:
      // MEM-A and MEM-B next-free times and the accumulator's chain time.
      EXPECT_EQ(bits(g.mem_a.read(0, 0.0).ready), bits(w.mem_a.read(0, 0.0).ready));
      EXPECT_EQ(bits(g.mem_b.read(0, 0.0).ready), bits(w.mem_b.read(0, 0.0).ready));
      EXPECT_EQ(bits(g.mac.mac_into_acc(parity, at(1.0, 0.0), at(1.0, 0.0))),
                bits(w.mac.mac_into_acc(parity, at(1.0, 0.0), at(1.0, 0.0))));
    }
  for (int i = 0; i < nr; ++i) {
    EXPECT_EQ(bits(got.row_bus(i).busy_cycles()), bits(want.row_bus(i).busy_cycles()))
        << "row bus " << i;
    EXPECT_EQ(bits(got.col_bus(i).busy_cycles()), bits(want.col_bus(i).busy_cycles()))
        << "column bus " << i;
    EXPECT_EQ(bits(got.broadcast_row(i, at(0.0, 0.0)).ready),
              bits(want.broadcast_row(i, at(0.0, 0.0)).ready))
        << "row bus " << i;
    EXPECT_EQ(bits(got.broadcast_col(i, at(0.0, 0.0)).ready),
              bits(want.broadcast_col(i, at(0.0, 0.0)).ready))
        << "column bus " << i;
  }
}

TEST(StreamSchedule, Rank1SweepMatchesPerPeReference) {
  std::uint64_t seed = 1;
  for (int nr : {4, 6, 8})  // 6: the close's four-PE passes leave two over
    for (int ports_b = 1; ports_b <= 3; ++ports_b)
      for (int ports_a : {1, 2})
        for (int latency : {1, 2})
          for (sim::time_t_ gate : {0.0, 7.0 / 3.0, 40.0})
            for (index_t steps : {4, 17, 64})
              for (int parity : {0, 1})
                for (bool negate : {false, true})
                  for (int variant = 0; variant < 3; ++variant) {
                    const bool late = variant == 1;
                    const bool special = variant == 2;
                    arch::CoreConfig cfg = nr == 8 ? arch::lac_8x8_dp() : arch::lac_4x4_dp();
                    cfg.nr = nr;
                    cfg.pe.mem_b_ports = ports_b;
                    cfg.pe.mem_a_ports = ports_a;
                    cfg.bus_latency = latency;
                    // 128 words each: room for prepare(), cheap to build.
                    cfg.pe.mem_a_kbytes = 1.0;
                    cfg.pe.mem_b_kbytes = 1.0;
                    SCOPED_TRACE("nr " + std::to_string(nr) + " MEM-B ports " +
                                 std::to_string(ports_b) + " MEM-A ports " +
                                 std::to_string(ports_a) + " bus latency " +
                                 std::to_string(latency) + " gate " + std::to_string(gate) +
                                 " steps " + std::to_string(steps) + " parity " +
                                 std::to_string(parity) + " negate " +
                                 std::to_string(negate) + " late " + std::to_string(late) +
                                 " special " + std::to_string(special));
                    Sweep w;
                    w.parity = parity;
                    w.rows = 2 * nr;
                    w.row0 = nr;
                    w.p_end = w.p_begin + steps;
                    w.gate = gate;
                    w.negate = negate;
                    Core got(cfg, 2.0, 2);
                    Core want(cfg, 2.0, 2);
                    prepare(got, w, seed, late, special);
                    prepare(want, w, seed, late, special);
                    ++seed;
                    StreamSchedule(got).rank1_update(w.parity, w.a_base, w.rows, w.row0,
                                                     w.p_begin, w.p_end, w.slot, w.gate,
                                                     w.negate);
                    reference_rank1(want, w);
                    expect_same_cores(got, want, parity);
                  }
}

/// One transpose capture (StreamSchedule::capture_transpose's arguments).
struct Capture {
  index_t a_base = 5;
  index_t rows = 0;
  index_t row0 = 0;
  index_t steps = 0;
  index_t slot = 2;
  sim::time_t_ gate = 0.0;
  int mac_parity = StreamSchedule::kCaptureOnly;
};

/// The capture as the kernels stepped it, every PE timed at every step:
/// SYRK's diagonal step (row broadcasts, then per column its re-broadcast,
/// MEM-B writes and chained MACs) and SYR2K's capture (row r's broadcast
/// and column r's re-broadcast together, no MAC).
void reference_capture(Core& core, const Capture& w) {
  const int nr = core.nr();
  if (w.mac_parity != StreamSchedule::kCaptureOnly) {
    std::vector<TimedVal> row_val(static_cast<std::size_t>(nr));
    for (index_t p = 0; p < w.steps; ++p) {
      const int owner = static_cast<int>(p % nr);
      for (int r = 0; r < nr; ++r) {
        TimedVal av = core.pe(r, owner).mem_a.read(
            w.a_base + mem_a_addr(w.row0 + r, p, w.rows, nr), w.gate);
        row_val[static_cast<std::size_t>(r)] = core.broadcast_row(r, av);
      }
      for (int c = 0; c < nr; ++c) {
        TimedVal tv = core.broadcast_col(c, row_val[static_cast<std::size_t>(c)]);
        for (int r = 0; r < nr; ++r) {
          Pe& pe = core.pe(r, c);
          pe.mem_b.write(w.slot + p, tv.v, tv.ready);
          pe.mac.mac_into_acc(w.mac_parity, row_val[static_cast<std::size_t>(r)], tv);
        }
      }
    }
    return;
  }
  for (index_t p = 0; p < w.steps; ++p) {
    const int owner = static_cast<int>(p % nr);
    for (int r = 0; r < nr; ++r) {
      TimedVal av = core.pe(r, owner).mem_a.read(
          w.a_base + mem_a_addr(w.row0 + r, p, w.rows, nr), w.gate);
      TimedVal rv = core.broadcast_row(r, av);
      TimedVal tv = core.broadcast_col(r, rv);
      for (int rr = 0; rr < nr; ++rr) core.pe(rr, r).mem_b.write(w.slot + p, tv.v, tv.ready);
    }
  }
}

/// Fill the stores and both accumulators, knock PEs and buses out of step,
/// then apply the `late` or `special` setup.
///
/// `late` (0 to 5, -1 for none) first runs every bus and MAC ahead, so the
/// mesh is regular at once and the gate binds the closed MEM-A reads (0),
/// then makes one condition of a regular capture fail at first, on mesh
/// index `knob`: a MEM-A port of row i runs past the row bus, so the bus
/// waits for it mid-capture (1); column bus i runs far ahead, so column
/// i's MACs wait for it (2); a MEM-B port of column i runs past the column
/// bus, which with one port it stays ahead of and with more catches up
/// with (3); a MAC's accumulator chain runs past its issue port (4); row
/// bus i runs far ahead of row i's MACs, column bus i and column i's MACs
/// further still (5).
/// `special` puts a NaN (+ or - by seed) into row 0's word at the middle
/// step, and -0.0 into every word of row i and one accumulator of the row
/// for odd i, so its products and sums are signed zeros. One NaN word per
/// capture: where two NaNs of different sign meet in one std::fma, which
/// one the result carries depends on the operand order the compiler picks
/// for the fused multiply-add (see LAC_FMA_CLONES).
void prepare_capture(Core& core, const Capture& w, std::uint64_t seed, int late, int knob,
                     bool special) {
  Rng rng(seed);
  const int nr = core.nr();
  const int parity = w.mac_parity == StreamSchedule::kCaptureOnly ? 0 : w.mac_parity;
  for (int r = 0; r < nr; ++r)
    for (int c = 0; c < nr; ++c) {
      Pe& pe = core.pe(r, c);
      for (index_t i = 0; i < 128; ++i) pe.mem_a.poke(i, rng.uniform(-1.0, 1.0));
      for (index_t i = 0; i < 128; ++i) pe.mem_b.poke(i, rng.uniform(-1.0, 1.0));
      for (int acc = 0; acc < 2; ++acc) pe.mac.set_acc(acc, at(rng.uniform(-1.0, 1.0), 3.0));
      switch (rng.next_index(5)) {
        case 0:
          break;
        case 1:
          pe.mem_b.read(0, static_cast<double>(rng.next_index(8)));
          break;
        case 2:
          pe.mac.mac_into_acc(parity, at(0.5, static_cast<double>(rng.next_index(8))),
                              at(0.25, 0.0));
          break;
        case 3:
          pe.mem_a.read(0, static_cast<double>(rng.next_index(6)));
          break;
        case 4:
          pe.mac.mul(at(1.0, 0.0), at(1.0, 0.0), 10.0 + static_cast<double>(rng.next_index(4)));
          break;
      }
    }
  const auto some_time = [&] { return static_cast<double>(rng.next_index(9)); };
  for (int i = 0; i < nr; ++i) {
    if (rng.next_index(2) == 0) core.broadcast_row(i, at(0.0, some_time()));
    if (rng.next_index(2) == 0) core.broadcast_col(i, at(0.0, some_time()));
  }
  const sim::time_t_ g = w.gate;
  const double latency = core.config().bus_latency;
  const int i = knob % nr;
  if (late >= 0) {
    for (int j = 0; j < nr; ++j) {
      core.broadcast_row(j, at(0.0, g + 10.0 + j));
      core.broadcast_col(j, at(0.0, g + 14.0 + j));
      for (int c = 0; c < nr; ++c)
        core.pe(j, c).mac.mac_into_acc(parity, at(0.5, g + 20.0 + j + c), at(0.25, 0.0));
    }
    switch (late) {
      case 1:
        core.pe(i, nr - 1).mem_a.read(0, g + 30.0);
        break;
      case 2:
        core.broadcast_col(i, at(0.0, g + 60.0));
        break;
      case 3:
        core.pe(0, i).mem_b.read(0, g + 60.0);
        break;
      case 4: {
        Pe& pe = core.pe(i, nr - 1);
        pe.mac.set_acc(parity, at(pe.mac.read_acc(parity).v, g + 70.0));
        break;
      }
      case 5:
        core.broadcast_row(i, at(0.0, g + 60.0));
        core.broadcast_col(i, at(0.0, g + 62.0 + latency));
        for (int j = 0; j < nr; ++j)
          core.pe(j, i).mac.mac_into_acc(parity, at(0.5, g + 70.0 + j), at(0.25, 0.0));
        break;
      default:
        break;
    }
  }
  for (int j = 0; j < nr && special; ++j) {
    if (j == 0) {
      const index_t p = w.steps / 2;
      core.pe(j, static_cast<int>(p % nr))
          .mem_a.poke(w.a_base + mem_a_addr(w.row0 + j, p, w.rows, nr),
                      seed % 2 == 0 ? std::numeric_limits<double>::quiet_NaN()
                                    : -std::numeric_limits<double>::quiet_NaN());
    } else if (j % 2 == 1) {
      for (index_t p = 0; p < w.steps; ++p)
        core.pe(j, static_cast<int>(p % nr))
            .mem_a.poke(w.a_base + mem_a_addr(w.row0 + j, p, w.rows, nr), -0.0);
      Pe& pe = core.pe(j, (j + 2) % nr);
      pe.mac.set_acc(parity, at(-0.0, pe.mac.read_acc(parity).ready));
    }
  }
}

TEST(StreamSchedule, TransposeCaptureMatchesPerPeReference) {
  std::uint64_t seed = 1;
  for (int nr : {2, 3, 4, 5, 6, 8})
    for (int ports_b = 1; ports_b <= 3; ++ports_b)
      for (int ports_a : {1, 2})
        for (int latency : {1, 2})
          for (int stages : {1, 5, 7})
            for (int mac_parity : {StreamSchedule::kCaptureOnly, 0, 1})
              for (int variant = 0; variant < 3; ++variant) {
                // Gates on and off the grid, runs below and above the
                // close's minimum and the late setups, cycled over the
                // configurations.
                const std::uint64_t config = (seed - 1) / 3;
                const sim::time_t_ gate = std::array{0.0, 40.0, 7.0 / 3.0}[config % 3];
                const index_t steps = std::array<index_t, 3>{17, 64, 4}[(config / 3) % 3];
                const int late = variant == 1 ? static_cast<int>((config / 9) % 6) : -1;
                const bool special = variant == 2;
                arch::CoreConfig cfg = arch::lac_4x4_dp();
                cfg.nr = nr;
                cfg.pe.mem_b_ports = ports_b;
                cfg.pe.mem_a_ports = ports_a;
                cfg.pe.pipeline_stages = stages;
                cfg.bus_latency = latency;
                cfg.pe.mem_a_kbytes = 1.0;
                cfg.pe.mem_b_kbytes = 1.0;
                SCOPED_TRACE("nr " + std::to_string(nr) + " MEM-B ports " +
                             std::to_string(ports_b) + " MEM-A ports " +
                             std::to_string(ports_a) + " bus latency " +
                             std::to_string(latency) + " stages " + std::to_string(stages) +
                             " MAC parity " + std::to_string(mac_parity) + " gate " +
                             std::to_string(gate) + " steps " + std::to_string(steps) +
                             " late " + std::to_string(late) + " special " +
                             std::to_string(special));
                Capture w;
                w.rows = 2 * nr;
                w.row0 = nr;
                w.steps = steps;
                w.gate = gate;
                w.mac_parity = mac_parity;
                Core got(cfg, 2.0, 2);
                Core want(cfg, 2.0, 2);
                const int knob = static_cast<int>(config / 54);
                prepare_capture(got, w, seed, late, knob, special);
                prepare_capture(want, w, seed, late, knob, special);
                ++seed;
                StreamSchedule(got).capture_transpose(w.a_base, w.rows, w.row0, w.steps, w.slot,
                                                      w.gate, w.mac_parity);
                reference_capture(want, w);
                for (int r = 0; r < nr; ++r)
                  for (int c = 0; c < nr; ++c)
                    for (index_t i = 0; i < 128; ++i)
                      ASSERT_EQ(bits(got.pe(r, c).mem_b.words()[i]),
                                bits(want.pe(r, c).mem_b.words()[i]))
                          << "MEM-B word " << i << " of PE (" << r << ", " << c << ")";
                expect_same_cores(got, want, std::max(mac_parity, 0));
              }
}

}  // namespace
}  // namespace lac::fabric
