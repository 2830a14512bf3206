#include "sim/core.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "arch/presets.hpp"
#include "sim/arena.hpp"
#include "sim/chip.hpp"

namespace lac::sim {
namespace {

arch::CoreConfig cfg() { return arch::lac_4x4_dp(); }

TEST(CoreSim, BroadcastBusSerializesPerRow) {
  Core core(cfg(), 4.0);
  TimedVal a = core.broadcast_row(0, at(1.0, 0.0));
  TimedVal b = core.broadcast_row(0, at(2.0, 0.0));
  TimedVal c = core.broadcast_row(1, at(3.0, 0.0));
  EXPECT_DOUBLE_EQ(a.ready, 1.0);
  EXPECT_DOUBLE_EQ(b.ready, 2.0);  // same bus: next slot
  EXPECT_DOUBLE_EQ(c.ready, 1.0);  // different bus: parallel
  EXPECT_EQ(core.stats().row_bus_xfers, 3);
}

TEST(CoreSim, DmaHonorsBandwidth) {
  Core core(cfg(), 2.0);  // 2 words/cycle
  const time_t_ t1 = core.dma(16.0, 0.0);
  EXPECT_DOUBLE_EQ(t1, 8.0);
  const time_t_ t2 = core.dma(4.0, 0.0);  // queued behind the first
  EXPECT_DOUBLE_EQ(t2, 10.0);
  EXPECT_EQ(core.stats().dma_words, 20);
}

TEST(CoreSim, LocalStoreSizesFollowConfig) {
  Core core(cfg(), 1.0);
  // 16 KB / 8 B = 2048 words MEM-A; 2 KB -> 256 words MEM-B.
  EXPECT_EQ(core.pe(0, 0).mem_a.size(), 2048);
  EXPECT_EQ(core.pe(0, 0).mem_b.size(), 256);
  EXPECT_EQ(core.pe(0, 0).mem_a.ports(), 1);
  EXPECT_EQ(core.pe(0, 0).mem_b.ports(), 2);
}

TEST(CoreSim, MemAPortContention) {
  Core core(cfg(), 1.0);
  LocalStore& m = core.pe(0, 0).mem_a;
  m.poke(0, 1.0);
  m.poke(1, 2.0);
  TimedVal a = m.read(0, 0.0);
  TimedVal b = m.read(1, 0.0);
  EXPECT_DOUBLE_EQ(a.ready, 1.0);
  EXPECT_DOUBLE_EQ(b.ready, 2.0);  // single port: one access/cycle
  LocalStore& mb = core.pe(0, 0).mem_b;
  mb.poke(0, 1.0);
  mb.poke(1, 2.0);
  TimedVal c = mb.read(0, 0.0);
  TimedVal d = mb.read(1, 0.0);
  EXPECT_DOUBLE_EQ(c.ready, 1.0);  // dual ported: two accesses/cycle
  EXPECT_DOUBLE_EQ(d.ready, 1.5);
}

TEST(CoreSim, SpecialFunctionLatencies) {
  arch::CoreConfig c = cfg();
  c.sfu = arch::SfuOption::IsolatedUnit;
  Core core(c, 1.0);
  TimedVal r = core.special(SfuKind::Recip, 1, 2, at(4.0, 0.0));
  EXPECT_DOUBLE_EQ(r.v, 0.25);
  // Row hop + unit latency + column hop.
  EXPECT_GE(r.ready, c.sfu_latency_recip + 2.0);
  EXPECT_EQ(core.stats().sfu_ops, 1);
}

TEST(CoreSim, SoftwareSfuOccupiesPeMac) {
  arch::CoreConfig c = cfg();
  c.sfu = arch::SfuOption::Software;
  Core core(c, 1.0);
  TimedVal r = core.special(SfuKind::Recip, 0, 0, at(2.0, 0.0));
  EXPECT_DOUBLE_EQ(r.v, 0.5);
  // The PE's MAC was blocked for the emulation cycles.
  TimedVal m = core.pe(0, 0).mac.mul(at(1.0, 0.0), at(1.0, 0.0));
  EXPECT_GE(m.ready - c.pe.pipeline_stages, c.sw_emulation_cycles);
}

TEST(CoreSim, DiagonalSfuLocalVsRouted) {
  arch::CoreConfig c = cfg();
  c.sfu = arch::SfuOption::DiagonalPEs;
  Core core(c, 1.0);
  TimedVal local = core.special(SfuKind::Recip, 1, 1, at(2.0, 0.0));
  Core core2(c, 1.0);
  TimedVal routed = core2.special(SfuKind::Recip, 1, 3, at(2.0, 0.0));
  EXPECT_LT(local.ready, routed.ready);  // off-diagonal pays the bus hops
}

TEST(CoreSim, FinishTimeCoversAllResources) {
  Core core(cfg(), 1.0);
  core.dma(10.0, 0.0);
  core.broadcast_col(3, at(1.0, 4.0));
  core.pe(2, 2).mac.mul(at(1.0, 0.0), at(1.0, 0.0));
  EXPECT_GE(core.finish_time(), 10.0);
}

TEST(ChipSim, SharedBandwidthPartitionedAcrossCores) {
  arch::ChipConfig cc = arch::lap_s8();
  cc.cores = 2;
  cc.onchip_bw_words_per_cycle = 4.0;
  Chip chip(cc);
  // Static banking: each core owns a 2 words/cycle channel, so concurrent
  // transfers proceed in parallel at the per-core rate.
  const time_t_ t0 = chip.shared_dma(0, 16.0, 0.0);
  const time_t_ t1 = chip.shared_dma(1, 16.0, 0.0);
  EXPECT_DOUBLE_EQ(t0, 8.0);  // 16 words / (4/2) wpc
  EXPECT_DOUBLE_EQ(t1, 8.0);  // parallel, not queued behind core 0
  // A second transfer on the same core queues behind its own channel.
  EXPECT_DOUBLE_EQ(chip.shared_dma(0, 8.0, 0.0), 12.0);
  EXPECT_GE(chip.finish_time(), 12.0);
}

TEST(ChipSim, OffchipInterfaceIndependent) {
  arch::ChipConfig cc = arch::lap_s8();
  cc.offchip_bw_words_per_cycle = 1.0;
  Chip chip(cc);
  EXPECT_DOUBLE_EQ(chip.offchip_dma(8.0, 0.0), 8.0);
  EXPECT_DOUBLE_EQ(chip.offchip_dma(8.0, 0.0), 16.0);
  EXPECT_EQ(chip.stats().dma_words, 16);
}

TEST(CoreSim, ResetRestoresFreshConstructedState) {
  // Dirty a core thoroughly -- bus slots, the memory interface, local-store
  // contents, activity counters -- under one (bandwidth, accumulators)
  // point, then reset() it to another. It must be indistinguishable from a
  // never-used core: this is the contract SimArena's pooling relies on for
  // the serving determinism guarantee.
  Core used(cfg(), 4.0, 2);
  used.broadcast_row(0, at(1.0, 0.0));
  used.broadcast_col(1, at(2.0, 0.0));
  used.dma(64.0, 0.0);
  used.pe(1, 2).mem_a.poke(7, 3.5);
  used.pe(0, 0).mem_b.poke(0, -1.0);
  used.pe(3, 3).rf.write(0, at(9.0, 0.0));
  // The last word of each store: reset() clears only words marked written,
  // so an untimed poke and a timed write must both mark theirs.
  LocalStore& last_a = used.pe(2, 1).mem_a;
  LocalStore& last_b = used.pe(2, 1).mem_b;
  last_a.poke(last_a.size() - 1, 4.25);
  last_b.write(last_b.size() - 1, -2.5, 0.0);
  used.reset(2.0, 4);

  Core fresh(cfg(), 2.0, 4);
  EXPECT_EQ(used.stats().row_bus_xfers, 0);
  EXPECT_EQ(used.stats().dma_words, 0);
  EXPECT_DOUBLE_EQ(used.finish_time(), fresh.finish_time());
  EXPECT_DOUBLE_EQ(used.pe(1, 2).mem_a.read(7, 0.0).v, 0.0);  // zeroed store
  EXPECT_DOUBLE_EQ(used.pe(0, 0).mem_b.read(0, 0.0).v, 0.0);
  EXPECT_DOUBLE_EQ(last_a.read(last_a.size() - 1, 0.0).v, 0.0);
  EXPECT_DOUBLE_EQ(last_b.read(last_b.size() - 1, 0.0).v, 0.0);
  // Replay one op sequence on both; timings must agree exactly (no
  // residual bus or interface occupancy survives the reset).
  for (Core* c : {&used, &fresh}) {
    c->broadcast_row(0, at(1.0, 0.0));
    c->dma(16.0, 0.0);
  }
  EXPECT_DOUBLE_EQ(used.broadcast_row(0, at(2.0, 0.0)).ready,
                   fresh.broadcast_row(0, at(2.0, 0.0)).ready);
  EXPECT_DOUBLE_EQ(used.dma(4.0, 0.0), fresh.dma(4.0, 0.0));
  EXPECT_DOUBLE_EQ(used.finish_time(), fresh.finish_time());
}

TEST(SimArena, PooledCoreIsReusedOnlyForMatchingConfig) {
  SimArena& arena = SimArena::local();
  Core* first = nullptr;
  {
    ArenaCore core(cfg(), 4.0);
    first = &core.get();
    core.get().dma(32.0, 0.0);  // dirty it before release
  }
  EXPECT_GE(arena.pooled(), 1u);
  {
    // Same config: the pooled instance comes back, reset to fresh state.
    ArenaCore core(cfg(), 2.0);
    EXPECT_EQ(&core.get(), first);
    EXPECT_EQ(core.get().stats().dma_words, 0);
    EXPECT_DOUBLE_EQ(core.get().bw_words_per_cycle(), 2.0);
  }
  // Any config difference must miss the pool: each of the 17 CoreConfig
  // fields changed alone.
  using Edit = void (*)(arch::CoreConfig&);
  const std::pair<const char*, Edit> edits[] = {
      {"nr", [](arch::CoreConfig& c) { c.nr = 8; }},
      {"pe.precision", [](arch::CoreConfig& c) { c.pe.precision = Precision::Single; }},
      {"pe.pipeline_stages", [](arch::CoreConfig& c) { c.pe.pipeline_stages += 1; }},
      {"pe.clock_ghz", [](arch::CoreConfig& c) { c.pe.clock_ghz *= 2.0; }},
      {"pe.mem_a_kbytes", [](arch::CoreConfig& c) { c.pe.mem_a_kbytes *= 2.0; }},
      {"pe.mem_a_ports", [](arch::CoreConfig& c) { c.pe.mem_a_ports += 1; }},
      {"pe.mem_b_kbytes", [](arch::CoreConfig& c) { c.pe.mem_b_kbytes *= 2.0; }},
      {"pe.mem_b_ports", [](arch::CoreConfig& c) { c.pe.mem_b_ports += 1; }},
      {"pe.register_file_entries",
       [](arch::CoreConfig& c) { c.pe.register_file_entries += 1; }},
      {"pe.extensions.comparator",
       [](arch::CoreConfig& c) { c.pe.extensions.comparator = true; }},
      {"pe.extensions.extended_exponent",
       [](arch::CoreConfig& c) { c.pe.extensions.extended_exponent = true; }},
      {"bus_latency", [](arch::CoreConfig& c) { c.bus_latency += 1; }},
      {"sfu", [](arch::CoreConfig& c) { c.sfu = arch::SfuOption::Software; }},
      {"sfu_latency_recip", [](arch::CoreConfig& c) { c.sfu_latency_recip += 1; }},
      {"sfu_latency_rsqrt", [](arch::CoreConfig& c) { c.sfu_latency_rsqrt += 1; }},
      {"sfu_latency_sqrt", [](arch::CoreConfig& c) { c.sfu_latency_sqrt += 1; }},
      {"sw_emulation_cycles", [](arch::CoreConfig& c) { c.sw_emulation_cycles += 1; }},
  };
  for (const auto& [field, edit] : edits) {
    arch::CoreConfig other = cfg();
    edit(other);
    ArenaCore core(other, 4.0);
    EXPECT_NE(&core.get(), first) << field;
  }
}

}  // namespace
}  // namespace lac::sim
