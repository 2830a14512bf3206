// Byte-identity pin for the cycle-exact backend. Every registered kernel
// kind runs through SimExecutor over a grid of core configs, operand sizes,
// bandwidths and (for GEMM) both overlap modes; everything the simulator
// decides -- outputs, pivots, taus, the norm, cycles, utilization and the
// sim::Stats activity counters -- is folded into one FNV-1a digest per
// (kind, config), doubles by bit pattern. A simulator speed-up must leave
// every digest unchanged.
//
// Left out: energy (priced with std::pow) and FFT spectra (twiddles from
// std::cos / std::sin), whose last bit may vary with the libm version;
// their inputs, the stats and cycles, are pinned here anyway.
//
// The digests hold for builds that do not contract `a * b + c` into a
// fused multiply-add: the default x86-64 flags. A -march=native build (or
// any target whose baseline ISA has FMA, under GCC's default
// -ffp-contract=fast) changes output bits and fails this test.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "arch/presets.hpp"
#include "fabric/kernel_registry.hpp"
#include "fabric/sim_executor.hpp"

namespace lac::fabric {
namespace {

constexpr std::size_t kConfigs = 4;

std::array<arch::CoreConfig, kConfigs> golden_configs() {
  arch::CoreConfig ports = arch::lac_4x4_dp();
  ports.pe.mem_b_ports = 3;
  ports.pe.mem_a_ports = 2;
  ports.pe.pipeline_stages = 7;
  ports.sfu = arch::SfuOption::Software;
  arch::CoreConfig bus = arch::lac_4x4_dp();
  bus.bus_latency = 2;
  bus.sfu = arch::SfuOption::DiagonalPEs;
  bus.pe.extensions.comparator = true;
  return {arch::lac_4x4_dp(), arch::lac_8x8_dp(), ports, bus};
}

/// Digests by kind name, one column per golden_configs() entry: the 4x4
/// baseline, the 8x8 core, 3-port MEM-B / 2-port MEM-A / 7 stages /
/// software SFU, and bus latency 2 / diagonal-PE SFU / comparator.
struct Golden {
  const char* kind;
  std::array<std::uint64_t, kConfigs> digest;
};

constexpr Golden kGolden[] = {
    {"GEMM", {0xfa7821a0f2873cceull, 0x50bf26ccf0652254ull, 0x21e3b06dc09a7e0aull, 0xf7ecc74efc528c06ull}},
    {"SYRK", {0x5fac3773ee01337full, 0x7761f318aa8b0fc9ull, 0x0af1270a48bbeda1ull, 0x5c16d50de44956bfull}},
    {"SYR2K", {0x652543b8548a1493ull, 0x5c6769862144fb2dull, 0xe7f03c682bfe3578ull, 0xff2fd0dc805b5820ull}},
    {"TRSM", {0xe823577557e1d046ull, 0x7898ca2ef9941535ull, 0x2bc5bcd91ded047bull, 0x0073e5b423720cd8ull}},
    {"CHOL", {0xfa0cbad4e5344e14ull, 0x094d2d57be53cc0full, 0x5c9c87ab6cbb1999ull, 0x64ff0bfc0abae085ull}},
    {"LU", {0xfb04c2a59a908046ull, 0x21ab65a971beba2bull, 0xe8ef33fb796e7b63ull, 0x38ddf06a810d453aull}},
    {"QR", {0x49d30451ee849d0dull, 0xece13cae697c566dull, 0x25f31af2c3bb253aull, 0xa5a71e626bac379bull}},
    {"VNORM", {0x2a599800fc875634ull, 0x5e0d438b13f56667ull, 0x980c813084bb1929ull, 0x4f3812831c0d7666ull}},
    {"CHIP_GEMM", {0x46c96ac48f5e81dcull, 0x2eef183b6088a511ull, 0x268b456e0748cf5bull, 0x46c96ac48f5e81dcull}},
    {"FFT", {0x38d5338f9e169c5full, 0xc5f85ee1a85bcf45ull, 0x224fa0935d8bdeaeull, 0x8716fa1aa8b6733bull}},
};

class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

void add_result(Digest& d, const KernelResult& r) {
  d.add(static_cast<std::uint64_t>(r.ok));
  d.add(static_cast<std::int64_t>(r.out.rows()));
  d.add(static_cast<std::int64_t>(r.out.cols()));
  for (index_t i = 0; i < r.out.rows(); ++i)
    for (index_t j = 0; j < r.out.cols(); ++j) d.add(r.out(i, j));
  d.add(static_cast<std::uint64_t>(r.pivots.size()));
  for (index_t p : r.pivots) d.add(static_cast<std::int64_t>(p));
  d.add(static_cast<std::uint64_t>(r.taus.size()));
  for (double t : r.taus) d.add(t);
  d.add(r.scalar);
  d.add(r.cycles.value());
  d.add(r.utilization);
  const sim::Stats& s = r.stats;
  for (std::int64_t v : {s.mac_ops, s.mul_ops, s.cmp_ops, s.mem_a_reads,
                         s.mem_a_writes, s.mem_b_reads, s.mem_b_writes,
                         s.rf_reads, s.rf_writes, s.row_bus_xfers,
                         s.col_bus_xfers, s.sfu_ops, s.dma_words})
    d.add(v);
}

std::uint64_t digest_kind(KernelKind kind, const arch::CoreConfig& cfg) {
  const SimExecutor sim;
  const KernelTraits& t = kernel_traits(kind);
  Digest d;
  for (index_t n : {16, 32, 64})
    for (double bw : {0.5, 2.0, 3.0}) {
      // 3 words/cycle makes transfer times that are not dyadic fractions.
      std::vector<model::Overlap> overlaps{model::Overlap::Partial};
      if (kind == KernelKind::Gemm) overlaps.push_back(model::Overlap::Full);
      for (model::Overlap ov : overlaps) {
        KernelRequest req = t.sized_request(cfg, bw, n, 2013);
        req.overlap = ov;
        add_result(d, sim.execute(req));
      }
    }
  return d.value();
}

TEST(SimGolden, EveryKindMatchesPinnedDigests) {
  const auto cfgs = golden_configs();
  std::string table;
  bool all_match = true;
  for (KernelKind kind : registered_kernel_kinds()) {
    const char* name = to_string(kind);
    const Golden* pinned = nullptr;
    for (const Golden& g : kGolden)
      if (std::string(g.kind) == name) pinned = &g;
    char row[160];
    std::snprintf(row, sizeof row, "    {\"%s\", {", name);
    table += row;
    for (std::size_t c = 0; c < kConfigs; ++c) {
      const std::uint64_t got = digest_kind(kind, cfgs[c]);
      if (!pinned || pinned->digest[c] != got) all_match = false;
      std::snprintf(row, sizeof row, "%s0x%016" PRIx64 "ull", c ? ", " : "", got);
      table += row;
    }
    table += "}},\n";
  }
  EXPECT_TRUE(all_match)
      << "simulator output changed; if intended, paste as kGolden:\n"
      << table;
}

/// Long rank-1 sweeps, where the bulk close of a regular row
/// (StreamSchedule::rank1_update) covers almost every step: n = 128 on the
/// 4x4 core at an on-grid (2) and an off-grid (3 words/cycle) bandwidth,
/// and TRSM on a 16-word MEM-B, whose update no longer fits one sweep, and
/// on a 4-word MEM-B, which holds one panel per sweep.
/// Pinned from the per-step simulator, before any sweep was closed in bulk.
struct LongSweep {
  KernelKind kind;
  double bw;
  index_t n;
  double mem_b_kbytes;  ///< 0 keeps the preset's
  std::uint64_t digest;
};

constexpr LongSweep kLongSweeps[] = {
    {KernelKind::Gemm, 2.0, 128, 0.0, 0xce9d3be7fcd7f811ull},
    {KernelKind::Gemm, 3.0, 128, 0.0, 0x5f25da30aa9c1a72ull},
    {KernelKind::Syrk, 2.0, 128, 0.0, 0x09593506cd6f642cull},
    {KernelKind::Syrk, 3.0, 128, 0.0, 0x09829b7e560312dcull},
    {KernelKind::Syr2k, 2.0, 128, 0.0, 0xea2f70a55642833bull},
    {KernelKind::Syr2k, 3.0, 128, 0.0, 0xf249639164bbe4d6ull},
    {KernelKind::Trsm, 2.0, 128, 0.0, 0x4b17e3f3c7658371ull},
    {KernelKind::Trsm, 3.0, 128, 0.0, 0xf11a9e112287c67eull},
    {KernelKind::ChipGemm, 2.0, 128, 0.0, 0xd765cb5906fea94dull},
    {KernelKind::ChipGemm, 3.0, 128, 0.0, 0xd765cb5906fea94dull},
    {KernelKind::Trsm, 2.0, 64, 0.125, 0x80ef9ee0ee3b1ba0ull},
    {KernelKind::Trsm, 2.0, 32, 0.03125, 0x9d75bfeaa7b6bc8bull},
};

TEST(SimGolden, LongSweepsMatchParent) {
  const SimExecutor sim;
  for (const LongSweep& w : kLongSweeps) {
    arch::CoreConfig cfg = arch::lac_4x4_dp();
    if (w.mem_b_kbytes > 0.0) cfg.pe.mem_b_kbytes = w.mem_b_kbytes;
    SCOPED_TRACE(std::string(to_string(w.kind)) + " bw " + std::to_string(w.bw) +
                 " n " + std::to_string(w.n) + " mem_b_kbytes " +
                 std::to_string(w.mem_b_kbytes));
    const KernelResult res =
        sim.execute(kernel_traits(w.kind).sized_request(cfg, w.bw, w.n, 2013));
    EXPECT_TRUE(res.ok) << res.error;
    Digest d;
    add_result(d, res);
    char got[32];
    std::snprintf(got, sizeof got, "0x%016" PRIx64 "ull", d.value());
    EXPECT_EQ(d.value(), w.digest) << "simulator output changed; digest " << got;
  }
}

/// The loops that close in bulk outside rank-1 sweeps: SYRK's and SYR2K's
/// transpose capture (StreamSchedule::capture_transpose) and CHOL's trailing
/// update (kernels::chol_trailing_update), on core sizes, bandwidths,
/// pipeline depths, bus latencies, SFU options and MEM-B port counts the
/// other tables leave out, and CHOL at n = 128 and 192, where most of its
/// steps close. Pinned from the simulator that stepped both loops.
struct ClosedLoop {
  KernelKind kind;
  int nr;
  double bw;
  index_t n;
  int stages;       ///< pe.pipeline_stages
  int bus_latency;
  arch::SfuOption sfu;
  int mem_b_ports;
  std::uint64_t digest;
};

constexpr arch::SfuOption kIso = arch::SfuOption::IsolatedUnit;

constexpr ClosedLoop kClosedLoops[] = {
    {KernelKind::Cholesky, 4, 0.5, 128, 5, 1, kIso, 2, 0xbb0f6289948feab6ull},
    {KernelKind::Cholesky, 4, 2.0, 128, 5, 1, kIso, 2, 0x6c994a4c390f6777ull},
    {KernelKind::Cholesky, 4, 3.0, 128, 5, 1, kIso, 2, 0x09acb53cfd865c18ull},
    {KernelKind::Cholesky, 4, 2.0, 192, 5, 1, kIso, 2, 0xd1f1904ab3ac1d4dull},
    {KernelKind::Cholesky, 4, 2.0, 64, 1, 1, kIso, 2, 0xa4344f7992853eceull},
    {KernelKind::Cholesky, 4, 2.0, 64, 7, 1, kIso, 2, 0x57fd0c7e9727809bull},
    {KernelKind::Cholesky, 4, 2.0, 64, 5, 2, kIso, 2, 0x48a2f9f531b17feaull},
    {KernelKind::Cholesky, 4, 2.0, 64, 5, 1, arch::SfuOption::Software, 2, 0xc7794148be61e3ceull},
    {KernelKind::Cholesky, 4, 2.0, 64, 5, 1, arch::SfuOption::DiagonalPEs, 2,
     0x14f780732dc306c6ull},
    {KernelKind::Cholesky, 2, 2.0, 24, 5, 1, kIso, 2, 0x9e980a741535e3adull},
    {KernelKind::Cholesky, 3, 2.0, 36, 5, 1, kIso, 2, 0x7de48f71e1a5b35cull},
    {KernelKind::Cholesky, 6, 2.0, 72, 5, 1, kIso, 2, 0xf9e09e71366af169ull},
    {KernelKind::Syrk, 2, 2.0, 24, 5, 1, kIso, 2, 0x5c14611e48a70876ull},
    {KernelKind::Syrk, 3, 0.5, 36, 5, 1, kIso, 2, 0x47d167777fecde88ull},
    {KernelKind::Syrk, 3, 2.0, 36, 5, 1, kIso, 2, 0x6a578050f880f9feull},
    {KernelKind::Syrk, 3, 3.0, 36, 5, 1, kIso, 2, 0x9e0f27a0381b3cb7ull},
    {KernelKind::Syrk, 5, 2.0, 60, 5, 1, kIso, 2, 0x2c139f6943fe1d19ull},
    {KernelKind::Syrk, 6, 2.0, 72, 5, 1, kIso, 2, 0xee4b0cd89b58012dull},
    {KernelKind::Syrk, 4, 2.0, 64, 1, 1, kIso, 2, 0x8d4146d33575c954ull},
    {KernelKind::Syrk, 4, 2.0, 64, 7, 1, kIso, 2, 0x8cf662f70758deaaull},
    {KernelKind::Syrk, 4, 2.0, 64, 5, 2, kIso, 2, 0x438dd5b2beff969full},
    {KernelKind::Syrk, 4, 2.0, 64, 5, 1, kIso, 1, 0x9226fa66c9f37fbcull},
    {KernelKind::Syrk, 4, 2.0, 64, 5, 1, kIso, 3, 0x9226fa66c9f37fbcull},
    {KernelKind::Syr2k, 2, 2.0, 24, 5, 1, kIso, 2, 0x879da324afd68a6cull},
    {KernelKind::Syr2k, 3, 0.5, 36, 5, 1, kIso, 2, 0x213211ad7fbdace9ull},
    {KernelKind::Syr2k, 3, 2.0, 36, 5, 1, kIso, 2, 0x80503d5ca6617a90ull},
    {KernelKind::Syr2k, 3, 3.0, 36, 5, 1, kIso, 2, 0x3c5e41736f6cb393ull},
    {KernelKind::Syr2k, 5, 2.0, 60, 5, 1, kIso, 2, 0x7d61b4382eccc596ull},
    {KernelKind::Syr2k, 6, 2.0, 72, 5, 1, kIso, 2, 0x50420adc915ca00dull},
    {KernelKind::Syr2k, 4, 2.0, 64, 1, 1, kIso, 2, 0x86c58254441fa588ull},
    {KernelKind::Syr2k, 4, 2.0, 64, 7, 1, kIso, 2, 0xd2c141cae0087c59ull},
    {KernelKind::Syr2k, 4, 2.0, 64, 5, 2, kIso, 2, 0x99e29e1c65adf5b1ull},
    {KernelKind::Syr2k, 4, 2.0, 64, 5, 1, kIso, 1, 0xb324debfaf02f2ddull},
    {KernelKind::Syr2k, 4, 2.0, 64, 5, 1, kIso, 3, 0x91f08fb4c6ef2ad5ull},
};

TEST(SimGolden, ClosedLoopsMatchParent) {
  const SimExecutor sim;
  std::string table;
  bool all_match = true;
  for (const ClosedLoop& w : kClosedLoops) {
    arch::CoreConfig cfg = arch::lac_4x4_dp();
    cfg.nr = w.nr;
    cfg.pe.pipeline_stages = w.stages;
    cfg.bus_latency = w.bus_latency;
    cfg.sfu = w.sfu;
    cfg.pe.mem_b_ports = w.mem_b_ports;
    const KernelResult res =
        sim.execute(kernel_traits(w.kind).sized_request(cfg, w.bw, w.n, 2013));
    EXPECT_TRUE(res.ok) << to_string(w.kind) << " n " << w.n << ": " << res.error;
    Digest d;
    add_result(d, res);
    if (d.value() != w.digest) all_match = false;
    char row[64];
    std::snprintf(row, sizeof row, "0x%016" PRIx64 "ull", d.value());
    table += std::string(to_string(w.kind)) + " nr " + std::to_string(w.nr) + " bw " +
             std::to_string(w.bw) + " n " + std::to_string(w.n) + ": " + row + "\n";
  }
  EXPECT_TRUE(all_match) << "simulator output changed; digests in table order:\n" << table;
}

}  // namespace
}  // namespace lac::fabric
