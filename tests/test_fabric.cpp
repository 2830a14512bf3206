// The unified fabric execution layer: backend parity (every kernel kind
// through the cycle-exact SimExecutor and the analytical ModelExecutor,
// numerics checked against the host reference and cycle counts
// cross-checked between the backends) plus in-band failure reporting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "arch/presets.hpp"
#include "blas/lap_driver.hpp"
#include "blas/ref_blas.hpp"
#include "blas/ref_lapack.hpp"
#include "common/numeric.hpp"
#include "common/random.hpp"
#include "fabric/kernel_registry.hpp"
#include "fabric/model_executor.hpp"
#include "fabric/sim_executor.hpp"
#include "fft/reference_fft.hpp"

namespace lac::fabric {
namespace {

const SimExecutor kSim;
const ModelExecutor kModel;

/// Relative sim-vs-model cycle tolerance per kernel kind. GEMM uses the
/// 10% of test_sim_vs_model.cpp (the §3.4 closed form is near-exact); the
/// composite kernels use the band the structural models were calibrated to.
double cycle_tolerance(KernelKind kind) {
  return kind == KernelKind::Gemm || kind == KernelKind::ChipGemm ? 0.10 : 0.35;
}

void expect_backend_parity(const KernelRequest& req, const MatrixD& reference,
                           double numeric_tol = 1e-9) {
  KernelResult sim = kSim.execute(req);
  KernelResult model = kModel.execute(req);
  ASSERT_TRUE(sim.ok) << to_string(req.kind) << ": " << sim.error;
  ASSERT_TRUE(model.ok) << to_string(req.kind) << ": " << model.error;
  EXPECT_EQ(sim.backend, "sim");
  EXPECT_EQ(model.backend, "model");
  // Numerics: both backends must reproduce the host reference.
  EXPECT_LT(rel_error(sim.out.view(), reference.view()), numeric_tol)
      << to_string(req.kind) << " sim numerics";
  EXPECT_LT(rel_error(model.out.view(), reference.view()), numeric_tol)
      << to_string(req.kind) << " model numerics";
  // Cycles: the analytical backend must track the cycle-exact one.
  const double tol = cycle_tolerance(req.kind);
  EXPECT_NEAR(sim.cycles.value(), model.cycles.value(), tol * model.cycles.value() + 50.0)
      << to_string(req.kind) << " cycles: sim=" << sim.cycles.value()
      << " model=" << model.cycles.value();
  EXPECT_GT(sim.cycles.value(), 0.0);
  EXPECT_GT(model.cycles.value(), 0.0);
  // Utilization: both backends define it as useful_macs over MAC slots, so
  // the figures must agree within the cycle band (plus a little absolute
  // slack for the short-kernel constant terms).
  EXPECT_GT(sim.utilization, 0.0) << to_string(req.kind);
  EXPECT_GT(model.utilization, 0.0) << to_string(req.kind);
  EXPECT_NEAR(sim.utilization, model.utilization,
              tol * model.utilization + 0.02)
      << to_string(req.kind) << " utilization: sim=" << sim.utilization
      << " model=" << model.utilization;
}

TEST(FabricParity, Gemm) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD a = random_matrix(32, 32, 1);
  MatrixD b = random_matrix(32, 64, 2);
  MatrixD c = random_matrix(32, 64, 3);
  MatrixD ref = c;
  blas::gemm(blas::Trans::No, blas::Trans::No, 1.0, a.view(), b.view(), 1.0,
             ref.view());
  for (double bw : {0.5, 2.0, 8.0})
    expect_backend_parity(make_gemm(cfg, bw, a.view(), b.view(), c.view()), ref);
}

TEST(FabricParity, Syrk) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD a = random_matrix(32, 32, 4);
  MatrixD c = random_matrix(32, 32, 5);
  MatrixD ref = c;
  blas::syrk(blas::Uplo::Lower, 1.0, a.view(), 1.0, ref.view());
  for (double bw : {0.5, 2.0, 8.0})
    expect_backend_parity(make_syrk(cfg, bw, a.view(), c.view()), ref);
}

TEST(FabricParity, Syr2k) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD a = random_matrix(32, 32, 6);
  MatrixD b = random_matrix(32, 32, 7);
  MatrixD c = random_matrix(32, 32, 8);
  MatrixD ref = c;
  blas::syr2k(blas::Uplo::Lower, 1.0, a.view(), b.view(), 1.0, ref.view());
  for (double bw : {0.5, 2.0, 8.0})
    expect_backend_parity(make_syr2k(cfg, bw, a.view(), b.view(), c.view()), ref);
}

TEST(FabricParity, Trsm) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD l = random_lower_triangular(32, 9);
  MatrixD b = random_matrix(32, 32, 10);
  MatrixD ref = b;
  blas::trsm(blas::Side::Left, blas::Uplo::Lower, blas::Trans::No,
             blas::Diag::NonUnit, 1.0, l.view(), ref.view());
  for (double bw : {0.5, 2.0, 8.0})
    expect_backend_parity(make_trsm(cfg, bw, l.view(), b.view()), ref, 1e-8);
}

TEST(FabricParity, Cholesky) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD a = random_spd(32, 11);
  MatrixD ref = a;
  ASSERT_TRUE(blas::cholesky(ref.view()));
  for (index_t j = 1; j < ref.cols(); ++j)
    for (index_t i = 0; i < j; ++i) ref(i, j) = 0.0;
  for (double bw : {0.5, 2.0, 8.0})
    expect_backend_parity(make_cholesky(cfg, bw, a.view()), ref, 1e-8);
}

TEST(FabricParity, LuPanel) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD panel = random_matrix(32, 4, 12);
  MatrixD ref = panel;
  std::vector<index_t> ref_piv;
  ASSERT_TRUE(blas::lu_partial_pivot(ref.view(), ref_piv));
  KernelRequest req = make_lu(cfg, panel.view());
  expect_backend_parity(req, ref, 1e-10);
  // Pivot sequences must agree too (deterministic max-magnitude search).
  KernelResult sim = kSim.execute(req);
  KernelResult model = kModel.execute(req);
  EXPECT_EQ(sim.pivots, ref_piv);
  EXPECT_EQ(model.pivots, ref_piv);
}

TEST(FabricParity, QrPanel) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD panel = random_matrix(32, 4, 13);
  MatrixD ref = panel;
  std::vector<double> ref_taus = blas::qr_householder(ref.view());
  KernelRequest req = make_qr(cfg, panel.view());
  expect_backend_parity(req, ref, 1e-9);
  KernelResult sim = kSim.execute(req);
  ASSERT_EQ(sim.taus.size(), ref_taus.size());
  for (std::size_t i = 0; i < ref_taus.size(); ++i)
    EXPECT_NEAR(sim.taus[i], ref_taus[i], 1e-9 * std::abs(ref_taus[i]) + 1e-12);
}

TEST(FabricParity, Vnorm) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  std::vector<double> x(256);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::sin(0.37 * static_cast<double>(i + 1));
  const double ref = blas::nrm2(static_cast<index_t>(x.size()), x.data());
  KernelRequest req = make_vnorm(cfg, x);
  KernelResult sim = kSim.execute(req);
  KernelResult model = kModel.execute(req);
  ASSERT_TRUE(sim.ok && model.ok);
  EXPECT_NEAR(sim.scalar, ref, 1e-9 * ref);
  EXPECT_NEAR(model.scalar, ref, 1e-12 * ref);
  EXPECT_NEAR(sim.cycles.value(), model.cycles.value(), 0.35 * model.cycles.value() + 50.0);
  // Both backends count one useful MAC per element (guard-pass and
  // reduction slots are overhead), so utilization tracks the cycle band.
  EXPECT_GT(sim.utilization, 0.0);
  EXPECT_GT(model.utilization, 0.0);
  EXPECT_NEAR(sim.utilization, model.utilization,
              0.35 * model.utilization + 0.02);
}

TEST(FabricParity, Fft) {
  // The tenth fabric kernel: pipelined 64-point radix-4 frames on the
  // hybrid core. Both backends must reproduce the radix-4 reference and
  // the analytical cycle/utilization estimates must track the simulated
  // schedule inside the composite-kernel band (<= 35%), like the others.
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  for (std::size_t frames : {1u, 4u, 8u}) {
    const std::vector<std::complex<double>> x =
        random_cplx_vector(64 * frames, 40 + frames);
    for (double bw : {0.5, 2.0, 8.0}) {
      KernelRequest req = make_fft(cfg, bw, x);
      KernelResult sim = kSim.execute(req);
      KernelResult model = kModel.execute(req);
      ASSERT_TRUE(sim.ok) << sim.error;
      ASSERT_TRUE(model.ok) << model.error;
      // Frame-by-frame numerics against the host radix-4 reference.
      ASSERT_EQ(sim.spectrum.size(), x.size());
      ASSERT_EQ(model.spectrum.size(), x.size());
      for (std::size_t f = 0; f < frames; ++f) {
        std::vector<fft::cplx> frame(x.begin() + static_cast<std::ptrdiff_t>(64 * f),
                                     x.begin() + static_cast<std::ptrdiff_t>(64 * (f + 1)));
        const std::vector<fft::cplx> ref = fft::fft_radix4(frame);
        for (std::size_t i = 0; i < 64; ++i) {
          EXPECT_LT(std::abs(sim.spectrum[64 * f + i] - ref[i]), 1e-9) << f << "," << i;
          EXPECT_LT(std::abs(model.spectrum[64 * f + i] - ref[i]), 1e-9) << f << "," << i;
        }
      }
      EXPECT_GT(sim.cycles.value(), 0.0);
      EXPECT_NEAR(sim.cycles.value(), model.cycles.value(), 0.35 * model.cycles.value() + 50.0)
          << "bw=" << bw << " frames=" << frames;
      EXPECT_GT(sim.utilization, 0.0);
      EXPECT_GT(model.utilization, 0.0);
      EXPECT_NEAR(sim.utilization, model.utilization,
                  0.35 * model.utilization + 0.02);
    }
  }
}

TEST(FabricParity, FftFourStep) {
  // 4096-point four-step variant: 64x64 grid of core transforms plus the
  // twiddle pass, validated against the flat radix-4 reference.
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  const std::vector<std::complex<double>> x = random_cplx_vector(4096, 77);
  const std::vector<fft::cplx> ref = fft::fft_radix4(x);
  KernelRequest req = make_fft(cfg, 4.0, x, FftVariant::FourStep);
  KernelResult sim = kSim.execute(req);
  KernelResult model = kModel.execute(req);
  ASSERT_TRUE(sim.ok) << sim.error;
  ASSERT_TRUE(model.ok) << model.error;
  double err = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i)
    err = std::max(err, std::abs(sim.spectrum[i] - ref[i]));
  EXPECT_LT(err, 1e-8);
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_LT(std::abs(model.spectrum[i] - ref[i]), 1e-12) << i;
  EXPECT_NEAR(sim.cycles.value(), model.cycles.value(), 0.35 * model.cycles.value() + 50.0);
}

TEST(FabricExecutor, FftRejectsInvalidShapesInBand) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  std::vector<KernelRequest> bad;
  bad.push_back(make_fft(cfg, 2.0, random_cplx_vector(63, 1)));   // not 64-mult
  bad.push_back(make_fft(cfg, 2.0, std::vector<std::complex<double>>{}));
  bad.push_back(make_fft(cfg, 2.0, random_cplx_vector(128, 1),
                         FftVariant::FourStep));                  // != 4096
  bad.push_back(make_fft(arch::lac_8x8_dp(), 2.0, random_cplx_vector(64, 1)));
  for (const KernelRequest& req : bad) {
    for (const Executor* ex : {static_cast<const Executor*>(&kSim),
                               static_cast<const Executor*>(&kModel)}) {
      KernelResult res = ex->execute(req);
      EXPECT_FALSE(res.ok) << res.backend;
      EXPECT_FALSE(res.error.empty()) << res.backend;
      EXPECT_EQ(res.cycles.value(), 0.0) << res.backend;
    }
  }
}

TEST(FabricExecutor, ShapeMessagesAreVerbatim) {
  // The GEMM shape message, the three FFT messages and VNORM's owner
  // column message, byte for byte.
  const arch::CoreConfig cfg = arch::lac_4x4_dp();
  EXPECT_EQ(validate(make_gemm(cfg, 2.0, random_matrix(6, 8, 1).view(),
                               random_matrix(8, 4, 2).view(),
                               random_matrix(6, 4, 3).view())),
            "GEMM shapes: C(6x4) += A(6x8) * B(8x4), m and n multiples of nr");
  EXPECT_EQ(validate(make_gemm(cfg, 2.0, random_matrix(8, 8, 1).view(),
                               random_matrix(12, 16, 2).view(),
                               random_matrix(8, 16, 3).view())),
            "GEMM shapes: C(8x16) += A(8x8) * B(12x16), m and n multiples of nr");
  EXPECT_EQ(validate(make_gemm(cfg, 2.0, random_matrix(8, 8, 1).view(),
                               random_matrix(8, 8, 2).view(),
                               random_matrix(8, 8, 3).view())),
            "");

  EXPECT_EQ(validate(make_fft(arch::lac_8x8_dp(), 2.0, random_cplx_vector(64, 1))),
            "FFT: the radix-4 schedule maps one butterfly per PE on a 4x4 core");
  EXPECT_EQ(validate(make_fft(cfg, 2.0, random_cplx_vector(128, 1), FftVariant::FourStep)),
            "FFT four-step: signal must be exactly 4096 points (64x64 grid)");
  EXPECT_EQ(validate(make_fft(cfg, 2.0, random_cplx_vector(63, 1))),
            "FFT: operand must be a positive multiple of 64 points, got 63");
  EXPECT_EQ(validate(make_fft(cfg, 2.0, std::vector<std::complex<double>>{})),
            "FFT: operand must be a positive multiple of 64 points, got 0");
  EXPECT_EQ(validate(make_fft(cfg, 2.0, random_cplx_vector(128, 1))), "");

  EXPECT_EQ(validate(make_vnorm(cfg, std::vector<double>(16, 1.0), 4)),
            "VNORM owner_col must be in [0, nr), got 4");
}

TEST(FabricParity, ChipGemm) {
  arch::ChipConfig chip = arch::lap_s8();
  chip.cores = 2;
  const index_t m = 32, n = 32, k = 32;
  MatrixD a = random_matrix(m, k, 14);
  MatrixD b = random_matrix(k, n, 15);
  MatrixD c = random_matrix(m, n, 16);
  MatrixD ref = c;
  blas::gemm(blas::Trans::No, blas::Trans::No, 1.0, a.view(), b.view(), 1.0,
             ref.view());
  expect_backend_parity(
      make_chip_gemm(chip, 16, 16, a.view(), b.view(), c.view()), ref);
}

TEST(FabricExecutor, ChipGemmModelUtilizationCountsChipCores) {
  // Both backends tile CHIP_GEMM by chip.core; req.core plays no part.
  const KernelRequest req =
      kernel_traits(KernelKind::ChipGemm).sized_request(arch::lac_8x8_dp(), 2.0, 32, 3);
  KernelRequest other = req;
  other.core = arch::lac_4x4_dp();
  const KernelResult want = kModel.execute(req);
  const KernelResult got = kModel.execute(other);
  ASSERT_TRUE(want.ok && got.ok) << want.error << got.error;
  EXPECT_EQ(got.utilization, want.utilization);
  EXPECT_EQ(got.cycles.value(), want.cycles.value());
}

TEST(FabricExecutor, OversizedSimRequestFailsInBand) {
  // n = 192 and 256 overflow the 4x4 core's MEM-A and MEM-B. The local
  // stores count the overrun instead of writing past their words (which
  // crashed the process), and the sim fails the request with zero cost.
  // The model has no capacity term and still prices them.
  for (index_t n : {192, 256}) {
    SCOPED_TRACE("n " + std::to_string(n));
    const KernelRequest req =
        kernel_traits(KernelKind::Gemm).sized_request(arch::lac_4x4_dp(), 2.0, n, 7);
    const KernelResult res = kSim.execute(req);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("local stores"), std::string::npos) << res.error;
    EXPECT_EQ(res.cycles.value(), 0.0);
    EXPECT_EQ(res.stats.mac_ops, 0);
    EXPECT_EQ(res.stats.overruns, 0);
    EXPECT_TRUE(kModel.execute(req).ok);
  }
}

TEST(FabricExecutor, NonSpdCholeskyFailsInBandOnBothBackends) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD a = random_matrix(16, 16, 40);  // not symmetric positive definite
  for (index_t i = 0; i < 16; ++i) a(i, i) = -1.0;
  KernelRequest req = make_cholesky(cfg, 2.0, a.view());
  for (const Executor* ex : {static_cast<const Executor*>(&kSim),
                             static_cast<const Executor*>(&kModel)}) {
    KernelResult res = ex->execute(req);
    EXPECT_FALSE(res.ok) << res.backend;
    EXPECT_FALSE(res.error.empty()) << res.backend;
    // A failed request charges nothing on either backend: the simulator's
    // partially-absorbed activity is voided, so no roll-up can count it.
    EXPECT_EQ(res.cycles.value(), 0.0) << res.backend;
    EXPECT_EQ(res.utilization, 0.0) << res.backend;
    EXPECT_EQ(res.stats.mac_ops, 0) << res.backend;
  }
}

TEST(FabricExecutor, InvalidRequestReportsInBand) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  std::vector<KernelRequest> bad;
  bad.push_back(make_gemm(cfg, 1.0, random_matrix(30, 32, 17).view(),
                          random_matrix(32, 32, 18).view(),
                          MatrixD(30, 32, 0.0).view()));  // 30 % 4 != 0
  // A well-shaped GEMM at a bandwidth no cost model can price: each used
  // to come back ok with an infinite, negative or NaN cost.
  MatrixD a = random_matrix(16, 16, 19);
  for (double bw : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                    std::numeric_limits<double>::infinity()})
    bad.push_back(make_gemm(cfg, bw, a.view(), a.view(), a.view()));
  // Clocks and tech nodes no cost model can price: each used to come back
  // ok with a NaN, negative or wrongly clocked energy, or an unknown node.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const KernelRequest good = make_gemm(cfg, 2.0, a.view(), a.view(), a.view());
  for (double ghz : {inf, -1.0, nan}) {
    bad.push_back(good);
    bad.back().tech.clock_ghz = ghz;
    bad.back().tag = "tech.clock_ghz " + std::to_string(ghz);
  }
  for (double ghz : {0.0, -1.0, nan}) {
    bad.push_back(good);
    bad.back().core.pe.clock_ghz = ghz;
    bad.back().tag = "core.pe.clock_ghz " + std::to_string(ghz);
  }
  bad.push_back(good);
  bad.back().tech.node = static_cast<arch::TechNode>(7);
  bad.back().tag = "tech.node 7";
  bad.push_back(sample_request(KernelKind::ChipGemm, 7));
  bad.back().chip.core.pe.clock_ghz = nan;
  bad.back().tag = "chip.core.pe.clock_ghz nan";
  // Chip fields the CHIP_GEMM backends divide or tile by: a zero core
  // count used to trap, a negative one to abort the sim and return a
  // negative utilization from the model, a zero, negative or NaN
  // bandwidth to price an infinite, meaningless or NaN cost, and a
  // chip.core.nr the tiling was not checked against to run no MACs.
  const KernelRequest chip_good = sample_request(KernelKind::ChipGemm, 1);
  for (int cores : {0, -1}) {
    bad.push_back(chip_good);
    bad.back().chip.cores = cores;
    bad.back().tag = "chip.cores " + std::to_string(cores);
  }
  for (double bw : {0.0, -1.0, nan}) {
    bad.push_back(chip_good);
    bad.back().chip.onchip_bw_words_per_cycle = bw;
    bad.back().tag = "chip.onchip_bw_words_per_cycle " + std::to_string(bw);
    bad.push_back(chip_good);
    bad.back().chip.offchip_bw_words_per_cycle = bw;
    bad.back().tag = "chip.offchip_bw_words_per_cycle " + std::to_string(bw);
  }
  bad.push_back(chip_good);
  bad.back().chip.core.nr = 8;
  bad.back().tag = "chip.core.nr 8";
  // A core size below 1: zero used to trap in the shape checks (a
  // remainder by nr), and -1 to come back ok from the model and abort the
  // sim.
  for (int nr : {0, -1}) {
    bad.push_back(kernel_traits(KernelKind::Gemm).sized_request(cfg, 2.0, 16, 1));
    bad.back().core.nr = nr;
    bad.back().tag = "GEMM core.nr " + std::to_string(nr);
  }
  bad.push_back(kernel_traits(KernelKind::Vnorm).sized_request(cfg, 2.0, 16, 1));
  bad.back().core.nr = 0;
  bad.back().tag = "VNORM core.nr 0";
  // An owner column off the core: the sim staged the vector into PEs that
  // do not exist and died (-1), or into the next row's column 0 (4).
  for (int col : {-1, 4}) {
    bad.push_back(kernel_traits(KernelKind::Vnorm).sized_request(cfg, 2.0, 16, 1));
    bad.back().owner_col = col;
    bad.back().tag = "VNORM owner_col " + std::to_string(col);
  }
  // PE and core fields the backends read, one at a time on every kind
  // (CHIP_GEMM through chip.core). Zero ports used to price infinite
  // cycles or NaN energy, a NaN or negative store size to throw out of the
  // sim, and a negative SFU latency to price TRSM at negative cycles.
  using CoreFault = std::pair<const char*, void (*)(arch::CoreConfig&)>;
  const CoreFault core_faults[] = {
      {"pe.mem_a_ports 0", [](arch::CoreConfig& c) { c.pe.mem_a_ports = 0; }},
      {"pe.mem_b_ports 0", [](arch::CoreConfig& c) { c.pe.mem_b_ports = 0; }},
      {"pe.mem_a_kbytes -4", [](arch::CoreConfig& c) { c.pe.mem_a_kbytes = -4.0; }},
      {"pe.mem_a_kbytes 0", [](arch::CoreConfig& c) { c.pe.mem_a_kbytes = 0.0; }},
      {"pe.mem_a_kbytes inf", [](arch::CoreConfig& c) {
         c.pe.mem_a_kbytes = std::numeric_limits<double>::infinity();
       }},
      {"pe.mem_b_kbytes nan", [](arch::CoreConfig& c) {
         c.pe.mem_b_kbytes = std::numeric_limits<double>::quiet_NaN();
       }},
      {"pe.pipeline_stages 0", [](arch::CoreConfig& c) { c.pe.pipeline_stages = 0; }},
      {"pe.pipeline_stages -3", [](arch::CoreConfig& c) { c.pe.pipeline_stages = -3; }},
      {"bus_latency -1", [](arch::CoreConfig& c) { c.bus_latency = -1; }},
      {"sfu_latency_recip -20", [](arch::CoreConfig& c) { c.sfu_latency_recip = -20; }},
      {"sfu_latency_rsqrt -1", [](arch::CoreConfig& c) { c.sfu_latency_rsqrt = -1; }},
      {"sfu_latency_sqrt -1", [](arch::CoreConfig& c) { c.sfu_latency_sqrt = -1; }},
      {"sw_emulation_cycles -1", [](arch::CoreConfig& c) { c.sw_emulation_cycles = -1; }},
  };
  for (KernelKind kind : registered_kernel_kinds())
    for (const auto& [field, fault] : core_faults) {
      bad.push_back(sample_request(kind, 1));
      fault(kind == KernelKind::ChipGemm ? bad.back().chip.core : bad.back().core);
      bad.back().tag = std::string(to_string(kind)) + " " + field;
    }
  for (const KernelRequest& req : bad) {
    SCOPED_TRACE(req.tag);
    std::vector<std::string> errors;
    for (const Executor* ex : {static_cast<const Executor*>(&kSim),
                               static_cast<const Executor*>(&kModel)}) {
      KernelResult res;
      EXPECT_NO_THROW(res = ex->execute(req)) << ex->name();
      EXPECT_FALSE(res.ok) << res.backend << " bw " << req.bw_words_per_cycle;
      EXPECT_FALSE(res.error.empty()) << res.backend;
      EXPECT_EQ(res.cycles.value(), 0.0) << res.backend;
      EXPECT_EQ(res.energy_nj.value(), 0.0) << res.backend;
      errors.push_back(res.error);
    }
    EXPECT_EQ(errors[0], errors[1]);
  }
}

TEST(LapDriverOnFabric, GemmFirstPanelOverlapAccounting) {
  // m=32, mc=8 gives four row tiles inside the single k-panel: only the
  // very first tile has no prior compute to hide its A load behind, so the
  // driver must charge Partial once and Full for the remaining three. At
  // bw=8 the tiles are compute-bound, where the two regimes differ (a
  // stream-bound shape would hide the A load either way).
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  const index_t m = 32, n = 24, k = 16;
  const index_t mc = 8, kc = 16;
  const double bw = 8.0;
  MatrixD a = random_matrix(m, k, 60);
  MatrixD b = random_matrix(k, n, 61);
  MatrixD c0 = random_matrix(m, n, 62);

  MatrixD c_model = c0;
  blas::DriverReport rm =
      blas::lap_gemm(kModel, cfg, bw, mc, kc, a.view(), b.view(), c_model.view());

  double expected = 0.0, all_partial = 0.0;
  for (index_t ii = 0; ii < m; ii += mc) {
    KernelRequest tile =
        make_gemm(cfg, bw, a.block(ii, 0, mc, k), b.view(), c0.block(ii, 0, mc, n),
                  ii == 0 ? model::Overlap::Partial : model::Overlap::Full);
    expected += model_cycles(tile).value();
    tile.overlap = model::Overlap::Partial;
    all_partial += model_cycles(tile).value();
  }
  EXPECT_DOUBLE_EQ(rm.total_cycles.value(), expected);
  // At this shape the regime choice changes the total, so the old
  // every-tile-Partial accounting is distinguishable.
  EXPECT_LT(rm.total_cycles.value(), all_partial);

  // And the fixed accounting still tracks the cycle-exact backend.
  MatrixD c_sim = c0;
  blas::DriverReport rs =
      blas::lap_gemm(kSim, cfg, bw, mc, kc, a.view(), b.view(), c_sim.view());
  EXPECT_NEAR(rs.total_cycles.value(), rm.total_cycles.value(), 0.10 * rm.total_cycles.value() + 100.0);
  MatrixD expect = c0;
  blas::gemm(blas::Trans::No, blas::Trans::No, 1.0, a.view(), b.view(), 1.0,
             expect.view());
  EXPECT_LT(rel_error(c_sim.view(), expect.view()), 1e-12);
  EXPECT_LT(rel_error(c_model.view(), expect.view()), 1e-12);
}

TEST(LapDriverOnFabric, QrTrailingUpdateChargedOnFabric) {
  // Every reflector application is two fabric GEMMs (w^T = u^T A2 / tau and
  // the rank-1 update), so for a 16x8 factorization with nr=4 the driver
  // makes 2 panel-QR calls plus 2*nr trailing-update calls; the w
  // matrix-vector products contribute fabric cycles like everything else.
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD a = random_matrix(16, 8, 63);
  std::vector<double> taus;
  blas::DriverReport rep = blas::lap_qr(kModel, cfg, 2.0, a.view(), taus);
  EXPECT_EQ(rep.kernel_calls, 2 + 2 * cfg.nr);
  EXPECT_GT(rep.total_cycles.value(), 0.0);
  MatrixD q = blas::qr_form_q(a.view(), taus);
  MatrixD qtq(8, 8, 0.0);
  blas::gemm(blas::Trans::Yes, blas::Trans::No, 1.0, q.view(), q.view(), 0.0,
             qtq.view());
  EXPECT_LT(rel_error(qtq.view(), identity(8).view()), 1e-9);
}

TEST(LapDriverOnFabric, GemmSameNumericsOnBothBackends) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  const index_t m = 24, n = 24, k = 24;
  MatrixD a = random_matrix(m, k, 30);
  MatrixD b = random_matrix(k, n, 31);
  MatrixD c0 = random_matrix(m, n, 32);
  MatrixD expect = c0;
  blas::gemm(blas::Trans::No, blas::Trans::No, 1.0, a.view(), b.view(), 1.0,
             expect.view());

  MatrixD c_sim = c0;
  blas::DriverReport rs =
      blas::lap_gemm(kSim, cfg, 2.0, 8, 8, a.view(), b.view(), c_sim.view());
  MatrixD c_model = c0;
  blas::DriverReport rm =
      blas::lap_gemm(kModel, cfg, 2.0, 8, 8, a.view(), b.view(), c_model.view());

  EXPECT_LT(rel_error(c_sim.view(), expect.view()), 1e-12);
  EXPECT_LT(rel_error(c_model.view(), expect.view()), 1e-12);
  EXPECT_EQ(rs.kernel_calls, rm.kernel_calls);
  // The analytical driver must track the simulated one's total cycles.
  EXPECT_NEAR(rs.total_cycles.value(), rm.total_cycles.value(), 0.15 * rm.total_cycles.value() + 100.0);
  // The model backend reports no simulator activity counters.
  EXPECT_EQ(rm.stats.mac_ops, 0);
  EXPECT_GT(rs.stats.mac_ops, 0);
}

TEST(LapDriverOnFabric, CholeskyFactorsOnModelBackend) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  const index_t n = 24;
  MatrixD a = random_spd(n, 33);
  MatrixD expect = a;
  ASSERT_TRUE(blas::cholesky(expect.view()));
  blas::DriverReport rep = blas::lap_cholesky(kModel, cfg, 2.0, 8, a.view());
  EXPECT_LT(rel_error(a.view(), expect.view()), 1e-9);
  EXPECT_GT(rep.total_cycles.value(), 0.0);
  EXPECT_GT(rep.kernel_calls, 3);
}

TEST(LapDriverOnFabric, LuAndQrRunOnModelBackend) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD a = random_matrix(16, 8, 34);
  MatrixD a_lu = a;
  std::vector<index_t> piv;
  blas::DriverReport rl = blas::lap_lu(kModel, cfg, 2.0, a_lu.view(), piv);
  MatrixD expect = a;
  std::vector<index_t> ref_piv;
  ASSERT_TRUE(blas::lu_partial_pivot(expect.view(), ref_piv));
  EXPECT_LT(rel_error(a_lu.view(), expect.view()), 1e-9);
  EXPECT_EQ(piv, ref_piv);
  EXPECT_GT(rl.total_cycles.value(), 0.0);

  MatrixD a_qr = a;
  std::vector<double> taus;
  blas::DriverReport rq = blas::lap_qr(kModel, cfg, 2.0, a_qr.view(), taus);
  MatrixD q = blas::qr_form_q(a_qr.view(), taus);
  // Q^T Q = I.
  MatrixD qtq(a.cols(), a.cols(), 0.0);
  blas::gemm(blas::Trans::Yes, blas::Trans::No, 1.0, q.view(), q.view(), 0.0,
             qtq.view());
  EXPECT_LT(rel_error(qtq.view(), identity(a.cols()).view()), 1e-9);
  EXPECT_GT(rq.total_cycles.value(), 0.0);
}

}  // namespace
}  // namespace lac::fabric
