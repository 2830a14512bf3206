// The one translation unit that knows every kernel kind. Validation, flop
// accounting, both backends' execution paths, the closed-form cycle models
// (§3.4, Ch. 4-6, Appendices A/B) and the energy hooks are registered
// here as KernelTraits; every other layer dispatches through the
// registry. The single switch on KernelKind lives in build_traits() below,
// which fills a constexpr table at compile time; the static_assert after
// it rejects a table that misses a kind, a name or a hook.
#include "fabric/kernel_registry.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "arch/presets.hpp"
#include "blas/ref_blas.hpp"
#include "blas/ref_lapack.hpp"
#include "common/random.hpp"
#include "fft/fft_kernel.hpp"
#include "fft/fft_large.hpp"
#include "fft/radix4_schedule.hpp"
#include "fft/reference_fft.hpp"
#include "kernels/chip_gemm.hpp"
#include "kernels/cholesky_kernel.hpp"
#include "kernels/gemm_kernel.hpp"
#include "kernels/lu_kernel.hpp"
#include "kernels/qr_kernel.hpp"
#include "kernels/syrk_kernel.hpp"
#include "kernels/trsm_kernel.hpp"
#include "kernels/vnorm_kernel.hpp"
#include "model/chip_model.hpp"
#include "model/core_model.hpp"
#include "model/factor_model.hpp"
#include "model/level3_model.hpp"
#include "power/energy_model.hpp"

namespace lac::fabric {
namespace {

/// ---- shared helpers ------------------------------------------------------

void absorb(KernelResult& res, kernels::KernelResult&& k) {
  res.out = std::move(k.out);
  res.cycles = k.cycles;
  res.utilization = k.utilization;
  res.stats = k.stats;
}

bool all_finite(const MatrixD& m) {
  for (index_t j = 0; j < m.cols(); ++j)
    for (index_t i = 0; i < m.rows(); ++i)
      if (!std::isfinite(m(i, j))) return false;
  return true;
}

/// Default utilization: useful MACs over nr^2 MAC slots per cycle.
double core_utilization(const KernelRequest& req, units::Cycles cycles) {
  const double pes = static_cast<double>(req.core.nr) * req.core.nr;
  return cycles.value() > 0
             ? useful_macs(req).value() / (cycles.value() * pes)
             : 0.0;
}

/// Core-level traits skeleton: every hook a single-core kernel shares.
constexpr KernelTraits core_base(KernelKind kind, const char* name) {
  KernelTraits t;
  t.kind = kind;
  t.name = name;
  t.model_utilization = core_utilization;
  t.model_energy = [](const KernelRequest& req, units::Cycles cycles,
                      double util) {
    return power::core_energy_model(effective_core(req), req.tech.node, cycles,
                                    util);
  };
  t.sim_energy = [](const KernelRequest& req, const sim::Stats& stats,
                    units::Cycles cycles) {
    return power::core_energy_from_stats(effective_core(req), req.tech.node,
                                         stats, cycles,
                                         req.chip.onchip_mem_mbytes);
  };
  return t;
}

bool multiple_of_nr(const KernelRequest& req, index_t v) {
  return v > 0 && v % req.core.nr == 0;
}

/// ---- GEMM (§3.3/§3.4) ----------------------------------------------------

constexpr KernelTraits gemm_traits() {
  KernelTraits t = core_base(KernelKind::Gemm, "GEMM");
  t.validate = [](const KernelRequest& req) -> std::string {
    if (!multiple_of_nr(req, req.a.rows()) || !multiple_of_nr(req, req.b.cols()) ||
        req.a.cols() <= 0 || req.b.rows() != req.a.cols() ||
        req.c.rows() != req.a.rows() || req.c.cols() != req.b.cols())
      return "GEMM shapes: C(" + std::to_string(req.c.rows()) + "x" +
             std::to_string(req.c.cols()) + ") += A(" + std::to_string(req.a.rows()) +
             "x" + std::to_string(req.a.cols()) + ") * B(" +
             std::to_string(req.b.rows()) + "x" + std::to_string(req.b.cols()) +
             "), m and n multiples of nr";
    return "";
  };
  t.useful_macs = [](const KernelRequest& req) {
    return units::Flops(static_cast<double>(req.a.rows()) * req.a.cols() *
                        req.b.cols());
  };
  t.model_cycles = [](const KernelRequest& req) {
    model::CoreGemmParams p;
    p.nr = req.core.nr;
    p.mc = req.a.rows();
    p.kc = req.a.cols();
    p.n = req.b.cols();
    p.bw_words_per_cycle = req.bw_words_per_cycle;
    p.overlap = req.overlap;
    return units::Cycles(model::core_cycles(p));
  };
  t.reference_run = [](const KernelRequest& req, KernelResult& res) {
    res.out = req.c.matrix();
    blas::gemm(blas::Trans::No, blas::Trans::No, 1.0, req.a.view(), req.b.view(),
               1.0, res.out.view());
    return std::string();
  };
  t.sim_run = [](const KernelRequest& req, KernelResult& res) {
    absorb(res, kernels::gemm_core(req.core, req.bw_words_per_cycle, req.a.view(),
                                   req.b.view(), req.c.view(), req.overlap));
    return std::string();
  };
  t.sized_request = [](const arch::CoreConfig& cfg, double bw, index_t n,
                       std::uint64_t seed) {
    return make_gemm(cfg, bw, SharedMatrix(random_matrix(n, n, seed)),
                     SharedMatrix(random_matrix(n, n, seed + 1)),
                     SharedMatrix(random_matrix(n, n, seed + 2)));
  };
  return t;
}

/// ---- SYRK (§5.2) ---------------------------------------------------------

constexpr KernelTraits syrk_traits() {
  KernelTraits t = core_base(KernelKind::Syrk, "SYRK");
  t.validate = [](const KernelRequest& req) -> std::string {
    if (!multiple_of_nr(req, req.a.rows()) || req.c.rows() != req.a.rows() ||
        req.c.cols() != req.a.rows())
      return "SYRK shapes: C square of A's rows, rows multiple of nr";
    return "";
  };
  t.useful_macs = [](const KernelRequest& req) {
    const double m = static_cast<double>(req.a.rows());
    return units::Flops(m * (m + 1) / 2.0 *
                        static_cast<double>(req.a.cols()));
  };
  t.model_cycles = [](const KernelRequest& req) {
    const int nr = req.core.nr;
    const int p = req.core.pe.pipeline_stages;
    const double x = req.bw_words_per_cycle;
    const double mc = static_cast<double>(req.a.rows());
    const double kc = static_cast<double>(req.a.cols());
    const double mb = mc / nr;
    const double blocks = mb * (mb + 1) / 2.0;  // lower blocks incl. diagonal
    // The in-order DMA queue serializes each block's C-in behind the
    // previous block's drain-gated C-out, so per block the kc bus sweeps,
    // the 2*nr^2 words of C traffic and a drain overhead all stack.
    const double per_block = kc + 2.0 * nr * nr / x + p + req.core.bus_latency;
    return units::Cycles(mc * kc / x + blocks * per_block);
  };
  t.reference_run = [](const KernelRequest& req, KernelResult& res) {
    res.out = req.c.matrix();
    blas::syrk(blas::Uplo::Lower, 1.0, req.a.view(), 1.0, res.out.view());
    return std::string();
  };
  t.sim_run = [](const KernelRequest& req, KernelResult& res) {
    absorb(res, kernels::syrk_core(req.core, req.bw_words_per_cycle, req.a.view(),
                                   req.c.view()));
    return std::string();
  };
  t.sized_request = [](const arch::CoreConfig& cfg, double bw, index_t n,
                       std::uint64_t seed) {
    return make_syrk(cfg, bw, SharedMatrix(random_matrix(n, n, seed)),
                     SharedMatrix(random_matrix(n, n, seed + 1)));
  };
  return t;
}

/// ---- SYR2K (§5.2.2) ------------------------------------------------------

constexpr KernelTraits syr2k_traits() {
  KernelTraits t = core_base(KernelKind::Syr2k, "SYR2K");
  t.validate = [](const KernelRequest& req) -> std::string {
    if (!multiple_of_nr(req, req.a.rows()) || req.b.rows() != req.a.rows() ||
        req.b.cols() != req.a.cols() || req.c.rows() != req.a.rows() ||
        req.c.cols() != req.a.rows())
      return "SYR2K shapes: A and B congruent, C square, rows multiple of nr";
    return "";
  };
  t.useful_macs = [](const KernelRequest& req) {
    const double m = static_cast<double>(req.a.rows());
    return units::Flops(m * (m + 1) * static_cast<double>(req.a.cols()));
  };
  t.model_cycles = [](const KernelRequest& req) {
    const int nr = req.core.nr;
    const int p = req.core.pe.pipeline_stages;
    const double x = req.bw_words_per_cycle;
    const double mc = static_cast<double>(req.a.rows());
    const double kc = static_cast<double>(req.a.cols());
    const double mb = mc / nr;
    const double blocks = mb * (mb + 1) / 2.0;
    // Two rank-1 sweeps per block; C traffic partially hides behind the
    // doubled compute (unlike SYRK the sweeps dominate the bus schedule).
    const double sweeps = 2.0 * kc;
    const double traffic = 2.0 * nr * nr / x;
    const double per_block = std::max(sweeps, traffic) +
                             0.5 * std::min(sweeps, traffic) + p +
                             req.core.bus_latency;
    // Two transpose captures (A1^T, B1^T) of kc row-bus slots per diagonal.
    return units::Cycles(2.0 * mc * kc / x + mb * 2.0 * kc +
                        blocks * per_block);
  };
  t.reference_run = [](const KernelRequest& req, KernelResult& res) {
    res.out = req.c.matrix();
    blas::syr2k(blas::Uplo::Lower, 1.0, req.a.view(), req.b.view(), 1.0,
                res.out.view());
    return std::string();
  };
  t.sim_run = [](const KernelRequest& req, KernelResult& res) {
    absorb(res, kernels::syr2k_core(req.core, req.bw_words_per_cycle,
                                    req.a.view(), req.b.view(), req.c.view()));
    return std::string();
  };
  t.sized_request = [](const arch::CoreConfig& cfg, double bw, index_t n,
                       std::uint64_t seed) {
    return make_syr2k(cfg, bw, SharedMatrix(random_matrix(n, n, seed)),
                      SharedMatrix(random_matrix(n, n, seed + 1)),
                      SharedMatrix(random_matrix(n, n, seed + 2)));
  };
  return t;
}

/// ---- TRSM (§5.3) ---------------------------------------------------------

constexpr KernelTraits trsm_traits() {
  KernelTraits t = core_base(KernelKind::Trsm, "TRSM");
  t.validate = [](const KernelRequest& req) -> std::string {
    if (!multiple_of_nr(req, req.a.rows()) || req.a.cols() != req.a.rows() ||
        req.b.rows() != req.a.rows() || !multiple_of_nr(req, req.b.cols()))
      return "TRSM shapes: L square multiple of nr, B conformal";
    return "";
  };
  t.useful_macs = [](const KernelRequest& req) {
    const double m = static_cast<double>(req.a.rows());
    return units::Flops(m * m / 2.0 * static_cast<double>(req.b.cols()));
  };
  t.model_cycles = [](const KernelRequest& req) {
    const int nr = req.core.nr;
    const int p = req.core.pe.pipeline_stages;
    const double x = req.bw_words_per_cycle;
    const double n = static_cast<double>(req.a.rows());
    const double m = static_cast<double>(req.b.cols());
    const index_t kb = req.a.rows() / nr;
    const double jbs = m / nr;
    // Serialized nr-step substitution chain per diagonal block: reciprocal,
    // bus hops, scale and rank-1 subtract per step, plus entry/exit drains.
    const double solve =
        nr * (model::recip_latency(req.core) + 2.0 * req.core.bus_latency + 2.0) +
        2.0 * p;
    double total = 0.0;
    for (index_t i = 0; i < kb; ++i) {
      // i GEMM sweeps of nr rank-1 steps race (2+i)*nr^2 streamed words.
      const double gemm = static_cast<double>(i) * nr;
      const double stream = (2.0 + i) * nr * nr / x;
      total += jbs * (std::max(gemm, stream) + solve);
    }
    return units::Cycles(n * (n + 1) / 2.0 / x + total);
  };
  t.reference_run = [](const KernelRequest& req, KernelResult& res) {
    res.out = req.b.matrix();
    blas::trsm(blas::Side::Left, blas::Uplo::Lower, blas::Trans::No,
               blas::Diag::NonUnit, 1.0, req.a.view(), res.out.view());
    return std::string();
  };
  t.sim_run = [](const KernelRequest& req, KernelResult& res) {
    absorb(res, kernels::trsm_core(req.core, req.bw_words_per_cycle, req.a.view(),
                                   req.b.view()));
    return std::string();
  };
  t.sized_request = [](const arch::CoreConfig& cfg, double bw, index_t n,
                       std::uint64_t seed) {
    return make_trsm(cfg, bw, SharedMatrix(random_lower_triangular(n, seed)),
                     SharedMatrix(random_matrix(n, n, seed + 1)));
  };
  return t;
}

/// ---- Cholesky (§6.1.1) ---------------------------------------------------

constexpr KernelTraits cholesky_traits() {
  KernelTraits t = core_base(KernelKind::Cholesky, "CHOL");
  t.validate = [](const KernelRequest& req) -> std::string {
    if (!multiple_of_nr(req, req.a.rows()) || req.a.cols() != req.a.rows())
      return "CHOL shapes: A square multiple of nr";
    return "";
  };
  t.useful_macs = [](const KernelRequest& req) {
    const double m = static_cast<double>(req.a.rows());
    return units::Flops(m * m * m / 3.0 / 2.0);
  };
  t.model_cycles = [](const KernelRequest& req) {
    const int nr = req.core.nr;
    const int p = req.core.pe.pipeline_stages;
    const double x = req.bw_words_per_cycle;
    const double n = static_cast<double>(req.a.rows());
    const index_t kb = req.a.rows() / nr;
    const int q = model::rsqrt_latency(req.core);
    const int r = model::recip_latency(req.core);
    double compute = 0.0;
    for (index_t d = 0; d < kb; ++d) {
      const double below = static_cast<double>(kb - d - 1);
      const double pairs = below * (below + 1) / 2.0;
      compute += static_cast<double>(model::cholesky_unblocked_cycles(nr, p, q));
      // Panel substitution: nr column steps per block below the diagonal,
      // each a reciprocal (serialized on the shared SFU) + broadcast +
      // scaled update chain.
      compute += below * nr * (r + p + 2.0);
      // Trailing rank-nr updates: nr bus sweeps per block pair, each a
      // broadcast pair plus the accumulation chain hand-off.
      compute += pairs * 2.0 * nr + (below > 0 ? nr * p : 0.0);
    }
    return units::Cycles(n * (n + 1) / x + compute);  // load + store of the triangle
  };
  t.reference_run = [](const KernelRequest& req, KernelResult& res) -> std::string {
    res.out = req.a.matrix();
    // blas::cholesky zeroes the strict upper triangle on success.
    if (!blas::cholesky(res.out.view())) return "CHOL: matrix not positive definite";
    return "";
  };
  t.sim_run = [](const KernelRequest& req, KernelResult& res) -> std::string {
    absorb(res, kernels::cholesky_core(req.core, req.bw_words_per_cycle,
                                       req.a.view()));
    // The fabric has no PD check; a negative diagonal turns into NaNs
    // through the inverse square root. Report it in-band so both backends
    // fail the same way (the model backend detects it in blas::cholesky).
    if (!all_finite(res.out)) return "CHOL: matrix not positive definite";
    return "";
  };
  t.sized_request = [](const arch::CoreConfig& cfg, double bw, index_t n,
                       std::uint64_t seed) {
    return make_cholesky(cfg, bw, SharedMatrix(random_spd(n, seed)));
  };
  return t;
}

/// ---- LU panel (§6.1.2) ---------------------------------------------------

constexpr KernelTraits lu_traits() {
  KernelTraits t = core_base(KernelKind::Lu, "LU");
  t.validate = [](const KernelRequest& req) -> std::string {
    if (req.a.cols() != req.core.nr || !multiple_of_nr(req, req.a.rows()) ||
        req.a.rows() < req.core.nr)
      return "LU panel must be (k x nr) with k a multiple of nr";
    return "";
  };
  t.useful_macs = [](const KernelRequest& req) {
    const double k = static_cast<double>(req.a.cols());
    return units::Flops(static_cast<double>(req.a.rows()) * k * k / 2.0);
  };
  t.model_cycles = [](const KernelRequest& req) {
    const int nr = req.core.nr;
    const int p = req.core.pe.pipeline_stages;
    const bool cmp = req.core.pe.extensions.comparator;
    const double rows_per_pe =
        std::max(1.0, static_cast<double>(req.a.rows()) / nr);
    const int r = model::recip_latency(req.core);
    double total = 0.0;
    for (int i = 0; i < nr; ++i) {
      // Pivot search: the emulated magnitude compare is a dependent chain
      // -- two issue slots plus a pipeline drain per fragment element --
      // the comparator extension makes it one cycle per element.
      total += rows_per_pe * (cmp ? 1.0 : p + 2.0) + nr;
      // Reciprocal, scaled column broadcast, rank-1 update of the trailing
      // columns (one fragment pass, pipelined).
      total += r + req.core.bus_latency + p + (i + 1 < nr ? rows_per_pe + p : 0.0);
    }
    return units::Cycles(total);
  };
  t.reference_run = [](const KernelRequest& req, KernelResult& res) -> std::string {
    res.out = req.a.matrix();
    if (!blas::lu_partial_pivot(res.out.view(), res.pivots))
      return "LU: zero pivot";
    return "";
  };
  t.sim_run = [](const KernelRequest& req, KernelResult& res) -> std::string {
    kernels::LuResult lu = kernels::lu_panel(req.core, req.a.view());
    res.pivots = std::move(lu.pivots);
    absorb(res, std::move(lu.kernel));
    if (!all_finite(res.out)) return "LU: zero pivot";  // 1/0 through the SFU
    return "";
  };
  t.sized_request = [](const arch::CoreConfig& cfg, double, index_t n,
                       std::uint64_t seed) {
    const index_t k = std::max<index_t>(cfg.nr, n - n % cfg.nr);
    return make_lu(cfg, SharedMatrix(random_matrix(k, cfg.nr, seed)));
  };
  return t;
}

/// ---- QR panel (§6.1.3) ---------------------------------------------------

constexpr KernelTraits qr_traits() {
  KernelTraits t = core_base(KernelKind::Qr, "QR");
  t.validate = [](const KernelRequest& req) -> std::string {
    if (req.a.cols() != req.core.nr || !multiple_of_nr(req, req.a.rows()) ||
        req.a.rows() < req.core.nr)
      return "QR panel must be (k x nr) with k a multiple of nr";
    return "";
  };
  t.useful_macs = [](const KernelRequest& req) {
    const double k = static_cast<double>(req.a.cols());
    return units::Flops(static_cast<double>(req.a.rows()) * k * k);
  };
  t.model_cycles = [](const KernelRequest& req) {
    const int nr = req.core.nr;
    const int p = req.core.pe.pipeline_stages;
    const double k = static_cast<double>(req.a.rows());
    const int r = model::recip_latency(req.core);
    const int sq = model::rsqrt_latency(req.core);
    double compute = 0.0;
    for (int j = 0; j < nr; ++j) {
      const double frag = std::max(1.0, (k - j) / nr);
      // norm^2 partials are a dependent FMA chain per PE row (the broadcast
      // hand-offs hide ~a quarter of the drain), then a column-bus
      // reduce-all.
      const double chain = frag * (3.0 * p / 4.0);
      compute += chain + nr * (req.core.bus_latency + 1.0);
      // Householder scalars (sqrt + reciprocal) and the column scale.
      compute += sq + r + frag + p;
      // Trailing columns: dot chain + reduce + rank-1 apply, one per column.
      compute += (nr - 1.0 - j) *
                     (chain + frag + nr * req.core.bus_latency + 2.0 * p) +
                 (j + 1 < nr ? r : 0);
    }
    // Panel kernels stage over an effectively infinite test interface (the
    // sim uses bw = 1e9), so no staging term is added.
    return units::Cycles(compute);
  };
  t.reference_run = [](const KernelRequest& req, KernelResult& res) {
    res.out = req.a.matrix();
    res.taus = blas::qr_householder(res.out.view());
    return std::string();
  };
  t.sim_run = [](const KernelRequest& req, KernelResult& res) {
    kernels::QrResult qr = kernels::qr_panel(req.core, req.a.view());
    res.taus = std::move(qr.taus);
    absorb(res, std::move(qr.kernel));
    return std::string();
  };
  t.sized_request = [](const arch::CoreConfig& cfg, double, index_t n,
                       std::uint64_t seed) {
    const index_t k = std::max<index_t>(cfg.nr, n - n % cfg.nr);
    return make_qr(cfg, SharedMatrix(random_matrix(k, cfg.nr, seed)));
  };
  return t;
}

/// ---- VNORM (§6.1.3, Fig 6.4) ---------------------------------------------

constexpr KernelTraits vnorm_traits() {
  KernelTraits t = core_base(KernelKind::Vnorm, "VNORM");
  t.validate = [](const KernelRequest& req) -> std::string {
    if (req.x.empty() ||
        static_cast<index_t>(req.x.size()) % (2 * req.core.nr) != 0)
      return "VNORM vector length must be a positive multiple of 2*nr";
    // The sim stages the vector into PE column owner_col.
    if (req.owner_col < 0 || req.owner_col >= req.core.nr)
      return "VNORM owner_col must be in [0, nr), got " + std::to_string(req.owner_col);
    return "";
  };
  t.useful_macs = [](const KernelRequest& req) {
    return units::Flops(static_cast<double>(req.x.size()));
  };
  t.model_cycles = [](const KernelRequest& req) {
    const int nr = req.core.nr;
    const int p = req.core.pe.pipeline_stages;
    const bool expext = req.core.pe.extensions.extended_exponent;
    const bool cmp = req.core.pe.extensions.comparator;
    const double frag =
        std::max(1.0, static_cast<double>(req.x.size()) / nr);  // owner column
    double total = 0.0;
    if (!expext) {
      // Guard pass: emulated magnitude compares chain a drain per element.
      total += frag * (cmp ? 1.0 : p + 3.0) + model::recip_latency(req.core) +
               req.core.bus_latency;
    }
    // S1: scale + squared partials (two issue slots per owner-half element,
    // one plus a bus hop for the neighbour half), then the reductions.
    total += 2.0 * frag + 2.0 * p;
    total += req.core.bus_latency + p;                          // S2
    total += nr * (req.core.bus_latency + 1.0) + nr * p / 2.0;  // S3 reduce-all
    total += model::rsqrt_latency(req.core) + p + 2.0;          // sqrt (+ unscale)
    return units::Cycles(total);
  };
  t.reference_run = [](const KernelRequest& req, KernelResult& res) {
    res.scalar = blas::nrm2(static_cast<index_t>(req.x.size()), req.x.data());
    return std::string();
  };
  t.sim_run = [](const KernelRequest& req, KernelResult& res) {
    kernels::VnormResult vn = kernels::vnorm(req.core, req.x.vec(), req.owner_col);
    res.scalar = vn.norm;
    res.cycles = vn.cycles;
    res.stats = vn.stats;
    // Utilization counts useful MACs (one per element), matching the model
    // backend's definition; mac_ops also counts the guard pass and
    // reduction slots, which are overhead, not useful work.
    res.utilization =
        vn.cycles.value() > 0
            ? useful_macs(req).value() /
                  (vn.cycles.value() * req.core.nr * req.core.nr)
            : 0.0;
    return std::string();
  };
  t.sized_request = [](const arch::CoreConfig& cfg, double, index_t n,
                       std::uint64_t seed) {
    Rng rng(seed);
    std::vector<double> x(static_cast<std::size_t>(2 * cfg.nr * std::max<index_t>(1, n)));
    for (double& v : x) v = rng.uniform(-1.0, 1.0);
    return make_vnorm(cfg, SharedVector(std::move(x)));
  };
  return t;
}

/// ---- chip-level (LAP) GEMM (Ch. 4) ---------------------------------------

constexpr KernelTraits chip_gemm_traits() {
  KernelTraits t;
  t.kind = KernelKind::ChipGemm;
  t.name = "CHIP_GEMM";
  t.validate = [](const KernelRequest& req) -> std::string {
    const arch::ChipConfig& chip = req.chip;
    // Both backends tile by the chip's core, so its nr is the one to check
    // -- and, like the core count, before anything divides by it.
    if (chip.cores < 1 || chip.core.nr < 1)
      return "CHIP_GEMM needs chip.cores >= 1 and chip.core.nr >= 1, got " +
             std::to_string(chip.cores) + " and " + std::to_string(chip.core.nr);
    // The chip models divide by both interface bandwidths.
    for (const double bw :
         {chip.onchip_bw_words_per_cycle, chip.offchip_bw_words_per_cycle})
      if (!std::isfinite(bw) || bw <= 0.0)
        return "CHIP_GEMM chip bandwidths must be finite and > 0, got " +
               std::to_string(bw);
    const index_t m = req.c.rows();
    const index_t n = req.c.cols();
    const index_t s = chip.cores;
    const int nr = chip.core.nr;
    if (req.mc <= 0 || req.kc <= 0 || req.mc % nr != 0 || req.kc % nr != 0 ||
        m % (s * nr) != 0 || (m / s) % req.mc != 0 || n <= 0 || n % nr != 0 ||
        req.a.cols() % req.kc != 0 || req.a.rows() != m ||
        req.b.rows() != req.a.cols() || req.b.cols() != n)
      return "CHIP_GEMM shapes/blocking: m splits into S row panels of mc, "
             "k into kc panels";
    return "";
  };
  t.useful_macs = [](const KernelRequest& req) {
    return units::Flops(static_cast<double>(req.a.rows()) * req.a.cols() *
                        req.b.cols());
  };
  t.model_cycles = [](const KernelRequest& req) {
    const arch::ChipConfig& chip = req.chip;
    const int nr = chip.core.nr;
    const int p = chip.core.pe.pipeline_stages;
    const double s = chip.cores;
    const double y_eff = chip.onchip_bw_words_per_cycle / s;  // shared, contended
    const double z = chip.offchip_bw_words_per_cycle;
    const double m = static_cast<double>(req.c.rows());
    const double n = static_cast<double>(req.c.cols());
    const double k = static_cast<double>(req.a.cols());
    const double mc = static_cast<double>(req.mc);
    const double kc = static_cast<double>(req.kc);
    // Per (kc-panel, row-tile) group every core stages its A tile, then per
    // nr-wide column block streams the B slice plus drain-serialized C
    // blocks through its share of the on-chip interface (§4.1 generalized
    // to m x n x k; the in-order per-core DMA stacks streams and compute as
    // in the core-level kernels).
    const double per_block =
        kc + 2.0 * nr * nr / y_eff + p + chip.core.bus_latency;
    const double per_jb = kc * nr / y_eff + (mc / nr) * per_block;
    const double per_group = mc * kc / y_eff + (n / nr) * per_jb;
    const double groups = (m / s) / mc;
    const double panels = k / kc;
    const double onchip = groups * panels * per_group;
    // Off-chip staging of the A/B panels overlaps compute of the previous
    // panel; the first staging is exposed.
    const double offchip_total = panels * (m * kc + kc * n) / z;
    const double first_stage = (m * kc + kc * n) / z;
    return units::Cycles(std::max(first_stage + onchip, offchip_total));
  };
  t.model_utilization = [](const KernelRequest& req, units::Cycles cycles) {
    // Both backends tile by chip.core, whatever req.core says.
    const double pes = static_cast<double>(req.chip.cores) * req.chip.core.nr *
                       req.chip.core.nr;
    return cycles.value() > 0
               ? useful_macs(req).value() / (cycles.value() * pes)
               : 0.0;
  };
  t.reference_run = [](const KernelRequest& req, KernelResult& res) {
    res.out = req.c.matrix();
    blas::gemm(blas::Trans::No, blas::Trans::No, 1.0, req.a.view(), req.b.view(),
               1.0, res.out.view());
    return std::string();
  };
  t.sim_run = [](const KernelRequest& req, KernelResult& res) {
    kernels::ChipGemmResult cg = kernels::chip_gemm(
        req.chip, req.mc, req.kc, req.a.view(), req.b.view(), req.c.view());
    res.out = std::move(cg.out);
    res.cycles = cg.cycles;
    res.utilization = cg.utilization;
    res.stats = cg.stats;
    return std::string();
  };
  t.model_energy = [](const KernelRequest& req, units::Cycles cycles,
                      double util) {
    return power::chip_energy_model(effective_chip(req), req.tech.node, cycles,
                                    util);
  };
  t.sim_energy = [](const KernelRequest& req, const sim::Stats& stats,
                    units::Cycles cycles) {
    return power::chip_energy_from_stats(effective_chip(req), req.tech.node,
                                         stats, cycles);
  };
  t.sized_request = [](const arch::CoreConfig& cfg, double, index_t n,
                       std::uint64_t seed) {
    // A 2-core LAP point around the caller's core; m rounds up to the
    // S * nr / mc blocking grid.
    arch::ChipConfig chip = arch::lap_s8();
    chip.cores = 2;
    chip.core = cfg;
    const index_t grid = 2 * cfg.nr;
    const index_t m = std::max<index_t>(grid, (n + grid - 1) / grid * grid);
    return make_chip_gemm(chip, cfg.nr, cfg.nr,
                          SharedMatrix(random_matrix(m, m, seed)),
                          SharedMatrix(random_matrix(m, m, seed + 1)),
                          SharedMatrix(random_matrix(m, m, seed + 2)));
  };
  return t;
}

/// ---- FFT (Ch. 6.2 / Appendix B) ------------------------------------------
//
// Batched64 maps the request's frames onto the pipelined 64-point schedule
// of Fig B.2 (fft64_stream); FourStep runs the 4096-point four-step
// transform of Fig B.4. The closed-form cycle model is calibrated to the
// simulated schedule (tests pin the parity): per extra frame the pipeline
// sustains one frame per max(I/O, steady-state compute), with the first
// frame paying the full exposed I/O + dependence chain.

/// 64-point frames carried by the request (validated to divide evenly).
double fft_frames(const KernelRequest& req) {
  return static_cast<double>(req.xc.size()) / 64.0;
}

/// Exposed dependence chain of the first 64-point frame (three butterfly
/// stages of issue + drain), calibrated to the Fig B.1/B.2 schedule.
double fft_first_frame_cycles(const arch::CoreConfig& core) {
  return 50.75 + 17.25 * core.pe.pipeline_stages +
         2.0 * (core.bus_latency - 1.0);
}

/// Steady-state compute cycles per pipelined frame (issue-port bound with
/// partial drain overlap across frames).
double fft_steady_frame_cycles(const arch::CoreConfig& core) {
  return 51.0 + 14.25 * core.pe.pipeline_stages +
         2.0 * (core.bus_latency - 1.0);
}

/// Closed-form cycles of `frames` pipelined 64-point transforms at
/// `bw` words/cycle: the stream is either interface-bound (4n words per
/// frame through one in-order DMA queue) or compute-bound.
double fft_batched_model_cycles(const arch::CoreConfig& core, double bw,
                                double frames) {
  const double words_per_frame = 4.0 * 64.0;  // complex in + out
  const double io_total = words_per_frame * frames / bw;
  const double exposed = words_per_frame / bw + fft_first_frame_cycles(core) +
                         (frames - 1.0) * fft_steady_frame_cycles(core);
  return std::max(io_total, exposed);
}

units::Cycles fft_model_cycles(const KernelRequest& req) {
  const arch::CoreConfig& core = req.core;
  const double bw = req.bw_words_per_cycle;
  if (req.fft_variant == FftVariant::FourStep) {
    // Column FFTs + row FFTs (64-frame batches) plus the twiddle-scaling
    // pass: the full grid streamed in and out (4 * 4096 words) around one
    // complex multiply per point (calibrated drain constant).
    const double passes = 2.0 * fft_batched_model_cycles(core, bw, 64.0);
    const double twiddle_io = 4.0 * 4096.0 / bw;
    const double twiddle_compute = 511.0 + 257.0 * core.pe.pipeline_stages;
    return units::Cycles(passes + twiddle_io + twiddle_compute);
  }
  return units::Cycles(fft_batched_model_cycles(core, bw, fft_frames(req)));
}

/// Per-event activity of the request, predicted exactly from the schedule
/// (the same counts the simulator records): per 64-point frame, 48
/// butterflies of 28 FMA slots (6 MAC + 22 mul/add), 64 MEM-A + 48 MEM-B
/// operand/twiddle reads, 96 word-transfers per exchange stage, and 4*64
/// DMA words; the four-step adds the twiddle pass (4 slots + 4 words per
/// point).
sim::Stats fft_predicted_stats(const KernelRequest& req) {
  sim::Stats s;
  const double frames =
      req.fft_variant == FftVariant::FourStep ? 128.0 : fft_frames(req);
  s.mac_ops = static_cast<std::int64_t>(frames * 48.0 * 6.0);
  s.mul_ops = static_cast<std::int64_t>(frames * 48.0 * 22.0);
  s.mem_a_reads = static_cast<std::int64_t>(frames * 64.0);
  s.mem_b_reads = static_cast<std::int64_t>(frames * 48.0);
  s.row_bus_xfers = static_cast<std::int64_t>(frames * 96.0);
  s.col_bus_xfers = static_cast<std::int64_t>(frames * 96.0);
  s.dma_words = static_cast<std::int64_t>(frames * 256.0);
  if (req.fft_variant == FftVariant::FourStep) {
    s.mac_ops += 2 * 4096;   // twiddle fmas
    s.mul_ops += 2 * 4096;   // twiddle muls
    s.dma_words += 4 * 4096; // grid in + out
  }
  return s;
}

constexpr KernelTraits fft_traits() {
  KernelTraits t = core_base(KernelKind::Fft, "FFT");
  t.validate = [](const KernelRequest& req) -> std::string {
    if (req.core.nr != 4)
      return "FFT: the radix-4 schedule maps one butterfly per PE on a 4x4 core";
    if (req.fft_variant == FftVariant::FourStep && req.xc.size() != 4096)
      return "FFT four-step: signal must be exactly 4096 points (64x64 grid)";
    if (req.xc.empty() || req.xc.size() % 64 != 0)
      return "FFT: operand must be a positive multiple of 64 points, got " +
             std::to_string(req.xc.size());
    return "";
  };
  // Useful work counts the FMA slots of the Fig B.1 butterfly schedule (28
  // per butterfly, 48 butterflies per 64-point frame) -- the numerator of
  // the simulator's utilization convention for the hybrid core.
  t.useful_macs = [](const KernelRequest& req) {
    if (req.fft_variant == FftVariant::FourStep)
      return units::Flops(128.0 * 48.0 * 28.0 + 4096.0 * 4.0);
    return units::Flops(fft_frames(req) * 48.0 * 28.0);
  };
  t.model_cycles = fft_model_cycles;
  t.reference_run = [](const KernelRequest& req, KernelResult& res) {
    const std::vector<fft::cplx>& x = req.xc.vec();
    if (req.fft_variant == FftVariant::FourStep) {
      res.spectrum = fft::fft_radix4(x);
      return std::string();
    }
    res.spectrum.resize(x.size());
    const std::size_t n = 64;
    std::vector<fft::cplx> frame(n);
    for (std::size_t f = 0; f < x.size() / n; ++f) {
      std::copy(x.begin() + static_cast<std::ptrdiff_t>(f * n),
                x.begin() + static_cast<std::ptrdiff_t>((f + 1) * n),
                frame.begin());
      std::vector<fft::cplx> spec = fft::fft_radix4(frame);
      std::copy(spec.begin(), spec.end(),
                res.spectrum.begin() + static_cast<std::ptrdiff_t>(f * n));
    }
    return std::string();
  };
  t.sim_run = [](const KernelRequest& req, KernelResult& res) {
    fft::FftResult r =
        req.fft_variant == FftVariant::FourStep
            ? fft::fft4096_four_step(req.core, req.bw_words_per_cycle,
                                     req.xc.vec())
            : fft::fft64_stream(req.core, req.bw_words_per_cycle, req.xc.vec());
    res.spectrum = std::move(r.out);
    res.cycles = r.cycles;
    res.stats = r.stats;
    // (mac + mul) slots == useful_macs by construction, so the simulated
    // utilization already follows the shared convention.
    res.utilization = r.utilization;
    return std::string();
  };
  // Closed-form energy prices the predicted activity at the same per-event
  // energies the sim backend uses -- the schedule is static, so the counts
  // are exact and only the leakage term depends on the cycle estimate.
  t.model_energy = [](const KernelRequest& req, units::Cycles cycles, double) {
    return power::core_energy_from_stats(effective_core(req), req.tech.node,
                                         fft_predicted_stats(req), cycles,
                                         req.chip.onchip_mem_mbytes);
  };
  t.sized_request = [](const arch::CoreConfig& cfg, double bw, index_t n,
                       std::uint64_t seed) {
    // One 64-point frame per 16 of the nominal operand size, so the FFT
    // share of a mixed workload scales with its size grid.
    const std::size_t frames =
        std::max<std::size_t>(1, static_cast<std::size_t>(n) / 16);
    return make_fft(cfg, bw, SharedCplxVector(random_cplx_vector(64 * frames, seed)));
  };
  return t;
}

/// ---- registry assembly ---------------------------------------------------

/// The single switch on KernelKind in the codebase (lint's
/// stray-kernel-switch): a new enumerator fails -Werror=switch here until
/// its traits are registered.
constexpr KernelTraits build_traits(KernelKind kind) {
  switch (kind) {
    case KernelKind::Gemm: return gemm_traits();
    case KernelKind::Syrk: return syrk_traits();
    case KernelKind::Syr2k: return syr2k_traits();
    case KernelKind::Trsm: return trsm_traits();
    case KernelKind::Cholesky: return cholesky_traits();
    case KernelKind::Lu: return lu_traits();
    case KernelKind::Qr: return qr_traits();
    case KernelKind::Vnorm: return vnorm_traits();
    case KernelKind::ChipGemm: return chip_gemm_traits();
    case KernelKind::Fft: return fft_traits();
  }
  return {};
}

/// The table's length: the one place it meets the enum's last enumerator.
constexpr std::size_t kKindCount = static_cast<std::size_t>(KernelKind::Fft) + 1;

/// Every kind's traits, indexed by KernelKind and built by the compiler.
constexpr std::array<KernelTraits, kKindCount> kTraits = [] {
  std::array<KernelTraits, kKindCount> table;
  for (std::size_t i = 0; i < kKindCount; ++i)
    table[i] = build_traits(static_cast<KernelKind>(i));
  return table;
}();

/// Every kind in enumerator order: registered_kernel_kinds()' storage.
constexpr std::array<KernelKind, kKindCount> kRegisteredKinds = [] {
  std::array<KernelKind, kKindCount> kinds{};
  for (std::size_t i = 0; i < kKindCount; ++i) kinds[i] = static_cast<KernelKind>(i);
  return kinds;
}();

/// True, or not a constant: a broken rule reaches its throw, and the
/// compiler's diagnostic quotes that line.
constexpr bool registry_complete() {
  for (std::size_t i = 0; i < kKindCount; ++i) {
    const KernelTraits& t = kTraits[i];
    if (t.kind != static_cast<KernelKind>(i)) throw "slot i holds KernelKind(i)";
    if (std::string_view(t.name) == "?" || !t.validate || !t.useful_macs ||
        !t.model_cycles || !t.model_utilization || !t.reference_run || !t.sim_run ||
        !t.model_energy || !t.sim_energy || !t.sized_request)
      throw "every kind sets its name and all nine hooks";
    for (std::size_t j = 0; j < i; ++j)
      if (std::string_view(t.name) == kTraits[j].name)
        throw "no two kinds share a name";
  }
  if (std::string_view(build_traits(static_cast<KernelKind>(kKindCount)).name) != "?")
    throw "no kind past the table's end has traits: kKindCount counts to it";
  return true;
}
static_assert(registry_complete());

}  // namespace

const KernelTraits* try_kernel_traits(KernelKind kind) {
  const auto idx = static_cast<std::size_t>(kind);
  return idx < kKindCount ? &kTraits[idx] : nullptr;
}

const KernelTraits& kernel_traits(KernelKind kind) {
  if (const KernelTraits* t = try_kernel_traits(kind)) return *t;
  throw std::out_of_range("kernel_traits: unregistered KernelKind " +
                          std::to_string(static_cast<int>(kind)));
}

std::span<const KernelKind> registered_kernel_kinds() { return kRegisteredKinds; }

KernelRequest sample_request(KernelKind kind, std::uint64_t seed) {
  return kernel_traits(kind).sized_request(arch::lac_4x4_dp(), 2.0, 16, seed);
}

}  // namespace lac::fabric
