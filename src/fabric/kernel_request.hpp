#pragma once
// Unified kernel descriptor for the fabric execution layer.
//
// One KernelRequest describes one atomic unit of accelerator work -- any of
// the ten kernels the statically-scheduled fabric serves (the paper's core
// claim, plus the hybrid-design FFT of Ch. 6.2) -- in backend-neutral form.
// Per-kernel behaviour (validation, flop accounting, execution, energy)
// lives in the kernel registry (fabric/kernel_registry.hpp); this header
// only names the kinds and carries the operands. An Executor (sim-backed and cycle-exact,
// or model-backed and instant) turns it into a KernelResult. Operands are
// immutable shared payloads: a request keeps its batch-safety (no aliasing
// of mutable state between concurrent executions) while copying a request,
// or fanning one payload out across many requests on the serving path,
// costs pointer copies instead of matrix copies.
#include <complex>
#include <memory>
#include <string>
#include <vector>

#include "arch/configs.hpp"
#include "common/matrix.hpp"
#include "common/units.hpp"
#include "model/core_model.hpp"
#include "power/energy_model.hpp"
#include "power/metrics.hpp"
#include "sim/engine.hpp"

namespace lac::fabric {

enum class KernelKind {
  Gemm,      ///< C += A * B, resident A, streamed B/C (§3.3/§3.4)
  Syrk,      ///< C(lower) += A * A^T with on-the-fly transpose (§5.2)
  Syr2k,     ///< C(lower) += A*B^T + B*A^T (§5.2.2)
  Trsm,      ///< solve L * X = B, blocked (§5.3)
  Cholesky,  ///< blocked on-core Cholesky of an SPD block (§6.1.1)
  Lu,        ///< k x nr panel LU with partial pivoting (§6.1.2)
  Qr,        ///< k x nr panel Householder QR (§6.1.3)
  Vnorm,     ///< vector 2-norm (§6.1.3, Fig 6.4)
  ChipGemm,  ///< multi-core (LAP) GEMM over the shared interfaces (Ch. 4)
  Fft,       ///< radix-4 FFT on the hybrid core (Ch. 6.2 / Appendix B)
};

/// Registry-backed name of the kind ("GEMM", "FFT", ...); "?" when the
/// kind has no registered traits (see fabric/kernel_registry.hpp -- the
/// name and the registry entry come from one table and cannot drift).
const char* to_string(KernelKind kind);

/// How an Fft request maps onto the fabric (Appendix B schedules).
enum class FftVariant {
  Batched64,  ///< pipelined 64-point frames with streamed I/O (Fig B.2)
  FourStep,   ///< 4096-point four-step transform: 64x64 grid (Fig B.4)
};

/// Immutable shared matrix operand. Null-safe dimension accessors mirror a
/// default-constructed MatrixD so unset operands validate the same way.
class SharedMatrix {
 public:
  SharedMatrix() = default;
  SharedMatrix(MatrixD m) : ptr_(std::make_shared<const MatrixD>(std::move(m))) {}
  SharedMatrix(std::shared_ptr<const MatrixD> m) : ptr_(std::move(m)) {}
  /// Deep-copies the viewed elements into a fresh payload, so the request
  /// stays valid when the source (e.g. a transient block view) changes.
  template <class T>
  SharedMatrix(MatrixView<T> v) : SharedMatrix(to_matrix<double>(ConstViewD(v))) {}

  index_t rows() const { return ptr_ ? ptr_->rows() : 0; }
  index_t cols() const { return ptr_ ? ptr_->cols() : 0; }
  ConstViewD view() const { return ptr_ ? ptr_->view() : ConstViewD(); }
  /// The payload (must be set). Deep-copy this to get a mutable working set.
  const MatrixD& matrix() const { return *ptr_; }
  const std::shared_ptr<const MatrixD>& payload() const { return ptr_; }
  explicit operator bool() const { return ptr_ != nullptr; }

 private:
  std::shared_ptr<const MatrixD> ptr_;
};

/// Immutable shared complex-vector operand (Fft frames), same sharing
/// contract as SharedMatrix/SharedVector.
class SharedCplxVector {
 public:
  using cplx = std::complex<double>;

  SharedCplxVector() = default;
  SharedCplxVector(std::vector<cplx> v)
      : ptr_(std::make_shared<const std::vector<cplx>>(std::move(v))) {}
  SharedCplxVector(std::shared_ptr<const std::vector<cplx>> v)
      : ptr_(std::move(v)) {}

  std::size_t size() const { return ptr_ ? ptr_->size() : 0; }
  bool empty() const { return size() == 0; }
  const cplx* data() const { return ptr_ ? ptr_->data() : nullptr; }
  const std::vector<cplx>& vec() const { return *ptr_; }
  const std::shared_ptr<const std::vector<cplx>>& payload() const { return ptr_; }

 private:
  std::shared_ptr<const std::vector<cplx>> ptr_;
};

/// Immutable shared vector operand (Vnorm), same sharing contract.
class SharedVector {
 public:
  SharedVector() = default;
  SharedVector(std::vector<double> v)
      : ptr_(std::make_shared<const std::vector<double>>(std::move(v))) {}
  SharedVector(std::shared_ptr<const std::vector<double>> v) : ptr_(std::move(v)) {}

  std::size_t size() const { return ptr_ ? ptr_->size() : 0; }
  bool empty() const { return size() == 0; }
  const double* data() const { return ptr_ ? ptr_->data() : nullptr; }
  const std::vector<double>& vec() const { return *ptr_; }
  const std::shared_ptr<const std::vector<double>>& payload() const { return ptr_; }

 private:
  std::shared_ptr<const std::vector<double>> ptr_;
};

struct KernelRequest {
  KernelKind kind = KernelKind::Gemm;
  arch::CoreConfig core;                       ///< core-level kernels
  arch::ChipConfig chip;                       ///< ChipGemm only
  double bw_words_per_cycle = 1.0;             ///< core <-> on-chip memory
  model::Overlap overlap = model::Overlap::Partial;  ///< Gemm A-load regime
  index_t mc = 0, kc = 0;                      ///< ChipGemm blocking
  SharedMatrix a, b, c;                        ///< operands (kernel-dependent)
  SharedVector x;                              ///< Vnorm operand
  int owner_col = 2;                           ///< Vnorm PE column
  SharedCplxVector xc;                         ///< Fft operand (frame batch)
  FftVariant fft_variant = FftVariant::Batched64;
  arch::TechContext tech;                      ///< node + clock for energy/area
  std::string tag;                             ///< caller label (batch reports)
};

struct KernelResult {
  bool ok = false;
  std::string error;                  ///< set when !ok
  std::string backend;                ///< executor that produced the result
  std::string tag;                    ///< copied from the request
  MatrixD out;                        ///< layout follows the kernel contract
  std::vector<index_t> pivots;        ///< Lu
  std::vector<double> taus;           ///< Qr
  double scalar = 0.0;                ///< Vnorm
  /// Fft: natural-order spectra, frame f at [64f, 64(f+1)).
  std::vector<std::complex<double>> spectrum;
  units::Cycles cycles;
  double utilization = 0.0;
  /// Energy/power/area at the request's TechContext. The sim backend prices
  /// its activity counters; the model backend uses the closed-form busy +
  /// leakage estimate -- the energy analogue of the cycle calibration.
  /// Dimension-checked quantities (common/units.hpp): `.value()` only at
  /// JSON/stdout boundaries.
  units::Nanojoules energy_nj;
  units::Watts avg_power_w;
  units::SquareMillimeters area_mm2;
  power::Metrics metrics;             ///< GFLOPS / W / mm^2 summary
  sim::Stats stats;                   ///< zero for the analytical backend
};

/// ---- request builders ---------------------------------------------------
/// One builder per kind. A view or vector argument is deep-copied into a
/// fresh payload by the operand's converting constructor (safe when the
/// source is a transient block view). A SharedMatrix, SharedVector or
/// SharedCplxVector argument is the zero-copy serving path: callers that
/// keep operands in shared payloads pay no memcpy per request, and many
/// requests can reference one payload.
KernelRequest make_gemm(const arch::CoreConfig& core, double bw, SharedMatrix a,
                        SharedMatrix b, SharedMatrix c,
                        model::Overlap overlap = model::Overlap::Partial);
KernelRequest make_syrk(const arch::CoreConfig& core, double bw, SharedMatrix a,
                        SharedMatrix c);
KernelRequest make_syr2k(const arch::CoreConfig& core, double bw, SharedMatrix a,
                         SharedMatrix b, SharedMatrix c);
KernelRequest make_trsm(const arch::CoreConfig& core, double bw, SharedMatrix l,
                        SharedMatrix b);
KernelRequest make_cholesky(const arch::CoreConfig& core, double bw, SharedMatrix a);
KernelRequest make_lu(const arch::CoreConfig& core, SharedMatrix panel);
KernelRequest make_qr(const arch::CoreConfig& core, SharedMatrix panel);
KernelRequest make_vnorm(const arch::CoreConfig& core, SharedVector x,
                         int owner_col = 2);
KernelRequest make_chip_gemm(const arch::ChipConfig& chip, index_t mc, index_t kc,
                             SharedMatrix a, SharedMatrix b, SharedMatrix c);
/// FFT over the hybrid core. Batched64: `x` holds any positive number of
/// 64-point frames back to back; FourStep: `x` is one 4096-point signal.
KernelRequest make_fft(const arch::CoreConfig& core, double bw,
                       SharedCplxVector x,
                       FftVariant variant = FftVariant::Batched64);

/// Useful MAC count of the request (the numerator of every utilization
/// figure in the paper; lower-order terms follow each kernel's convention;
/// Fft counts FMA slots of the Fig B.1 butterfly schedule). Dispatches
/// through the kernel registry. One MAC is one flop slot here; the 2x
/// multiply-add convention is applied where GFLOPS figures are derived.
units::Flops useful_macs(const KernelRequest& req);

/// The core/chip the request effectively runs on: the configured one with
/// the TechContext clock override (if any) applied. All cycle, energy and
/// area figures are evaluated against these.
arch::CoreConfig effective_core(const KernelRequest& req);
arch::ChipConfig effective_chip(const KernelRequest& req);

/// Fill the result's energy/power/area fields and the Metrics summary from
/// an energy report (shared by both backends: GFLOPS follows from useful
/// MACs over the result's cycles at the effective clock).
void attach_cost(KernelResult& res, const KernelRequest& req,
                 const power::EnergyReport& energy);

/// Canonical failed result: ok = false with the error set and every cost
/// field zeroed (the PR 2 failure-accounting contract both executors
/// follow). The tag-only overload serves callers with no request in hand
/// -- the scheduler's cancelled-downstream nodes -- so cancelled work
/// reports exactly like failed work.
KernelResult make_failed(std::string tag, std::string backend,
                         std::string error);
KernelResult make_failed(const KernelRequest& req, std::string backend,
                         std::string error);

class Executor;

/// The one checked call into a backend: executes `req` on `backend`,
/// turning an exception, or a result whose cycles or energy_nj is not
/// finite and >= 0, into an in-band failure at zero cost ("backend
/// exception: ...", "backend returned a cost that is not finite and >= 0:
/// cycles = nan"). AsyncExecutor, the scheduler's workers and
/// sched::run_node all execute through it.
KernelResult run_request(const Executor& backend, const KernelRequest& req);

/// Bandwidth, clock, tech-node, PE/core field and shape/blocking sanity
/// check; returns an empty string when valid. Shapes go through the kernel
/// registry's per-kind validators.
std::string validate(const KernelRequest& req);

}  // namespace lac::fabric
