#include "fabric/kernel_request.hpp"

#include <cmath>
#include <sstream>
#include <string>
#include <utility>

#include "fabric/executor.hpp"
#include "fabric/kernel_registry.hpp"

namespace lac::fabric {
namespace {

/// The PE and core fields both backends read, named under `prefix`. A port
/// count or pipeline depth below 1 prices infinite cycles or NaN energy, a
/// store size that is not finite and positive throws out of the sim's
/// local-store allocation, and a negative latency returns negative cycles.
std::string validate_core(const arch::CoreConfig& core, const char* prefix) {
  const arch::PeConfig& pe = core.pe;
  for (const auto& [name, v] : {std::pair{"pe.mem_a_ports", pe.mem_a_ports},
                                {"pe.mem_b_ports", pe.mem_b_ports},
                                {"pe.pipeline_stages", pe.pipeline_stages}})
    if (v < 1)
      return std::string(prefix) + name + " must be >= 1, got " + std::to_string(v);
  for (const auto& [name, kb] : {std::pair{"pe.mem_a_kbytes", pe.mem_a_kbytes},
                                 {"pe.mem_b_kbytes", pe.mem_b_kbytes}})
    if (!std::isfinite(kb) || kb <= 0.0)
      return std::string(prefix) + name + " must be finite and > 0, got " +
             std::to_string(kb);
  for (const auto& [name, v] : {std::pair{"bus_latency", core.bus_latency},
                                {"sfu_latency_recip", core.sfu_latency_recip},
                                {"sfu_latency_rsqrt", core.sfu_latency_rsqrt},
                                {"sfu_latency_sqrt", core.sfu_latency_sqrt},
                                {"sw_emulation_cycles", core.sw_emulation_cycles}})
    if (v < 0)
      return std::string(prefix) + name + " must be >= 0, got " + std::to_string(v);
  return {};
}

}  // namespace

const char* to_string(KernelKind kind) {
  // The registry's name field is the one source of truth.
  const KernelTraits* traits = try_kernel_traits(kind);
  return traits ? traits->name : "?";
}

KernelRequest make_gemm(const arch::CoreConfig& core, double bw, SharedMatrix a,
                        SharedMatrix b, SharedMatrix c, model::Overlap overlap) {
  KernelRequest req;
  req.kind = KernelKind::Gemm;
  req.core = core;
  req.bw_words_per_cycle = bw;
  req.overlap = overlap;
  req.a = std::move(a);
  req.b = std::move(b);
  req.c = std::move(c);
  return req;
}

KernelRequest make_syrk(const arch::CoreConfig& core, double bw, SharedMatrix a,
                        SharedMatrix c) {
  KernelRequest req;
  req.kind = KernelKind::Syrk;
  req.core = core;
  req.bw_words_per_cycle = bw;
  req.a = std::move(a);
  req.c = std::move(c);
  return req;
}

KernelRequest make_syr2k(const arch::CoreConfig& core, double bw, SharedMatrix a,
                         SharedMatrix b, SharedMatrix c) {
  KernelRequest req;
  req.kind = KernelKind::Syr2k;
  req.core = core;
  req.bw_words_per_cycle = bw;
  req.a = std::move(a);
  req.b = std::move(b);
  req.c = std::move(c);
  return req;
}

KernelRequest make_trsm(const arch::CoreConfig& core, double bw, SharedMatrix l,
                        SharedMatrix b) {
  KernelRequest req;
  req.kind = KernelKind::Trsm;
  req.core = core;
  req.bw_words_per_cycle = bw;
  req.a = std::move(l);
  req.b = std::move(b);
  return req;
}

KernelRequest make_cholesky(const arch::CoreConfig& core, double bw, SharedMatrix a) {
  KernelRequest req;
  req.kind = KernelKind::Cholesky;
  req.core = core;
  req.bw_words_per_cycle = bw;
  req.a = std::move(a);
  return req;
}

KernelRequest make_lu(const arch::CoreConfig& core, SharedMatrix panel) {
  KernelRequest req;
  req.kind = KernelKind::Lu;
  req.core = core;
  req.a = std::move(panel);
  return req;
}

KernelRequest make_qr(const arch::CoreConfig& core, SharedMatrix panel) {
  KernelRequest req;
  req.kind = KernelKind::Qr;
  req.core = core;
  req.a = std::move(panel);
  return req;
}

KernelRequest make_vnorm(const arch::CoreConfig& core, SharedVector x,
                         int owner_col) {
  KernelRequest req;
  req.kind = KernelKind::Vnorm;
  req.core = core;
  req.x = std::move(x);
  req.owner_col = owner_col;
  return req;
}

KernelRequest make_chip_gemm(const arch::ChipConfig& chip, index_t mc, index_t kc,
                             SharedMatrix a, SharedMatrix b, SharedMatrix c) {
  KernelRequest req;
  req.kind = KernelKind::ChipGemm;
  req.chip = chip;
  req.core = chip.core;
  req.mc = mc;
  req.kc = kc;
  req.a = std::move(a);
  req.b = std::move(b);
  req.c = std::move(c);
  return req;
}

KernelRequest make_fft(const arch::CoreConfig& core, double bw,
                       SharedCplxVector x, FftVariant variant) {
  KernelRequest req;
  req.kind = KernelKind::Fft;
  req.core = core;
  req.bw_words_per_cycle = bw;
  req.xc = std::move(x);
  req.fft_variant = variant;
  return req;
}

arch::CoreConfig effective_core(const KernelRequest& req) {
  arch::CoreConfig core = req.core;
  if (req.tech.clock_ghz > 0.0) core.pe.clock_ghz = req.tech.clock_ghz;
  return core;
}

arch::ChipConfig effective_chip(const KernelRequest& req) {
  arch::ChipConfig chip = req.chip;
  if (req.tech.clock_ghz > 0.0) chip.core.pe.clock_ghz = req.tech.clock_ghz;
  return chip;
}

void attach_cost(KernelResult& res, const KernelRequest& req,
                 const power::EnergyReport& energy) {
  res.energy_nj = energy.energy_nj();
  res.avg_power_w = energy.avg_power_w;
  res.area_mm2 = energy.area_mm2;
  const double f = effective_core(req).pe.clock_ghz;
  // Makespan from the typed clock division (cycles / (cycles/s) = s); the
  // sustained rate follows as flops over that time, 2 flops per MAC slot.
  const units::Seconds t = f > 0.0 ? res.cycles / units::Gigahertz(f)
                                   : units::Seconds{};
  res.metrics.flops_per_s = t.value() > 0.0
                                ? 2.0 * useful_macs(req) / t
                                : units::FlopsPerSecond{};
  res.metrics.watts = energy.avg_power_w;
  res.metrics.area_mm2 = energy.area_mm2;
}

units::Flops useful_macs(const KernelRequest& req) {
  const KernelTraits* traits = try_kernel_traits(req.kind);
  return traits ? traits->useful_macs(req) : units::Flops{};
}

KernelResult make_failed(std::string tag, std::string backend,
                         std::string error) {
  KernelResult res;
  res.ok = false;
  res.backend = std::move(backend);
  res.tag = std::move(tag);
  res.error = std::move(error);
  // Every cost/accounting field stays at its zero default: failures (and
  // cancellations) must contribute nothing to any roll-up.
  return res;
}

KernelResult make_failed(const KernelRequest& req, std::string backend,
                         std::string error) {
  return make_failed(req.tag, std::move(backend), std::move(error));
}

namespace {

/// "cycles = nan" for the first cost field that is not finite and >= 0;
/// empty when both are.
std::string bad_cost(const KernelResult& res) {
  const std::pair<const char*, double> costs[] = {{"cycles", res.cycles.value()},
                                                  {"energy_nj", res.energy_nj.value()}};
  for (const auto& [field, value] : costs)
    if (!(std::isfinite(value) && value >= 0.0)) {
      std::ostringstream os;
      os << field << " = " << value;
      return os.str();
    }
  return {};
}

}  // namespace

KernelResult run_request(const Executor& backend, const KernelRequest& req) {
  try {
    KernelResult res = backend.execute(req);
    // A NaN, infinite or negative cost would poison the scheduler's WFQ
    // virtual time and every roll-up it reaches, so it fails in-band at
    // zero cost.
    if (std::string bad = bad_cost(res); !bad.empty())
      return make_failed(req, backend.name(),
                         "backend returned a cost that is not finite and >= 0: " + bad);
    return res;
  } catch (const std::exception& e) {
    return make_failed(req, backend.name(), std::string("backend exception: ") + e.what());
  } catch (...) {
    return make_failed(req, backend.name(), "backend exception");
  }
}

std::string validate(const KernelRequest& req) {
  const KernelTraits* traits = try_kernel_traits(req.kind);
  if (!traits) return "unregistered kernel kind";
  // Every cost model divides by the bandwidth: zero, negative or NaN would
  // come back as an ok result with an infinite, negative or NaN cost.
  if (!std::isfinite(req.bw_words_per_cycle) || req.bw_words_per_cycle <= 0.0)
    return "bw_words_per_cycle must be finite and > 0, got " +
           std::to_string(req.bw_words_per_cycle);
  // Every kind's shape checks take remainders by the core size.
  if (req.core.nr < 1) return "core.nr must be >= 1, got " + std::to_string(req.core.nr);
  // The energy models divide by the clock and scale by the node: a clock
  // that is not positive and finite, or an unknown node, would be priced
  // as NaN, negative or silently at the wrong operating point.
  for (const double ghz : {req.core.pe.clock_ghz, req.chip.core.pe.clock_ghz})
    if (!std::isfinite(ghz) || ghz <= 0.0)
      return "core clock_ghz must be finite and > 0, got " + std::to_string(ghz);
  for (const auto& [prefix, core] : {std::pair{"core.", &req.core},
                                     {"chip.core.", &req.chip.core}})
    if (std::string err = validate_core(*core, prefix); !err.empty()) return err;
  if (!std::isfinite(req.tech.clock_ghz) || req.tech.clock_ghz < 0.0)
    return "tech.clock_ghz must be finite and >= 0 (0 = core clock), got " +
           std::to_string(req.tech.clock_ghz);
  if (req.tech.node != arch::TechNode::nm65 &&
      req.tech.node != arch::TechNode::nm45 && req.tech.node != arch::TechNode::nm32)
    return "tech.node must be nm65, nm45 or nm32, got " +
           std::to_string(static_cast<int>(req.tech.node));
  return traits->validate(req);
}

}  // namespace lac::fabric
