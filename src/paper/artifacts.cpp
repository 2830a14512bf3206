#include "paper/artifacts.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "arch/presets.hpp"
#include "common/random.hpp"
#include "compare/arch_db.hpp"
#include "compare/breakdown.hpp"
#include "fabric/kernel_registry.hpp"
#include "fabric/model_executor.hpp"
#include "fabric/sim_executor.hpp"
#include "fft/fft_kernel.hpp"
#include "fft/fft_model.hpp"
#include "fft/hybrid_design.hpp"
#include "kernels/chip_gemm.hpp"
#include "kernels/cholesky_kernel.hpp"
#include "kernels/gemm_kernel.hpp"
#include "kernels/lu_kernel.hpp"
#include "kernels/syrk_kernel.hpp"
#include "kernels/trsm_kernel.hpp"
#include "kernels/vnorm_kernel.hpp"
#include "model/blocking.hpp"
#include "model/chip_model.hpp"
#include "model/core_model.hpp"
#include "model/level3_model.hpp"
#include "model/validation.hpp"
#include "power/chip_power.hpp"
#include "power/energy_model.hpp"
#include "power/fmac_model.hpp"
#include "power/metrics.hpp"
#include "power/pe_power.hpp"
#include "power/sfu_model.hpp"
#include "power/sram_model.hpp"

namespace lac::paper {

void Report::gap(const std::string& name, double reference, double value) {
  const double g = std::abs(value / reference - 1.0);
  auto it = std::find_if(gaps_.begin(), gaps_.end(),
                         [&name](const Gap& known) { return known.name == name; });
  if (it == gaps_.end())
    gaps_.push_back({name, g});
  else
    it->worst = std::max(it->worst, g);
}

std::string Report::vs(double paper, double model, int decimals) {
  gap("paper", paper, model);
  return fmt(paper, decimals) + " | " + fmt(model, decimals);
}

std::string Report::vs_pct(double paper, double model) {
  gap("paper", paper, model);
  return fmt_pct(paper) + " | " + fmt_pct(model);
}

void Report::line(std::string_view text) {
  text_ += text;
  text_ += '\n';
}

void Report::csv(const std::string& file, const std::vector<std::string>& cells) {
  auto it = std::find_if(csv_.begin(), csv_.end(),
                         [&file](const CsvFile& f) { return f.name == file; });
  if (it == csv_.end()) it = csv_.insert(csv_.end(), CsvFile{file, {}});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) it->text += ',';
    it->text += cells[i];
  }
  it->text += '\n';
}

namespace {

// ---- Chapter 3: the core --------------------------------------------------

struct Table31Row {
  Precision prec;
  double ghz, area, mem_mw, fmac_mw, pe_mw, w_mm2, gf_mm2, gf_w, gf2_w;
};

// Values as printed in Table 3.1 of the dissertation.
constexpr Table31Row kTable31[] = {
    {Precision::Single, 2.08, 0.148, 15.22, 32.3, 47.5, 0.331, 28.12, 84.8, 352.7},
    {Precision::Single, 1.32, 0.146, 9.66, 13.4, 23.1, 0.168, 18.07, 107.5, 283.8},
    {Precision::Single, 0.98, 0.144, 7.17, 8.7, 15.9, 0.120, 13.56, 113.0, 221.5},
    {Precision::Single, 0.50, 0.144, 3.66, 3.3, 7.0, 0.059, 6.94, 117.9, 117.9},
    {Precision::Double, 1.81, 0.181, 13.25, 105.5, 118.7, 0.670, 19.92, 29.7, 107.5},
    {Precision::Double, 0.95, 0.174, 6.95, 31.0, 38.0, 0.235, 10.92, 46.4, 88.2},
    {Precision::Double, 0.33, 0.167, 2.41, 6.0, 8.4, 0.068, 3.95, 57.8, 38.1},
    {Precision::Double, 0.20, 0.169, 1.46, 3.4, 4.8, 0.046, 2.37, 51.1, 20.4},
};

void table_3_1(Report& out) {
  Table t("Table 3.1 -- PE performance/area/power vs frequency (paper | model)");
  t.set_header({"prec", "GHz", "area mm2", "mem mW", "FMAC mW", "PE mW", "W/mm2",
                "GF/mm2", "GF/W", "GF^2/W"});
  for (const Table31Row& row : kTable31) {
    const arch::CoreConfig core = row.prec == Precision::Double
                                      ? arch::lac_4x4_dp(row.ghz)
                                      : arch::lac_4x4_sp(row.ghz);
    // Table 3.1 charges the combined 16 KB dual-ported store at streaming
    // rate; evaluate the same configuration for the memory column.
    const double mem_mw = power::pe_sram_dynamic_mw(16.0, 2, row.ghz);
    const double fmac_mw = power::fmac_dynamic_mw(row.prec, row.ghz);
    const double pe_mw = fmac_mw + mem_mw;  // dynamic, as published
    power::Metrics m;
    m.flops_per_s = units::FlopsPerSecond(power::pe_peak_gflops(core.pe) * 1e9);
    m.watts = units::Watts(pe_mw / 1000.0);
    m.area_mm2 = units::SquareMillimeters(power::pe_area_mm2(core));
    t.add_row({row.prec == Precision::Double ? "DP" : "SP", fmt(row.ghz, 2),
               out.vs(row.area, m.area_mm2.value(), 3), out.vs(row.mem_mw, mem_mw, 2),
               out.vs(row.fmac_mw, fmac_mw, 1), out.vs(row.pe_mw, pe_mw, 1),
               out.vs(row.w_mm2, m.w_per_mm2(), 3), out.vs(row.gf_mm2, m.gflops_per_mm2(), 2),
               out.vs(row.gf_w, m.gflops_per_w(), 1),
               out.vs(row.gf2_w, m.inverse_energy_delay_gflops2_per_w(), 1)});
  }
  out.print(t);
  out.line("note: paper PE column is dynamic power; leakage (25-30% of "
           "dynamic) is modeled separately.");
}

void table_3_2(Report& out) {
  Table t("Table 3.2 -- cores running GEMM (45nm scaled)");
  t.set_header({"architecture", "W/mm2", "GFLOPS/mm2", "GFLOPS/W", "util", "source"});
  auto emit = [&](const compare::ArchRow& r) {
    t.add_row({r.name, fmt(r.w_per_mm2, 2), fmt(r.gflops_per_mm2, 2),
               fmt(r.gflops_per_w, 1), fmt_pct(r.utilization),
               r.from_model ? "model" : "published"});
  };
  for (const auto& r : compare::table32_published())
    if (r.precision == Precision::Single) emit(r);
  emit(compare::lac_core_row(Precision::Single));
  t.add_separator();
  for (const auto& r : compare::table32_published())
    if (r.precision == Precision::Double) emit(r);
  emit(compare::lac_core_row(Precision::Double));
  out.print(t);
}

void fig_3_4(Report& out) {
  const index_t n = 512;
  const double bytes_per_cycle[] = {1, 2, 3, 4, 8};
  const double kb_axis[] = {2, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40};
  out.csv("fig_3_4.csv", {"nr", "bytes_per_cycle", "kb_per_pe", "utilization"});
  for (int nr : {4, 8}) {
    Table t("Fig 3.4 -- utilization [%] vs local store (nr=" + fmt_int(nr) + ", n=512, DP)");
    std::vector<std::string> header{"KB/PE"};
    for (double b : bytes_per_cycle) header.push_back(fmt(b, 0) + " B/cyc");
    t.set_header(header);
    for (double kb : kb_axis) {
      std::vector<std::string> row{fmt(kb, 0)};
      for (double b : bytes_per_cycle) {
        const auto best = model::best_core_utilization(nr, n, b / 8.0, kb);
        row.push_back(fmt_pct(best.utilization));
        out.csv("fig_3_4.csv", {fmt_int(nr), fmt(b, 0), fmt(kb, 0),
                                fmt(best.utilization, 4)});
      }
      t.add_row(row);
    }
    out.print(t);
  }
  // Simulator spot checks at two operating points (scaled-down n for
  // runtime; the utilization regime matches the model's prediction).
  out.line("simulator spot-checks (nr=4, n=64):");
  for (double b : {2.0, 8.0}) {
    const auto best = model::best_core_utilization(4, 64, b / 8.0, 8.0);
    MatrixD a = random_matrix(best.mc, best.kc, 1);
    MatrixD bm = random_matrix(best.kc, 64, 2);
    MatrixD c(best.mc, 64, 0.0);
    const auto sim = kernels::gemm_core(arch::lac_4x4_dp(), b / 8.0, a.view(), bm.view(),
                                        c.view(), best.overlap);
    out.line("  " + fmt(b, 0) + " B/cyc: model " + fmt_pct(best.utilization, 1) + "  sim " +
             fmt_pct(sim.utilization, 1));
  }
  out.line("series written to fig_3_4.csv");
}

void fig_3_5(Report& out) {
  Table t("Fig 3.5 -- peak-sustaining bandwidth [bytes/cycle] vs local store");
  t.set_header({"KB/PE", "nr=4", "nr=8"});
  out.csv("fig_3_5.csv", {"kb_per_pe", "bw_nr4_bytes", "bw_nr8_bytes"});
  for (double kb = 2.0; kb <= 20.0; kb += 2.0) {
    std::vector<std::string> row{fmt(kb, 0)};
    std::vector<std::string> csvrow{fmt(kb, 0)};
    for (int nr : {4, 8}) {
      // Largest full-overlap square kernel fitting the budget.
      const double budget_words = kb * 1024.0 / 8.0 * nr * nr;
      model::CoreGemmParams p;
      p.nr = nr;
      p.n = 512;
      p.overlap = model::Overlap::Full;
      index_t best_mc = nr;
      for (index_t mc = nr; mc <= 512; mc += nr) {
        p.mc = p.kc = mc;
        if (model::local_store_words(p) > budget_words) break;
        best_mc = mc;
      }
      p.mc = p.kc = best_mc;
      const double bytes = model::min_bw_for_peak(p) * 8.0;
      row.push_back(fmt(bytes, 2));
      csvrow.push_back(fmt(bytes, 3));
    }
    t.add_row(row);
    out.csv("fig_3_5.csv", csvrow);
  }
  out.print(t);
  out.line("doubling nr at fixed store doubles the demand (quadruple compute).");
  out.line("series written to fig_3_5.csv");
}

void fig_3_6_3_7(Report& out) {
  Table t("Figs 3.6/3.7 -- DP PE efficiency metrics vs frequency");
  t.set_header({"GHz", "mm2/GFLOP", "mW/GFLOP", "E-D mW/GF^2", "GF/W", "GF/mm2"});
  out.csv("fig_3_6_3_7.csv", {"ghz", "mm2_per_gflop", "mw_per_gflop", "energy_delay",
                              "gflops_per_w", "gflops_per_mm2"});
  double best_ed = 1e300;
  double best_ed_freq = 0.0;
  for (double f = 0.2; f <= 1.85; f += 0.15) {
    arch::CoreConfig core = arch::lac_4x4_dp(f);
    const power::PePower p = power::pe_power(core, power::gemm_activity(4));
    power::Metrics m;
    m.flops_per_s = units::FlopsPerSecond(power::pe_peak_gflops(core.pe) * 1e9);
    m.watts = units::Watts(p.total_mw / 1000.0);
    m.area_mm2 = units::SquareMillimeters(power::pe_area_mm2(core));
    t.add_row({fmt(f, 2), fmt(m.mm2_per_gflop(), 4), fmt(m.mw_per_gflop(), 2),
               fmt(m.energy_delay_mw_per_gflops2(), 2), fmt(m.gflops_per_w(), 1),
               fmt(m.gflops_per_mm2(), 2)});
    out.csv("fig_3_6_3_7.csv",
            {fmt(f, 2), fmt(m.mm2_per_gflop(), 5), fmt(m.mw_per_gflop(), 3),
             fmt(m.energy_delay_mw_per_gflops2(), 4), fmt(m.gflops_per_w(), 2),
             fmt(m.gflops_per_mm2(), 3)});
    // Sweet-spot figure of merit: E-D improvement saturates near 1 GHz.
    const double merit = m.energy_delay_mw_per_gflops2() * (1.0 + 0.25 / f);
    if (merit < best_ed) {
      best_ed = merit;
      best_ed_freq = f;
    }
  }
  out.print(t);
  out.line("energy-delay / efficiency sweet spot near " + fmt(best_ed_freq, 2) +
           " GHz (paper: ~1 GHz)");
  out.line("series written to fig_3_6_3_7.csv");
}

// ---- Chapter 4: the chip --------------------------------------------------

void table_4_1_at(Report& out, const char* title, model::ChipGemmParams p) {
  Table t(title);
  t.set_header({"layer / quantity", "partial overlap", "full overlap"});
  auto both = [&p](auto fn) {
    p.overlap = model::Overlap::Partial;
    const double a = fn(p);
    p.overlap = model::Overlap::Full;
    const double b = fn(p);
    return std::make_pair(a, b);
  };
  auto [ls_p, ls_f] = both([](const auto& q) { return model::table41_local_store_words_per_pe(q); });
  t.add_row({"local store [words/PE]", fmt(ls_p, 0), fmt(ls_f, 0)});
  auto [ic_p, ic_f] = both([](const auto& q) { return model::table41_intra_core_bw_words(q); });
  t.add_row({"intra-core BW [words/cyc]", fmt(ic_p, 2), fmt(ic_f, 2)});
  auto [cc_p, cc_f] = both([](const auto& q) { return model::table41_core_chip_bw_words(q); });
  t.add_row({"core<->chip BW [words/cyc]", fmt(cc_p, 3), fmt(cc_f, 3)});
  auto [m_p, m_f] = both([](const auto& q) {
    return model::table41_onchip_mem_words(q) * 8.0 / 1048576.0;
  });
  t.add_row({"on-chip memory [MB]", fmt(m_p, 2), fmt(m_f, 2)});
  auto [ib_p, ib_f] = both([](const auto& q) { return model::table41_intra_chip_bw_words(q); });
  t.add_row({"intra-chip BW [words/cyc]", fmt(ib_p, 2), fmt(ib_f, 2)});
  auto [ob_p, ob_f] = both([](const auto& q) { return model::table41_offchip_bw_words(q); });
  t.add_row({"off-chip BW [words/cyc]", fmt(ob_p, 3), fmt(ob_f, 3)});
  out.print(t);
}

void table_4_1(Report& out) {
  model::ChipGemmParams ref;
  ref.nr = 4;
  ref.cores = 8;
  ref.mc = ref.kc = 128;
  ref.n = 2048;
  table_4_1_at(out, "Table 4.1 -- S=8, nr=4, mc=kc=128, n=2048 (DP words)", ref);
  model::ChipGemmParams fermi;
  fermi.nr = 4;
  fermi.cores = 14;
  fermi.mc = fermi.kc = 20;
  fermi.n = 280;
  table_4_1_at(out, "Table 4.1 evaluated at the Fermi C2050 point (S=14, mc=kc=20, n=280)",
               fermi);
}

void table_4_2(Report& out) {
  Table t("Table 4.2 -- systems running GEMM (45nm scaled)");
  t.set_header({"architecture", "GFLOPS", "W/mm2", "GFLOPS/mm2", "GFLOPS/W",
                "GFLOPS^2/W", "util", "source"});
  auto emit = [&](const compare::ArchRow& r) {
    t.add_row({r.name, fmt(r.gflops, 0), fmt(r.w_per_mm2, 2),
               fmt(r.gflops_per_mm2, 2), fmt(r.gflops_per_w, 2),
               fmt(r.metrics().inverse_energy_delay_gflops2_per_w(), 0),
               fmt_pct(r.utilization), r.from_model ? "model" : "published"});
  };
  for (const auto& r : compare::table42_published())
    if (r.precision == Precision::Single) emit(r);
  emit(compare::lap_chip_row(Precision::Single));
  t.add_separator();
  for (const auto& r : compare::table42_published())
    if (r.precision == Precision::Double) emit(r);
  emit(compare::lap_chip_row(Precision::Double));
  out.print(t);

  Table d("Table 4.3 -- main design choices (qualitative)");
  d.set_header({"dimension", "CPUs", "GPUs", "LAP"});
  for (const auto& r : compare::table43_design_choices())
    d.add_row({r.dimension, r.cpus, r.gpus, r.lap});
  out.print(d);
}

void sec_4_3(Report& out) {
  Table t("§4.3 -- analytical model validation against published machines "
          "(measured | model)");
  t.set_header({"machine", "block (ns, mc)", "req. on-chip GB/s", "avail",
                "req. off-chip GB/s", "avail", "GEMM utilization"});
  for (const model::ValidationCase& v : model::all_validation_cases()) {
    t.add_row({v.name, "(" + fmt_int(v.ns) + ", " + fmt_int(v.mc) + ")",
               v.required_onchip_gbs > 0 ? fmt(v.required_onchip_gbs, 0) : "-",
               fmt(v.avail_onchip_gbs, 0),
               v.required_offchip_gbs > 0 ? fmt(v.required_offchip_gbs, 1) : "-",
               fmt(v.avail_offchip_gbs, 0),
               out.vs_pct(v.measured_utilization, v.predicted_utilization)});
  }
  out.print(t);
  out.line("note: the CSX's 4.7 GB/s off-chip demand is the published "
           "analysis's figure, not a model output.");
}

void fig_4_2(Report& out) {
  struct Org {
    int cores, nr;
  };
  out.csv("fig_4_2.csv", {"cores", "nr", "n", "mem_mb", "bw_bytes_per_cycle"});
  for (const Org& org : {Org{8, 4}, Org{2, 8}}) {
    for (index_t n : {512, 1024, 2048}) {
      Table t("Fig 4.2 -- S=" + fmt_int(org.cores) + ", nr=" + fmt_int(org.nr) +
              ", n=" + fmt_int(n));
      t.set_header({"mc=kc", "streaming memory [MB]", "on-chip BW [B/cyc]"});
      const index_t step = index_t{16} * org.nr;
      for (index_t mc = step; mc <= 512; mc += step) {
        model::ChipGemmParams p;
        p.nr = org.nr;
        p.cores = org.cores;
        p.mc = p.kc = mc;
        p.n = n;
        // Streaming working set: resident A blocks + double-buffered B/C
        // panels (the C block itself streams; this sweep holds util >93%).
        const double mem_words = static_cast<double>(org.cores) * mc * mc +
                                 2.0 * static_cast<double>(mc) * n;
        const double mem_mb = mem_words * 8.0 / 1048576.0;
        const double bw_bytes = model::table41_intra_chip_bw_words(p) * 8.0;
        if (mem_mb > 14.0) break;
        t.add_row({fmt_int(mc), fmt(mem_mb, 2), fmt(bw_bytes, 1)});
        out.csv("fig_4_2.csv", {fmt_int(org.cores), fmt_int(org.nr), fmt_int(n),
                                fmt(mem_mb, 3), fmt(bw_bytes, 2)});
      }
      out.print(t);
    }
  }
  out.line("bigger-but-fewer cores need less on-chip bandwidth at equal memory;");
  out.line("bandwidth grows hyperbolically as memory shrinks. CSV: fig_4_2.csv");
}

void fig_4_3(Report& out) {
  const double mem_axis_mb[] = {0.5, 1, 2, 4, 6, 8, 10, 13};
  struct Cfg {
    int cores;
    double bw;
  };
  const Cfg cfgs[] = {{4, 1}, {8, 2}, {12, 3}, {16, 4},    // S/BW = 4 (linear)
                      {4, 2}, {8, 4}, {12, 6}, {16, 8},    // S/BW = 2
                      {4, 4}, {8, 8}, {12, 12}, {16, 16},  // S/BW = 1
                      {4, 8}, {8, 16}, {12, 24}, {16, 32}};
  // Single-core baseline: S=1 at 1 word/cycle with ample memory.
  const model::ChipBestPoint base = model::best_chip_utilization(4, 1, 16.0, 1.0, 1e9, 2048);
  const double base_perf = base.utilization * 16.0;  // MACs/cycle

  out.csv("fig_4_3.csv", {"cores", "bw_words", "mem_mb", "relative_perf_pct"});
  Table t("Fig 4.3 -- relative performance [% of single core] vs on-chip memory");
  std::vector<std::string> header{"S", "BW w/c"};
  for (double mb : mem_axis_mb) header.push_back(fmt(mb, 1) + "MB");
  t.set_header(header);
  for (const Cfg& c : cfgs) {
    std::vector<std::string> row{fmt_int(c.cores), fmt(c.bw, 0)};
    for (double mb : mem_axis_mb) {
      const auto pt = model::best_chip_utilization(4, c.cores, mb, c.bw, 1e9, 2048);
      const double rel = pt.utilization * c.cores * 16.0 / base_perf * 100.0;
      row.push_back(fmt(rel, 0));
      out.csv("fig_4_3.csv",
              {fmt_int(c.cores), fmt(c.bw, 0), fmt(mb, 2), fmt(rel, 1)});
    }
    t.add_row(row);
  }
  out.print(t);
  out.line("same-S/BW groups coincide at small memory (linear scaling buys "
           "nothing); CSV: fig_4_3.csv");
}

void fig_4_5(Report& out) {
  const index_t problems[] = {512, 1024, 2048};
  Table t("Fig 4.5 -- external bandwidth [B/cyc] vs on-chip memory");
  std::vector<std::string> header{"mem MB"};
  for (index_t n : problems) header.push_back("n=" + fmt_int(n));
  t.set_header(header);
  out.csv("fig_4_5.csv", {"mem_mb", "n", "ext_bw_bytes_per_cycle", "ns", "k"});
  for (double mb : {0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 18.0}) {
    std::vector<std::string> row{fmt(mb, 1)};
    for (index_t n : problems) {
      const model::BlockingChoice c = model::best_blocking(n, mb, 128);
      if (c.bw_words > 1e200) {
        row.push_back("-");
        continue;
      }
      const double bytes = c.bw_words * 8.0;
      row.push_back(fmt(bytes, 2));
      out.csv("fig_4_5.csv", {fmt(mb, 2), fmt_int(n), fmt(bytes, 3),
                              fmt_int(c.blocking.ns), fmt_int(c.blocking.k)});
    }
    t.add_row(row);
  }
  out.print(t);
  out.line("larger problems need less external bandwidth at equal memory; "
           "CSV: fig_4_5.csv");
}

void fig_4_6(Report& out) {
  const double clock_ghz = 1.4;
  struct Cfg {
    int cores;
    double z_bytes;  // external bandwidth in bytes/cycle
  };
  const Cfg cfgs[] = {{16, 24}, {16, 16}, {16, 8}, {8, 16},
                      {8, 8},   {8, 4},   {4, 16}, {4, 8}, {4, 4}};
  const double mem_axis_mb[] = {0.5, 1, 2, 3, 4, 5, 6, 8};
  Table t("Fig 4.6 -- LAP GFLOPS vs off-chip BW and on-chip memory (1.4 GHz)");
  std::vector<std::string> header{"S", "ext B/cyc"};
  for (double mb : mem_axis_mb) header.push_back(fmt(mb, 1) + "MB");
  t.set_header(header);
  out.csv("fig_4_6.csv", {"cores", "ext_bw_bytes", "mem_mb", "gflops"});
  for (const Cfg& c : cfgs) {
    std::vector<std::string> row{fmt_int(c.cores), fmt(c.z_bytes, 0)};
    for (double mb : mem_axis_mb) {
      const auto pt = model::best_chip_utilization(
          4, c.cores, mb, /*onchip_bw=*/4.0 * c.cores, c.z_bytes / 8.0, 4096);
      const double gflops = pt.utilization * c.cores * 16 * 2.0 * clock_ghz;
      row.push_back(fmt(gflops, 0));
      out.csv("fig_4_6.csv",
              {fmt_int(c.cores), fmt(c.z_bytes, 0), fmt(mb, 2), fmt(gflops, 1)});
    }
    t.add_row(row);
  }
  out.print(t);
  out.line("paper headline: 16 cores + 5MB + 16B/cyc -> ~600 of 700 GFLOPS "
           "peak; CSV: fig_4_6.csv");
}

void fig_4_7_4_8(Report& out) {
  Table t("Figs 4.7/4.8 -- DP PE area & power vs local-store size (1 GHz)");
  t.set_header({"store KB", "store mm2", "FPU mm2", "PE mm2", "store mW",
                "FPU mW", "PE mW", "leak mW", "mW/GFLOP"});
  out.csv("fig_4_7_4_8.csv", {"store_kb", "store_mm2", "pe_mm2", "store_mw", "pe_mw",
                              "leak_mw", "mw_per_gflop"});
  for (double kb = 2.0; kb <= 20.0; kb += 2.0) {
    arch::CoreConfig core = arch::lac_4x4_dp(1.0);
    core.pe.mem_a_kbytes = kb - core.pe.mem_b_kbytes;
    const double store_mm2 = power::pe_sram_area_mm2(core.pe.mem_a_kbytes, 1) +
                             power::pe_sram_area_mm2(core.pe.mem_b_kbytes, 2);
    const double pe_mm2 = power::pe_area_mm2(core);
    const power::PePower p = power::pe_power(core, power::gemm_activity(4));
    const double gflops = power::pe_peak_gflops(core.pe);
    t.add_row({fmt(kb, 0), fmt(store_mm2, 3),
               fmt(power::fmac_area_mm2(core.pe.precision), 3), fmt(pe_mm2, 3),
               fmt(p.memory_mw, 2), fmt(p.mac_mw, 1), fmt(p.total_mw, 1),
               fmt(p.leakage_mw, 1), fmt(p.total_mw / gflops, 2)});
    out.csv("fig_4_7_4_8.csv",
            {fmt(kb, 0), fmt(store_mm2, 4), fmt(pe_mm2, 4),
             fmt(p.memory_mw, 3), fmt(p.total_mw, 2), fmt(p.leakage_mw, 2),
             fmt(p.total_mw / gflops, 3)});
  }
  out.print(t);
  out.line("at ~18 KB the store occupies ~2/3 of the PE; power stays "
           "FPU-dominated (paper §4.4). CSV: fig_4_7_4_8.csv");
}

void chip_memory_sweep(Report& out, arch::OnChipMemKind kind, const char* title,
                       const std::string& csv) {
  Table t(title);
  t.set_header({"mem MB", "cores mm2", "mem mm2", "chip mm2", "cores mW/GF",
                "mem mW/GF", "chip mW/GF"});
  out.csv(csv, {"mem_mb", "cores_mm2", "mem_mm2", "chip_mm2", "cores_mw_gf",
                "mem_mw_gf", "chip_mw_gf"});
  for (double mb : {0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 13.0}) {
    arch::ChipConfig chip = arch::lap_s8(mb);
    chip.mem_kind = kind;
    // Smaller memories force higher streamed bandwidth (Fig 4.5 trade-off).
    const model::BlockingChoice blk = model::best_blocking(2048, mb, 128);
    const double words_per_cycle =
        blk.bw_words < 1e200 ? 16.0 / std::max(0.25, mb) + blk.bw_words * 8.0 : 64.0;
    const power::ChipReport r = power::chip_report(chip, 0.93, words_per_cycle);
    t.add_row({fmt(mb, 2), fmt(r.cores_area_mm2, 1), fmt(r.mem_area_mm2, 1),
               fmt(r.chip_area_mm2, 1), fmt(r.cores_power_mw / r.gflops, 2),
               fmt(r.mem_power_mw / r.gflops, 2), fmt(r.mw_per_gflop(), 2)});
    out.csv(csv, {fmt(mb, 2), fmt(r.cores_area_mm2, 2), fmt(r.mem_area_mm2, 2),
                  fmt(r.chip_area_mm2, 2), fmt(r.cores_power_mw / r.gflops, 3),
                  fmt(r.mem_power_mw / r.gflops, 3), fmt(r.mw_per_gflop(), 3)});
  }
  out.print(t);
}

void fig_4_9_4_12(Report& out) {
  chip_memory_sweep(out, arch::OnChipMemKind::BankedSram,
                    "Figs 4.9/4.10 -- banked SRAM on-chip memory (S=8, 128 MACs, n=2048)",
                    "fig_4_9_4_10.csv");
  out.line("SRAM design: cores dominate power at every capacity.\n");
  chip_memory_sweep(out, arch::OnChipMemKind::Nuca,
                    "Figs 4.11/4.12 -- NUCA on-chip memory (same system)",
                    "fig_4_11_4_12.csv");
  out.line("NUCA: small high-bandwidth caches out-consume and out-size the "
           "cores; bigger+slower NUCA is the better NUCA.");
}

void breakdown_table(Report& out, const char* title,
                     const std::vector<compare::PowerBreakdown>& fig) {
  Table t(title);
  t.set_header({"machine", "workload", "component", "mW/GFLOP", "share"});
  for (const auto& b : fig) {
    const double total = b.total_mw_per_gflop();
    for (const auto& c : b.components)
      t.add_row({b.machine, b.workload, c.name, fmt(c.mw_per_gflop, 2),
                 fmt_pct(c.mw_per_gflop / total)});
    t.add_row({b.machine, b.workload, "TOTAL", fmt(total, 1), "100%"});
    t.add_separator();
  }
  out.print(t);
}

void fig_4_13_4_15(Report& out) {
  breakdown_table(out, "Fig 4.13 -- GTX280 vs LAP power breakdown (65nm, normalized)",
                  compare::fig413_gtx280_vs_lap());
  breakdown_table(out, "Fig 4.14 -- GTX480 vs LAP power breakdown (45nm)",
                  compare::fig414_gtx480_vs_lap());
  breakdown_table(out, "Fig 4.15 -- Penryn vs LAP-2 power breakdown (45nm)",
                  compare::fig415_penryn_vs_lap());
  out.line("register files/instruction handling dominate the programmable "
           "machines; the LAP spends its budget in the MACs.");
}

void fig_4_16(Report& out) {
  Table t("Fig 4.16 -- GEMM GFLOPS/W, platform vs throughput-matched LAP");
  t.set_header({"configuration", "core GFLOPS/W", "chip GFLOPS/W"});
  for (const auto& p : compare::fig416_efficiency_comparison())
    t.add_row({p.name, fmt(p.core_gflops_per_w, 1), fmt(p.chip_gflops_per_w, 1)});
  out.print(t);
}

// ---- Chapter 5: level-3 BLAS ----------------------------------------------

void table_5_1(Report& out) {
  struct PaperRow {
    model::Level3Op op;
    int nr;
    double w_mm2, gf_mm2, gf_w, util;
  };
  // Values as printed in Table 5.1 of the dissertation.
  const PaperRow paper[] = {
      {model::Level3Op::Gemm, 4, 0.397, 21.61, 54.4, 1.00},
      {model::Level3Op::Trsm, 4, 0.377, 20.53, 51.7, 0.95},
      {model::Level3Op::Syrk, 4, 0.357, 19.45, 49.0, 0.90},
      {model::Level3Op::Syr2k, 4, 0.314, 17.07, 43.0, 0.79},
      {model::Level3Op::Gemm, 8, 0.397, 21.61, 54.4, 1.00},
      {model::Level3Op::Trsm, 8, 0.377, 20.53, 51.7, 0.95},
      {model::Level3Op::Syrk, 8, 0.346, 18.80, 47.3, 0.87},
      {model::Level3Op::Syr2k, 8, 0.290, 15.77, 39.7, 0.73},
  };
  Table t("Table 5.1 -- LAC level-3 BLAS efficiency at 1.1 GHz (paper | model)");
  t.set_header({"op", "nr", "W/mm2", "GFLOPS/mm2", "GFLOPS/W", "utilization"});
  for (const PaperRow& row : paper) {
    arch::CoreConfig core = row.nr == 4 ? arch::lac_4x4_dp(1.1) : arch::lac_8x8_dp(1.1);
    // Table 5.1 evaluates a lean 4 KB/PE configuration (the level-3
    // working sets fit smaller stores than the 16 KB GEMM design).
    core.pe.mem_a_kbytes = 4.0;
    const double util = model::table51_utilization(row.op, row.nr);
    const power::PeActivity act = power::gemm_activity(core.nr);
    const double watts = power::core_power_mw(core, act) / 1000.0;
    const double area = power::core_area_mm2(core);
    const double gflops = core.peak_gflops() * util;
    t.add_row({model::to_string(row.op), fmt_int(row.nr), out.vs(row.w_mm2, watts / area, 3),
               out.vs(row.gf_mm2, gflops / area, 2), out.vs(row.gf_w, gflops / watts, 1),
               out.vs_pct(row.util, util)});
  }
  out.print(t);
}

void level3_sweep(Report& out, model::Level3Op op, const char* title, const std::string& csv) {
  const double bytes_per_cycle[] = {1, 2, 3, 4, 8};
  out.csv(csv, {"nr", "bytes_per_cycle", "kb_per_pe", "utilization"});
  for (int nr : {4, 8}) {
    Table t(std::string(title) + " (nr=" + fmt_int(nr) + ", n=512)");
    std::vector<std::string> header{"KB/PE"};
    for (double b : bytes_per_cycle) header.push_back(fmt(b, 0) + " B/cyc");
    t.set_header(header);
    for (double kb : {4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0, 32.0, 36.0, 40.0}) {
      std::vector<std::string> row{fmt(kb, 0)};
      for (double b : bytes_per_cycle) {
        const auto best = model::best_level3_utilization(op, nr, 512, b / 8.0, kb);
        row.push_back(fmt_pct(best.utilization));
        out.csv(csv, {fmt_int(nr), fmt(b, 0), fmt(kb, 0), fmt(best.utilization, 4)});
      }
      t.add_row(row);
    }
    out.print(t);
  }
}

void fig_5_8_5_9(Report& out) {
  level3_sweep(out, model::Level3Op::Syrk, "Fig 5.8 -- SYRK utilization", "fig_5_8.csv");
  level3_sweep(out, model::Level3Op::Trsm, "Fig 5.9 -- TRSM utilization", "fig_5_9.csv");
  // Simulator spot-checks (scaled problem sizes).
  const arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD a = random_matrix(48, 48, 1);
  MatrixD c(48, 48, 0.0);
  const auto syrk = kernels::syrk_core(cfg, 1.0, a.view(), c.view());
  MatrixD l = random_lower_triangular(32, 2);
  MatrixD b = random_matrix(32, 32, 3);
  const auto trsm = kernels::trsm_core(cfg, 1.0, l.view(), b.view());
  out.line("simulator: SYRK(48x48,kc=48) util " + fmt_pct(syrk.utilization, 1) +
           " | TRSM(32, rhs 32) util " + fmt_pct(trsm.utilization, 1));
  out.line("CSV: fig_5_8.csv, fig_5_9.csv");
}

void fig_5_10(Report& out) {
  const model::Level3Op ops[] = {model::Level3Op::Gemm, model::Level3Op::Trsm,
                                 model::Level3Op::Syrk, model::Level3Op::Syr2k};
  out.csv("fig_5_10.csv", {"nr", "op", "kb_per_pe", "utilization"});
  for (int nr : {4, 8}) {
    const double bytes = nr == 4 ? 4.0 : 8.0;
    Table t("Fig 5.10 -- level-3 BLAS utilization (nr=" + fmt_int(nr) + ", " + fmt(bytes, 0) +
            " B/cyc, n=512)");
    std::vector<std::string> header{"KB/PE"};
    for (auto op : ops) header.push_back(model::to_string(op));
    t.set_header(header);
    for (double kb : {4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0, 32.0, 36.0, 40.0}) {
      std::vector<std::string> row{fmt(kb, 0)};
      for (auto op : ops) {
        const auto best = model::best_level3_utilization(op, nr, 512, bytes / 8.0, kb);
        row.push_back(fmt_pct(best.utilization));
        out.csv("fig_5_10.csv", {fmt_int(nr), model::to_string(op), fmt(kb, 0),
                                 fmt(best.utilization, 4)});
      }
      t.add_row(row);
    }
    out.print(t);
  }
  out.line("paper operating point (20KB/PE, 4B/cyc, nr=4): GEMM 100%, TRSM "
           "95%, SYRK 90%, SYR2K 85%. CSV: fig_5_10.csv");
}

// ---- Chapter 6 and Appendix A: factorizations and extensions ---------------

constexpr arch::SfuOption kSfuOptions[] = {arch::SfuOption::Software,
                                           arch::SfuOption::IsolatedUnit,
                                           arch::SfuOption::DiagonalPEs};

void table_6_2(Report& out) {
  Table t("Table 6.2 -- cache-contained DP FFT, 45nm scaled");
  t.set_header({"design / platform", "GFLOPS", "W", "GFLOPS/W", "source"});
  for (const auto& r : fft::fft_platform_comparison())
    t.add_row({r.name, fmt(r.gflops, 1), fmt(r.watts, 2), fmt(r.gflops_per_w, 1),
               r.from_model ? "model" : "published"});
  out.print(t);

  Table f("Fig 6.9 -- efficiency normalized to the original LAC @ 1 GHz");
  f.set_header({"PE design", "GEMM (norm.)", "FFT (norm.)"});
  for (const auto& d : fft::pe_designs(1.0))
    f.add_row({d.name, d.supports_gemm ? fmt(d.gemm_eff_norm, 2) : "-",
               d.supports_fft ? fmt(d.fft_eff_norm, 2) : "-"});
  out.print(f);
  out.line("the hybrid runs both workload classes with single-digit-percent "
           "loss on GEMM (paper's 'minimal loss in efficiency').");
}

void fig_6_5(Report& out) {
  Table t("Fig 6.5 -- LAC area breakdown by divide/sqrt option (DP, mm^2)");
  t.set_header({"option", "16 PEs", "MAC extension", "lookup tables",
                "special logic", "total"});
  for (auto opt : kSfuOptions) {
    arch::CoreConfig core = arch::lac_4x4_dp();
    core.sfu = opt;
    const power::SfuAreaBreakdown sfu = power::sfu_area_breakdown(core);
    const double pes = power::pe_area_mm2(core) * core.pes();
    t.add_row({arch::to_string(opt), fmt(pes, 3), fmt(sfu.mac_extension_mm2, 3),
               fmt(sfu.lookup_table_mm2, 3), fmt(sfu.special_logic_mm2, 3),
               fmt(pes + sfu.total(), 3)});
  }
  out.print(t);
}

void extension_table(Report& out, const char* title, bool lu_mode) {
  struct Run {
    double cycles = 0.0;
    double flops = 0.0;
  };
  Table t(std::string(title) + " (simulator, 1 GHz DP core)");
  t.set_header({"SFU option", "MAC ext", "k=64", "k=128", "k=256",
                "GFLOPS/W (k=256)", "GFLOPS/mm2", "GFLOPS^2/W"});
  for (auto opt : kSfuOptions) {
    for (int ext = 0; ext < (lu_mode ? 2 : 3); ++ext) {
      arch::CoreConfig core = arch::lac_4x4_dp(1.0);
      core.sfu = opt;
      std::string ext_name = "none";
      if (ext == 1) {
        core.pe.extensions.comparator = true;
        ext_name = "comparator";
      } else if (ext == 2) {
        core.pe.extensions.extended_exponent = true;
        ext_name = "exp extend";
      }
      std::vector<std::string> row{arch::to_string(opt), ext_name};
      Run last;
      for (index_t k : {64, 128, 256}) {
        Run run;
        if (lu_mode) {
          MatrixD a = random_matrix(k, 4, 7 + static_cast<std::uint64_t>(k));
          const auto r = kernels::lu_panel(core, a.view());
          run.cycles = r.kernel.cycles.value();
          run.flops = static_cast<double>(r.kernel.stats.flops());
        } else {
          Rng rng(11 + static_cast<std::uint64_t>(k));
          std::vector<double> x(static_cast<std::size_t>(k));
          for (auto& v : x) v = rng.uniform(-1.0, 1.0);
          const auto r = kernels::vnorm(core, x);
          run.cycles = r.cycles.value();
          run.flops = static_cast<double>(r.stats.flops());
        }
        row.push_back(fmt(run.cycles, 0) + "cyc");
        last = run;
      }
      power::PeActivity act = power::gemm_activity(core.nr);
      act.mac = last.flops / 2.0 / (last.cycles * 16.0);
      act.mem_b = 0.25;
      const double watts = power::core_power_mw(core, act) / 1000.0;
      const double gflops = last.flops / last.cycles;  // at 1 GHz
      const double area = power::core_area_mm2(core) + power::sfu_area_breakdown(core).total();
      row.push_back(fmt(gflops / watts, 2));
      row.push_back(fmt(gflops / area, 2));
      row.push_back(fmt(gflops * gflops / watts, 1));
      t.add_row(row);
    }
    t.add_separator();
  }
  out.print(t);
}

void fig_6_6_6_7(Report& out) {
  extension_table(out, "Fig 6.6 / A.6-A.8 -- vector-norm inner kernel", /*lu_mode=*/false);
  extension_table(out, "Fig 6.7 / A.3-A.5 -- LU w/ partial pivoting inner kernel",
                  /*lu_mode=*/true);
  out.line("extensions lift efficiency most at small problem sizes; the "
           "diagonal-PE option avoids the bus round-trip of the isolated unit.");
}

void table_a_2(Report& out) {
  // Table A.1: operation table of the divide/square-root unit.
  Table a1("Table A.1 -- divide/square-root unit operations");
  a1.set_header({"op", "seed table", "Goldschmidt iters", "latency", "control"});
  for (const auto& r : power::sfu_operation_table(arch::lac_4x4_dp()))
    a1.add_row({r.op, r.seed, fmt_int(r.goldschmidt_iters), fmt_int(r.latency_cycles),
                r.control});
  out.print(a1);

  // Table A.2: cycles + energy across the option matrix, the energy priced
  // as SimExecutor prices a default request.
  const auto dynamic_nj = [](const arch::CoreConfig& core, const sim::Stats& stats,
                             units::Cycles cycles) {
    return fmt(power::core_energy_from_stats(core, arch::TechNode::nm45, stats, cycles,
                                             arch::ChipConfig{}.onchip_mem_mbytes)
                   .dynamic_nj.value(),
               1);
  };
  Table t("Table A.2 -- cycles | dynamic energy [nJ] per option and size");
  t.set_header({"alg", "MAC ext", "size", "SW", "Isolate", "Diag PEs"});
  struct ExtOpt {
    const char* name;
    bool cmp, expext;
  };
  const ExtOpt none{"none", false, false}, cmp{"comparator", true, false},
      expext{"exp extend", true, true};
  for (const ExtOpt& e : {none, cmp}) {
    for (index_t k : {64, 128, 256}) {
      std::vector<std::string> row{"LU", e.name, fmt_int(k)};
      for (auto opt : kSfuOptions) {
        arch::CoreConfig core = arch::lac_4x4_dp();
        core.sfu = opt;
        core.pe.extensions.comparator = e.cmp;
        MatrixD a = random_matrix(k, 4, 31 + static_cast<std::uint64_t>(k));
        const auto r = kernels::lu_panel(core, a.view());
        row.push_back(fmt(r.kernel.cycles.value(), 0) + " | " +
                      dynamic_nj(core, r.kernel.stats, r.kernel.cycles));
      }
      t.add_row(row);
    }
    t.add_separator();
  }
  for (const ExtOpt& e : {none, cmp, expext}) {
    for (index_t k : {64, 128, 256}) {
      std::vector<std::string> row{"Vnorm", e.name, fmt_int(k)};
      for (auto opt : kSfuOptions) {
        arch::CoreConfig core = arch::lac_4x4_dp();
        core.sfu = opt;
        core.pe.extensions.comparator = e.cmp;
        core.pe.extensions.extended_exponent = e.expext;
        Rng rng(41 + static_cast<std::uint64_t>(k));
        std::vector<double> x(static_cast<std::size_t>(k));
        for (auto& v : x) v = rng.uniform(-1.0, 1.0);
        const auto r = kernels::vnorm(core, x);
        row.push_back(fmt(r.cycles.value(), 0) + " | " + dynamic_nj(core, r.stats, r.cycles));
      }
      t.add_row(row);
    }
    t.add_separator();
  }
  out.print(t);
  out.line("columns: divide/sqrt options; rows: MAC extension x size (per "
           "Table A.2's layout).");
}

// ---- Appendix B: FFT -------------------------------------------------------

void table_b_1(Report& out) {
  Table t("Table B.1 -- large-FFT core requirements");
  t.set_header({"problem", "overlap", "core FFTs", "I/O Mwords", "compute Mcycles",
                "BW needed [w/c]", "store KB/PE"});
  for (index_t n : {64, 256, 1024}) {
    for (bool ovl : {false, true}) {
      for (int kind = 0; kind < 2; ++kind) {
        const fft::FftRequirements r = kind == 0 ? fft::fft2d_requirements(n, ovl)
                                                 : fft::fft1d_four_step_requirements(n, ovl);
        t.add_row({r.problem, ovl ? "yes" : "no", fmt(r.core_ffts, 0),
                   fmt(r.total_io_words / 1e6, 2), fmt(r.compute_cycles / 1e6, 2),
                   fmt(r.bw_words_needed, 2), fmt(r.local_store_kb, 1)});
      }
    }
    t.add_separator();
  }
  out.print(t);
}

void table_b_2_b_3(Report& out) {
  Table b2("Table B.2 -- PE SRAM options (45nm, CACTI-style model)");
  b2.set_header({"option", "area mm2", "mW/GHz (streaming)", "pJ/access"});
  for (const auto& o : fft::sram_menu())
    b2.add_row({o.name, fmt(o.area_mm2, 4), fmt(o.mw_per_ghz, 2),
                fmt(o.access_pj, 2)});
  out.print(b2);

  Table b3("Table B.3 -- PE designs: dedicated LAC / dedicated FFT / hybrid");
  b3.set_header({"design", "GEMM", "FFT", "SRAM organisation", "RF", "area mm2"});
  for (const auto& d : fft::pe_designs()) {
    std::string srams;
    for (const auto& s : d.srams) srams += (srams.empty() ? "" : " + ") + s.name;
    b3.add_row({d.name, d.supports_gemm ? "yes" : "no", d.supports_fft ? "yes" : "no",
                srams, fmt_int(d.rf_entries) + " regs", fmt(d.total_mm2, 3)});
  }
  out.print(b3);
}

void fig_b_5_b_7(Report& out) {
  Table b5("Fig B.5 -- worst-case BW for full overlap (4 words/cyc ceiling)");
  b5.set_header({"core FFT size", "words/cycle", "bytes/cycle"});
  for (index_t n : {64, 256, 1024, 4096}) {
    const double w = fft::required_bw_full_overlap(n);
    b5.add_row({fmt_int(n), fmt(w, 2), fmt(w * 8.0, 1)});
  }
  out.print(b5);

  Table b6("Fig B.6 -- local store/PE and utilization, overlap vs not (2 w/c)");
  b6.set_header({"size", "store KB/PE (no ovl)", "util", "store KB/PE (ovl)", "util"});
  for (index_t n : {64, 256, 1024, 4096}) {
    const auto non = fft::fft_core_point(n, false, 2.0);
    const auto ovl = fft::fft_core_point(n, true, 2.0);
    b6.add_row({fmt_int(n), fmt(non.local_store_kb_per_pe, 2), fmt_pct(non.utilization),
                fmt(ovl.local_store_kb_per_pe, 2), fmt_pct(ovl.utilization)});
  }
  out.print(b6);

  Table b7("Fig B.7 -- average communication load, 64K 1D FFT");
  b7.set_header({"phase", "words/cycle"});
  for (const auto& p : fft::comm_load_64k_1d()) b7.add_row({p.phase, fmt(p.words_per_cycle, 2)});
  out.print(b7);

  // Simulator: a pipelined batch of 64-point transforms (the building
  // block of the large-FFT schedules) at the 4 words/cycle ceiling.
  Rng rng(5);
  std::vector<std::vector<fft::cplx>> frames(16, std::vector<fft::cplx>(64));
  for (auto& f : frames)
    for (auto& v : f) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  const auto batched = fft::fft64_batched(arch::lac_4x4_dp(), 4.0, frames);
  out.line("simulator: 16x 64-pt pipeline at 4 w/c: " + fmt(batched.cycles.value(), 0) +
           " cycles total, " + fmt(batched.cycles.value() / 16.0, 1) +
           " cycles/frame, utilization " + fmt_pct(batched.utilization, 1));
}

void fig_b_11_13(Report& out) {
  Table p("Figs B.11/B.12 -- PE power at 1 GHz [mW]");
  p.set_header({"design", "GEMM actual", "FFT actual", "maximum"});
  for (const auto& d : fft::pe_designs(1.0))
    p.add_row({d.name, d.supports_gemm ? fmt(d.gemm_power_mw, 1) : "-",
               d.supports_fft ? fmt(d.fft_power_mw, 1) : "-", fmt(d.max_power_mw, 1)});
  out.print(p);

  Table a("Fig B.13 -- PE area breakdown [mm^2]");
  a.set_header({"design", "FMAC", "SRAMs", "RF + control", "total"});
  for (const auto& d : fft::pe_designs(1.0))
    a.add_row({d.name, fmt(d.fmac_mm2, 3), fmt(d.sram_mm2, 3),
               fmt(d.rf_ctrl_mm2, 3), fmt(d.total_mm2, 3)});
  out.print(a);
}

// ---- Simulator studies -----------------------------------------------------

void ablation_codesign(Report& out) {
  const arch::CoreConfig base = arch::lac_4x4_dp(1.0);
  {
    Table t("Ablation: operand prefetch & double buffering (GEMM 32x32x64)");
    t.set_header({"bandwidth B/cyc", "partial overlap cycles", "full overlap cycles",
                  "speedup"});
    MatrixD a = random_matrix(32, 32, 1);
    MatrixD b = random_matrix(32, 64, 2);
    MatrixD c(32, 64, 0.0);
    for (double bytes : {2.0, 8.0, 16.0, 32.0}) {
      const auto partial = kernels::gemm_core(base, bytes / 8.0, a.view(), b.view(), c.view(),
                                              model::Overlap::Partial);
      const auto full = kernels::gemm_core(base, bytes / 8.0, a.view(), b.view(), c.view(),
                                           model::Overlap::Full);
      t.add_row({fmt(bytes, 0), fmt(partial.cycles.value(), 0),
                 fmt(full.cycles.value(), 0),
                 fmt(partial.cycles.value() / full.cycles.value(), 2) + "x"});
    }
    out.print(t);
  }
  {
    Table t("Ablation: MAC pipeline depth vs TRSM inner kernels (cycles)");
    t.set_header({"p", "basic 4x4", "stacked (p blocks)", "per-block stacked",
                  "sw-pipelined (4 groups)", "per-block swp"});
    for (int p : {4, 6, 8}) {
      arch::CoreConfig cfg = base;
      cfg.pe.pipeline_stages = p;
      MatrixD l = random_lower_triangular(4, 3);
      MatrixD b1 = random_matrix(4, 4, 4);
      MatrixD bp = random_matrix(4, index_t{4} * p, 5);
      MatrixD bg = random_matrix(4, index_t{16} * p, 6);
      const auto basic = kernels::trsm_inner(cfg, kernels::TrsmVariant::Basic, l.view(), b1.view());
      const auto stacked =
          kernels::trsm_inner(cfg, kernels::TrsmVariant::Stacked, l.view(), bp.view());
      const auto swp = kernels::trsm_inner(cfg, kernels::TrsmVariant::SoftwarePipelined,
                                           l.view(), bg.view(), 4);
      t.add_row({fmt_int(p), fmt(basic.cycles.value(), 0),
                 fmt(stacked.cycles.value(), 0), fmt(stacked.cycles.value() / p, 1),
                 fmt(swp.cycles.value(), 0), fmt(swp.cycles.value() / (4 * p), 1)});
    }
    out.print(t);
  }
  {
    Table t("Ablation: MAC extensions (k=256 inner kernels, cycles)");
    t.set_header({"kernel", "no extension", "comparator", "comparator+exp"});
    MatrixD a = random_matrix(256, 4, 7);
    arch::CoreConfig none = base, cmp = base, both = base;
    cmp.pe.extensions.comparator = true;
    both.pe.extensions.comparator = true;
    both.pe.extensions.extended_exponent = true;
    const auto lu0 = kernels::lu_panel(none, a.view());
    const auto lu1 = kernels::lu_panel(cmp, a.view());
    t.add_row({"LU panel 256x4", fmt(lu0.kernel.cycles.value(), 0),
               fmt(lu1.kernel.cycles.value(), 0), "(n/a)"});
    Rng rng(8);
    std::vector<double> x(256);
    for (auto& v : x) v = rng.uniform(-1, 1);
    const auto v0 = kernels::vnorm(none, x);
    const auto v1 = kernels::vnorm(cmp, x);
    const auto v2 = kernels::vnorm(both, x);
    t.add_row({"vnorm k=256", fmt(v0.cycles.value(), 0), fmt(v1.cycles.value(), 0),
               fmt(v2.cycles.value(), 0)});
    out.print(t);
  }
  {
    Table t("Ablation: divide/sqrt placement (4x4 Cholesky inner kernel)");
    t.set_header({"option", "cycles", "vs isolated"});
    MatrixD spd = random_spd(4, 9);
    double iso_cycles = 0.0;
    for (auto opt : {arch::SfuOption::IsolatedUnit, arch::SfuOption::DiagonalPEs,
                     arch::SfuOption::Software}) {
      arch::CoreConfig cfg = base;
      cfg.sfu = opt;
      const auto r = kernels::cholesky_inner(cfg, spd.view());
      if (opt == arch::SfuOption::IsolatedUnit) iso_cycles = r.cycles.value();
      t.add_row({arch::to_string(opt), fmt(r.cycles.value(), 0),
                 fmt(r.cycles.value() / iso_cycles, 2) + "x"});
    }
    out.print(t);
  }
  out.line("each toggle isolates one §3-§6 codesign decision on the same "
           "simulated fabric.");
}

void chip_scaling(Report& out) {
  const index_t m = 32, n = 32, k = 16;
  MatrixD a = random_matrix(m, k, 1);
  MatrixD b = random_matrix(k, n, 2);
  MatrixD c(m, n, 0.0);
  Table t("Chip simulator scaling: GEMM 32x32x16 across cores");
  t.set_header({"cores", "shared BW w/c", "cycles", "speedup vs 1 core", "util"});
  for (double y : {1.0, 4.0, 16.0}) {
    double base_cycles = 0.0;
    for (int s : {1, 2, 4}) {
      arch::ChipConfig chip = arch::lap_s8();
      chip.cores = s;
      chip.onchip_bw_words_per_cycle = y;
      chip.offchip_bw_words_per_cycle = 8.0;
      const auto r = kernels::chip_gemm(chip, 8, 16, a.view(), b.view(), c.view());
      if (s == 1) base_cycles = r.cycles.value();
      t.add_row({fmt_int(s), fmt(y, 0), fmt(r.cycles.value(), 0),
                 fmt(base_cycles / r.cycles.value(), 2) + "x", fmt_pct(r.utilization)});
    }
    t.add_separator();
  }
  out.print(t);
  out.line("ample shared bandwidth -> near-linear scaling; starved bandwidth "
           "flattens the curve (simulator view of Fig 4.3).");
}

/// Every registered kind's sized request on both backends. Records each
/// kind's worst cycle and energy gaps, with the model as the reference.
void sim_model_gap(Report& out) {
  struct Worst {
    double gap = 0.0;  ///< sim/model - 1, signed
    index_t n = 0;
    double bw = 0.0;
    void see(double g, index_t at_n, double at_bw) {
      if (std::abs(g) > std::abs(gap)) *this = {g, at_n, at_bw};
    }
    std::string gap_cell() const { return (gap >= 0.0 ? "+" : "") + fmt(gap, 4); }
    std::string at_cell() const { return "(" + fmt_int(n) + ", " + fmt(bw, 1) + ")"; }
  };
  const arch::CoreConfig cfg = arch::lac_4x4_dp();
  const fabric::SimExecutor sim;
  const fabric::ModelExecutor model;
  Table t("Sim vs model: worst sim/model - 1 per kind (lac_4x4_dp, n 16-128, "
          "0.5-8 words/cycle)");
  t.set_header({"kind", "cycles", "at (n, bw)", "energy", "at (n, bw)"});
  out.csv("sim_model_gap.csv",
          {"kind", "n", "bw_words_per_cycle", "sim_cycles", "model_cycles",
           "sim_energy_nj", "model_energy_nj", "cycles_ratio", "energy_ratio"});
  for (fabric::KernelKind kind : fabric::registered_kernel_kinds()) {
    const fabric::KernelTraits& traits = fabric::kernel_traits(kind);
    const std::string name = traits.name;
    Worst cycles, energy;
    for (index_t n : {16, 32, 64, 128}) {
      for (double bw : {0.5, 1.0, 2.0, 4.0, 8.0}) {
        const fabric::KernelRequest req = traits.sized_request(cfg, bw, n, 1);
        const fabric::KernelResult s = sim.execute(req);
        const fabric::KernelResult m = model.execute(req);
        if (!s.ok || !m.ok)
          throw std::runtime_error("sim_model_gap: " + name + " at n " + fmt_int(n) +
                                   ", bw " + fmt(bw, 1) + ": " +
                                   (s.ok ? m.error : s.error));
        const double cycles_ratio = s.cycles.value() / m.cycles.value();
        const double energy_ratio = s.energy_nj.value() / m.energy_nj.value();
        out.gap(name + " cycles", m.cycles.value(), s.cycles.value());
        out.gap(name + " energy", m.energy_nj.value(), s.energy_nj.value());
        cycles.see(cycles_ratio - 1.0, n, bw);
        energy.see(energy_ratio - 1.0, n, bw);
        out.csv("sim_model_gap.csv",
                {name, fmt_int(n), fmt(bw, 1), fmt(s.cycles.value(), 2),
                 fmt(m.cycles.value(), 2), fmt(s.energy_nj.value(), 3),
                 fmt(m.energy_nj.value(), 3), fmt(cycles_ratio, 4),
                 fmt(energy_ratio, 4)});
      }
    }
    t.add_row({name, cycles.gap_cell(), cycles.at_cell(), energy.gap_cell(),
               energy.at_cell()});
  }
  out.print(t);
  out.line("every point written to sim_model_gap.csv");
}

// By chapter (3-6, then Apps. A and B), tables (and §4.3's validation)
// before figures, then the three simulator studies.
constexpr Artifact kArtifacts[] = {
    {"table_3_1", "Table 3.1: PE performance, area and power vs frequency, paper | model",
     table_3_1},
    {"table_3_2", "Table 3.2: cores running GEMM, published and modeled (45nm)", table_3_2},
    {"fig_3_4", "Fig 3.4: core utilization vs bandwidth and local store, with sim spot checks",
     fig_3_4},
    {"fig_3_5", "Fig 3.5: peak-sustaining bandwidth vs local store", fig_3_5},
    {"fig_3_6_3_7", "Figs 3.6/3.7: PE efficiency metrics vs frequency", fig_3_6_3_7},
    {"table_4_1", "Table 4.1: bandwidth and memory of every hierarchy layer", table_4_1},
    {"table_4_2", "Tables 4.2/4.3: systems running GEMM, and the design choices", table_4_2},
    {"sec_4_3", "§4.3: model validation against the Fermi C2050 and ClearSpeed CSX, "
     "measured | model", sec_4_3},
    {"fig_4_2", "Fig 4.2: on-chip bandwidth vs on-chip memory for two organisations", fig_4_2},
    {"fig_4_3", "Fig 4.3: LAP performance vs cores, bandwidth and on-chip memory", fig_4_3},
    {"fig_4_5", "Fig 4.5: external bandwidth vs on-chip memory", fig_4_5},
    {"fig_4_6", "Fig 4.6: LAP GFLOPS vs off-chip bandwidth and on-chip memory", fig_4_6},
    {"fig_4_7_4_8", "Figs 4.7/4.8: PE area and power vs local-store size", fig_4_7_4_8},
    {"fig_4_9_4_12", "Figs 4.9-4.12: chip area and power vs on-chip memory, SRAM and NUCA",
     fig_4_9_4_12},
    {"fig_4_13_4_15", "Figs 4.13-4.15: power breakdowns, GPUs and CPU vs LAPs", fig_4_13_4_15},
    {"fig_4_16", "Fig 4.16: GEMM GFLOPS/W, platforms vs throughput-matched LAPs", fig_4_16},
    {"table_5_1", "Table 5.1: LAC level-3 BLAS efficiency at 1.1 GHz, paper | model",
     table_5_1},
    {"fig_5_8_5_9", "Figs 5.8/5.9: SYRK and TRSM utilization, with sim spot checks",
     fig_5_8_5_9},
    {"fig_5_10", "Fig 5.10: level-3 BLAS utilization vs local store", fig_5_10},
    {"table_6_2", "Table 6.2 / Fig 6.9: cache-contained DP FFT comparison", table_6_2},
    {"fig_6_5", "Fig 6.5: LAC area by divide/sqrt option", fig_6_5},
    {"fig_6_6_6_7", "Figs 6.6/6.7: extension effects on vector norm and LU, simulated",
     fig_6_6_6_7},
    {"table_a_2", "Tables A.1/A.2: divide/sqrt unit, and cycles and energy per option",
     table_a_2},
    {"table_b_1", "Table B.1: large-FFT core requirements", table_b_1},
    {"table_b_2_b_3", "Tables B.2/B.3: PE SRAM options and PE designs", table_b_2_b_3},
    {"fig_b_5_b_7", "Figs B.5-B.7: FFT bandwidth, local store and communication load",
     fig_b_5_b_7},
    {"fig_b_11_13", "Figs B.11-B.13: PE power and area of the LAC, FFT and hybrid designs",
     fig_b_11_13},
    {"ablation_codesign",
     "Codesign ablations on the simulator: prefetch, pipeline, MAC extensions, SFU",
     ablation_codesign},
    {"chip_scaling", "Chip simulator: GEMM speedup vs cores and shared bandwidth",
     chip_scaling},
    {"sim_model_gap", "Sim vs model: every kind's cycle and energy gap over n and bandwidth",
     sim_model_gap},
};

}  // namespace

std::span<const Artifact> artifacts() { return kArtifacts; }

const Artifact* find_artifact(std::string_view id) {
  for (const Artifact& a : kArtifacts)
    if (id == a.id) return &a;
  return nullptr;
}

}  // namespace lac::paper
