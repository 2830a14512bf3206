#pragma once
// Architecture configuration records for PE, core (LAC) and chip (LAP).
//
// Every model and the cycle-accurate simulator consume these structs, so a
// single named preset fully pins down one of the paper's design points.
#include <string>

#include "arch/technology.hpp"
#include "common/types.hpp"

namespace lac::arch {

/// How divide / square-root style special functions are provided (§6.1.4,
/// Appendix A): emulated in software on the MAC, a single isolated SFU per
/// core, or special-function support folded into the diagonal PEs.
enum class SfuOption { Software, IsolatedUnit, DiagonalPEs };

/// Optional MAC-unit extensions for factorizations (Appendix A.2):
/// a magnitude comparator for pivot search, and an extended exponent range
/// that removes the overflow/underflow guard pass from vector-norm.
struct MacExtensions {
  bool comparator = false;
  bool extended_exponent = false;

  bool operator==(const MacExtensions&) const = default;
};

/// One processing element: FMAC + local stores + register file.
struct PeConfig {
  Precision precision = Precision::Double;
  int pipeline_stages = 5;        ///< FMAC pipeline depth p (5..9 published).
  double clock_ghz = 1.0;         ///< operating point
  // Local store organisation (§3.2.2): a larger single-ported SRAM for the
  // resident A block, a small dual-ported SRAM for the replicated B panel.
  double mem_a_kbytes = 16.0;
  int mem_a_ports = 1;
  double mem_b_kbytes = 2.0;
  int mem_b_ports = 2;
  int register_file_entries = 4;  ///< §3.4: size 3 rounded to 4
  MacExtensions extensions;

  bool operator==(const PeConfig&) const = default;

  /// Total local store per PE in KB.
  double local_store_kbytes() const { return mem_a_kbytes + mem_b_kbytes; }
  /// Words of local store per PE for this precision.
  double local_store_words() const {
    return local_store_kbytes() * 1024.0 / bytes_of(precision);
  }
};

/// One Linear Algebra Core: nr x nr PEs + broadcast buses + SFU.
struct CoreConfig {
  int nr = 4;                     ///< mesh dimension (4x4 default)
  PeConfig pe;
  int bus_latency = 1;            ///< cycles for a row/column broadcast
  SfuOption sfu = SfuOption::IsolatedUnit;
  int sfu_latency_recip = 11;     ///< f(x)=1/x latency (minimax + 2 NR-like steps)
  int sfu_latency_rsqrt = 13;     ///< f(x)=1/sqrt(x)
  int sfu_latency_sqrt = 15;      ///< sqrt via rsqrt * x
  int sw_emulation_cycles = 27;   ///< Goldschmidt on the MAC (SfuOption::Software)

  /// Every field compares (doubles with ==): a pooled sim core is reused
  /// only for the config it was built from.
  bool operator==(const CoreConfig&) const = default;

  int pes() const { return nr * nr; }
  /// Peak GFLOPS of the core at the PE clock.
  double peak_gflops() const { return pes() * kFlopsPerMac * pe.clock_ghz; }
};

/// On-chip memory organisation for the LAP (§4.4): banked low-power SRAM
/// (the proposed design) or a NUCA cache (the sensitivity study).
enum class OnChipMemKind { BankedSram, Nuca };

/// Full Linear Algebra Processor: S cores + shared on-chip memory.
struct ChipConfig {
  int cores = 8;                       ///< S
  CoreConfig core;
  double onchip_mem_mbytes = 5.0;      ///< shared on-chip memory capacity
  OnChipMemKind mem_kind = OnChipMemKind::BankedSram;
  double onchip_bw_words_per_cycle = 8.0;   ///< y: cores <-> on-chip memory
  double offchip_bw_words_per_cycle = 2.0;  ///< z: chip <-> external memory

  int total_pes() const { return cores * core.pes(); }
  double peak_gflops() const { return cores * core.peak_gflops(); }
};

std::string to_string(SfuOption opt);
std::string to_string(OnChipMemKind kind);

}  // namespace lac::arch
