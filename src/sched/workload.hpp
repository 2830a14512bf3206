#pragma once
// Workload generation and replay for the scheduler layer.
//
// Serving claims need realistic traffic, not back-to-back loops: requests
// arrive over time (Poisson or bursty), from several tenants, mixing
// single kernels with whole factorization graphs over repeated shapes.
// generate_trace() emits such a workload deterministically (fixed seed);
// replay() plays it against a GraphScheduler with paced arrivals and
// reports per-tenant sojourn latency (completion minus arrival), overall
// throughput, weighted-fairness, and the graph speedup roll-up -- the
// numbers bench_scheduler records per backend.
#include <cstdint>
#include <vector>

#include "arch/configs.hpp"
#include "sched/graph_scheduler.hpp"

namespace lac::sched {

enum class ArrivalProcess {
  Poisson,  ///< exponential inter-arrival gaps at `rate_per_s`
  Bursty,   ///< back-to-back groups of `burst_size`, idle `burst_gap_ms`
};

/// Default single-kernel serving mix: GEMM, SYRK, TRSM, CHOL, LU, QR and
/// the hybrid-core FFT (every kind the registry serves on the baseline
/// 4x4 core; ChipGemm and Syr2k stay out of the default traffic profile,
/// as in the serving bench).
std::vector<fabric::KernelKind> default_serving_mix();

struct TraceConfig {
  std::uint64_t seed = 1;
  int events = 200;
  ArrivalProcess arrivals = ArrivalProcess::Poisson;
  double rate_per_s = 4000.0;  ///< Poisson mean arrival rate
  int burst_size = 8;
  double burst_gap_ms = 3.0;
  /// Fraction of events that are tiled-Cholesky graphs (the rest are
  /// single kernels drawn round-robin from `mix`).
  double graph_fraction = 0.2;
  /// Single-kernel mix. Trim it to the kinds the replay core can run --
  /// e.g. drop Fft when replaying on a core with nr != 4 -- otherwise the
  /// incompatible events fail validation in-band and count as failures in
  /// the ReplayReport.
  std::vector<fabric::KernelKind> mix = default_serving_mix();
  std::vector<index_t> sizes = {16, 32};  ///< single-kernel operand sizes
  index_t graph_n = 32;                   ///< graph problem size
  index_t graph_block = 8;                ///< graph tile width
  std::size_t tenants = 2;  ///< events draw their tenant uniformly from [0, tenants)
};

struct TraceEvent {
  double arrival_ms = 0.0;
  std::size_t tenant = 0;  ///< index into the replay tenant set
  bool is_graph = false;
  fabric::KernelKind kind = fabric::KernelKind::Gemm;  ///< singles only
  index_t n = 16;          ///< operand size (singles) / problem size (graphs)
  index_t block = 8;       ///< tile width (graphs only)
  std::uint64_t shape_seed = 0;  ///< deterministic operand payload id
};

/// Deterministic trace: same config -> same events, arrivals and shapes.
std::vector<TraceEvent> generate_trace(const TraceConfig& config);

struct ReplayOptions {
  /// Multiplies every arrival gap (use < 1 to compress a trace for smoke
  /// runs); 0 disables pacing entirely (submit as fast as admission lets).
  double time_scale = 1.0;
  /// Tenant weights/priorities registered on the scheduler, index-aligned
  /// with TraceEvent::tenant. Missing entries default to weight 1.
  std::vector<TenantConfig> tenants;
};

struct TenantReplayStats {
  std::string name;
  double weight = 1.0;
  std::uint64_t requests = 0;   ///< completed jobs (kernels + graphs)
  std::uint64_t failures = 0;
  double p50_ms = 0.0;          ///< sojourn latency percentiles
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  units::Cycles cycles;         ///< fabric cycles served
  units::Nanojoules energy_nj;
};

struct ReplayReport {
  double wall_ms = 0.0;
  double requests_per_s = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t graphs = 0;
  std::uint64_t failures = 0;
  std::vector<TenantReplayStats> tenants;
  /// Jain's fairness index over per-tenant weighted service
  /// (cycles / weight) *snapshotted at the half-completion mark*, while
  /// the rest of the workload is still queued -- the window where
  /// scheduling policy, not the workload mix, determines who got served.
  /// 1.0 = weight-proportional service; most meaningful when the replay
  /// keeps a backlog (bursty or unpaced traces).
  double fairness_jain = 1.0;
  /// Mean graph-mode speedup (serial node sum over W-worker makespan).
  double graph_speedup_mean = 0.0;
};

/// Replay the trace against the scheduler. Operand payloads are built once
/// per (kind, n, shape_seed) and shared across repeats -- the zero-copy
/// serving pattern. Blocks until every event completed.
ReplayReport replay(GraphScheduler& scheduler, const std::vector<TraceEvent>& trace,
                    const arch::CoreConfig& cfg, double bw_words_per_cycle,
                    const ReplayOptions& opts = {});

}  // namespace lac::sched
