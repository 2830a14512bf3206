#pragma once
// The four closed-loop workloads. Each drives the library only through the
// entry points it keeps long-term: AsyncExecutor, GraphScheduler with the
// build_{cholesky,lu,qr}_graph builders, CostCache::{estimate,signature},
// the KernelTraits hooks, Executor::execute and ThreadPool.
//
//   sim_serve      registry serving mix x n in {16,32,64} on SimExecutor
//                  behind AsyncExecutor with CostCache cycle hints
//   model_serve    the same mix at n in {16,32} on a cached ModelExecutor
//   dse_sweep      a 4,860-point design grid priced through
//                  CostCache::estimate on a fresh cache each pass, fanned
//                  out with ThreadPool::parallel_for
//   sched_tenants  GraphScheduler, three tenants weighted 1/2/4, singles
//                  plus tiled CHOL/LU/QR factorization graphs
//
// Every workload runs one client thread (the caller) and a pool of
// nproc - 1 workers, checks every result, and counts a mismatch as a
// failed op.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "fabric/executor.hpp"
#include "host.hpp"
#include "trace.hpp"
#include "window.hpp"

namespace perfbench {

/// Which public front end a workload's client submits through.
enum class FrontEnd { Serving, Sched, Sweep };

struct WorkloadConfig {
  std::uint64_t seed = 1;
  unsigned workers = 1;  ///< pool width
  bool traced = false;   ///< decorate the backend and record spans
};

/// A workload's requests with their multiplicity in one pass.
struct RequestMix {
  std::vector<lac::fabric::KernelRequest> reqs;
  std::vector<std::uint64_t> count;
  std::uint64_t total() const;
  void add(const lac::fabric::KernelRequest& req, std::uint64_t n = 1);
  /// Merge requests with equal CostCache signatures (same shapes and
  /// architecture point), summing their counts.
  static RequestMix distinct(const std::vector<lac::fabric::KernelRequest>& executed);
};

/// The registry's serving mix (GEMM, SYRK, TRSM, CHOL, LU, QR, FFT) at the
/// given sizes, one request per (kind, n), payloads seeded from `seed`.
RequestMix serving_mix(const std::vector<lac::index_t>& sizes, std::uint64_t seed);

/// What a traced window records on top of WindowStats.
struct TraceStats {
  LatencyHistogram submit_us;   ///< client time inside the front end's submit
  LatencyHistogram wait_us;     ///< submit returned -> execute start (single ops)
  LatencyHistogram resolve_us;  ///< execute end -> client sees the result
  ExecTotals exec;             ///< executes (dse_sweep: estimates) in the window
  AllocCount alloc;            ///< allocations in the window
};

/// Counts that repeat exactly for the same code; a run whose window
/// disagrees with its warm-up pass fails.
struct ExactCounts {
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t units = 0;  ///< kernel executions (dse_sweep: grid points)
  std::uint64_t jobs = 0;
  double cycles = 0.0;  ///< summed KernelResult::cycles of served singles
  std::int64_t macs = 0;  ///< summed sim::Stats::mac_ops of served singles
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual FrontEnd front_end() const = 0;

  /// Payloads, backend, pool/scheduler construction and one warm-up pass
  /// over the request cycle, which fills the lazily built state (simulator
  /// arenas, schedule plans, the cost cache) and records the expected
  /// result of every request after checking it against the host
  /// reference. Throws std::runtime_error when the warm-up is wrong.
  virtual void setup() = 0;

  /// Whole passes over the cycle until `seconds` have elapsed.
  virtual void run(double seconds, Window& window) = 0;

  /// Ops in one pass of the cycle.
  virtual std::uint64_t ops_per_pass() const = 0;

  /// Empty when the window's exact counts match the warm-up pass.
  const std::string& count_error() const { return count_error_; }
  const ExactCounts& counts() const { return counts_; }
  /// Jain index over per-tenant served cycles / weight in the window
  /// (1 for single-tenant workloads).
  double fairness_jain() const { return fairness_jain_; }

  // ---- traced mode ----------------------------------------------------
  const TraceStats& trace() const { return trace_; }
  const SpanLog& spans() const { return spans_; }
  /// The requests one pass executes, with multiplicity (dse_sweep: the
  /// grid, each point once).
  virtual RequestMix pass_requests() const = 0;
  /// The pool and the backend (decorated when traced) the workload runs
  /// on, for the ledger's one-at-a-time probes.
  virtual lac::ThreadPool& pool() = 0;
  virtual const lac::fabric::Executor& backend() const = 0;
  /// Whether the backend simulates (else it is a cached ModelExecutor).
  virtual bool simulates() const = 0;

 protected:
  TraceStats trace_;
  SpanLog spans_;
  ExactCounts counts_;
  std::string count_error_;
  double fairness_jain_ = 1.0;
};

/// Known workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();
/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadConfig& cfg);

}  // namespace perfbench
