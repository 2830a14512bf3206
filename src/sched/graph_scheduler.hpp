#pragma once
// Dependency-aware, multi-tenant kernel scheduler over the fabric stack.
//
// The serving layer (AsyncExecutor) answers "run this one request soon";
// the GraphScheduler answers "run this *workload*": whole KernelGraphs and
// single requests from multiple tenants, executed on the shared ThreadPool
// with
//   - ready-set scheduling: a graph node runs as soon as its last
//     dependency commits, so independent panels of a blocked factorization
//     overlap;
//   - weighted-fair queues: tenants share the fabric in proportion to
//     their weight (service measured in fabric cycles), with strict
//     priority classes above the fair share;
//   - bounded admission: at most `queue_capacity` jobs are admitted and
//     unfinished at once -- submit() blocks (backpressure), try_submit()
//     refuses;
//   - cost-key affinity batching: ready units with equal CostKeys (the
//     cost cache's key) dispatch back-to-back on one worker, so
//     model-backend traffic hits the CostCache while it is hot and skips
//     per-unit dispatch overhead.
//
// Failure semantics follow PR 2: a failed node reports in-band
// (ok = false, zero cost), and every node downstream of it is cancelled
// with the same zero-cost accounting instead of running on garbage.
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "common/units.hpp"
#include "common/thread_pool.hpp"
#include "fabric/executor.hpp"
#include "sched/kernel_graph.hpp"

namespace lac::sched {

using TenantId = std::size_t;

struct TenantConfig {
  std::string name = "default";
  /// Weighted-fair share: tenants receive fabric cycles in proportion to
  /// their weight when contending within one priority class.
  double weight = 1.0;
  /// Strict priority class: ready work of a higher class always dispatches
  /// before lower classes.
  int priority = 0;
};

struct SchedulerOptions {
  /// Concurrent node executions (0 = the pool's worker count). Also the
  /// virtual-core count W the graph makespan is evaluated against.
  unsigned workers = 0;
  /// Admitted-but-unfinished job bound (graphs and single requests alike).
  std::size_t queue_capacity = 64;
  /// Max units one worker takes per dispatch when their CostKeys match
  /// (<= 1, the default, disables affinity batching). Worth raising only
  /// when the backend is a CostCache-backed ModelExecutor: batching keeps
  /// the memo hot and amortizes dispatch, but on the sim backend it just
  /// serializes expensive kernels onto one worker.
  std::size_t batch_limit = 1;
};

/// Completed-graph roll-up: per-node results plus the PR 3 cost totals and
/// the graph-parallel figures of merit.
struct GraphResult {
  bool ok = false;
  std::string error;                        ///< first failure ("node: why")
  std::vector<fabric::KernelResult> nodes;  ///< indexed by NodeId
  int failed = 0;                           ///< failed + cancelled nodes
  units::Cycles total_cycles;               ///< serial node-by-node sum
  units::Cycles makespan_cycles;            ///< W-worker list-schedule length
  double speedup = 1.0;                     ///< total / makespan
  units::Nanojoules energy_nj;              ///< summed node energy
  units::Watts avg_power_w;                 ///< energy over makespan time
  units::SquareMillimeters area_mm2;        ///< max over nodes
  double wall_ms = 0.0;                     ///< admission -> last completion
  unsigned workers = 1;                     ///< W used for the makespan
};

struct TenantStats {
  std::string name;
  double weight = 1.0;
  int priority = 0;
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t units_completed = 0;  ///< kernel executions, incl. failures
  std::uint64_t units_failed = 0;     ///< failed + cancelled
  units::Cycles cycles;               ///< fabric cycles served
  units::Nanojoules energy_nj;
  units::Cycles virtual_time;         ///< WFQ service counter (cycles/weight)
};

class GraphScheduler {
 public:
  /// The backend must be thread-safe for independent requests (the
  /// Executor contract) and outlive the scheduler; `pool` defaults to the
  /// process-wide shared pool.
  explicit GraphScheduler(const fabric::Executor& backend,
                          SchedulerOptions opts = {},
                          ThreadPool* pool = nullptr);
  /// Drains every admitted job before returning.
  ~GraphScheduler();

  GraphScheduler(const GraphScheduler&) = delete;
  GraphScheduler& operator=(const GraphScheduler&) = delete;

  /// Tenant 0 always exists (name "default", weight 1, priority 0).
  TenantId add_tenant(TenantConfig cfg);
  std::size_t tenant_count() const;

  /// Admit a whole kernel graph; blocks while the admission queue is at
  /// capacity. The future resolves after every node finished (or was
  /// cancelled); an invalid graph resolves immediately with ok = false.
  /// `on_complete` (optional) runs on the completing worker thread before
  /// the future resolves; exceptions it throws are swallowed, and submits
  /// it chains are admitted without waiting (over capacity if necessary --
  /// a hook parking its worker on the admission gate could self-deadlock).
  std::future<GraphResult> submit(
      TenantId tenant, KernelGraph graph,
      std::function<void(const GraphResult&)> on_complete = {});
  /// Admit one kernel request (a single-node job sharing the same
  /// admission bound and fair queues).
  std::future<fabric::KernelResult> submit(
      TenantId tenant, fabric::KernelRequest req,
      std::function<void(const fabric::KernelResult&)> on_complete = {});

  /// Non-blocking admission: std::nullopt when the queue is full
  /// (backpressure -- the caller sheds or retries).
  std::optional<std::future<GraphResult>> try_submit(
      TenantId tenant, KernelGraph graph,
      std::function<void(const GraphResult&)> on_complete = {});
  std::optional<std::future<fabric::KernelResult>> try_submit(
      TenantId tenant, fabric::KernelRequest req,
      std::function<void(const fabric::KernelResult&)> on_complete = {});

  /// Block until every admitted job has completed -- its completion hook
  /// has returned and its future is ready.
  void drain() LAC_EXCLUDES(mu_);

  /// Admitted-but-unfinished jobs right now / the high-water mark. Stays
  /// within queue_capacity for all boundary traffic; only blocking submits
  /// chained from completion hooks may push it past the bound (they are
  /// exempted from the wait to avoid self-deadlock).
  std::size_t pending() const LAC_EXCLUDES(mu_);
  std::size_t peak_pending() const LAC_EXCLUDES(mu_);

  TenantStats tenant_stats(TenantId tenant) const LAC_EXCLUDES(mu_);
  const fabric::Executor& backend() const { return backend_; }
  unsigned workers() const { return slots_; }

 private:
  struct Job;
  struct Unit;
  struct Tenant;

  std::optional<std::future<GraphResult>> admit_graph(
      TenantId tenant, KernelGraph graph,
      std::function<void(const GraphResult&)> hook, bool block)
      LAC_EXCLUDES(mu_);
  std::optional<std::future<fabric::KernelResult>> admit_single(
      TenantId tenant, fabric::KernelRequest req,
      std::function<void(const fabric::KernelResult&)> hook, bool block)
      LAC_EXCLUDES(mu_);
  // Capacity gate; false = full (non-blocking). `tenant` labels the
  // admission-wait span when the gate blocks.
  bool admit_slot(bool block, TenantId tenant) LAC_EXCLUDES(mu_);

  std::unique_ptr<Unit> build_unit(std::shared_ptr<Job> job, NodeId id);
  void enqueue(std::vector<std::unique_ptr<Unit>> units) LAC_EXCLUDES(mu_);
  void pump_locked() LAC_REQUIRES(mu_);
  std::vector<std::unique_ptr<Unit>> take_batch_locked() LAC_REQUIRES(mu_);
  void worker() LAC_EXCLUDES(mu_);
  void run_unit(std::unique_ptr<Unit> unit) LAC_EXCLUDES(mu_);
  void complete_unit(std::unique_ptr<Unit> unit, fabric::KernelResult res)
      LAC_EXCLUDES(mu_);
  void finalize_job(const std::shared_ptr<Job>& job);

  const fabric::Executor& backend_;
  SchedulerOptions opts_;
  ThreadPool& pool_;
  unsigned slots_ = 1;

  mutable Mutex mu_;
  CondVar admit_cv_;
  CondVar drain_cv_;
  /// Tenant roster and queues. The vector itself only grows (add_tenant);
  /// both it and the per-tenant state behind the pointers are guarded.
  std::vector<std::unique_ptr<Tenant>> tenants_ LAC_GUARDED_BY(mu_);
  /// Admission occupancy (capacity gate): released the moment a job's last
  /// unit finishes, *before* its completion hook runs, so a hook may chain
  /// a blocking submit() without deadlocking on its own slot.
  std::size_t pending_jobs_ LAC_GUARDED_BY(mu_) = 0;
  /// Jobs admitted whose hook/promise have not yet resolved: what drain()
  /// and the destructor wait on.
  std::size_t unresolved_jobs_ LAC_GUARDED_BY(mu_) = 0;
  std::size_t peak_pending_ LAC_GUARDED_BY(mu_) = 0;
  unsigned inflight_ LAC_GUARDED_BY(mu_) = 0;
};

}  // namespace lac::sched
