#include "sched/graph_scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace lac::sched {

using Clock = std::chrono::steady_clock;

/// One admitted job: a whole graph or a single request (single == true).
/// Per-node bookkeeping is guarded by the scheduler mutex, except a node's
/// result (and a single's), which the worker that ran the unit writes
/// before the critical section that records it; the shared working state
/// the graph's program touches is guarded by its edges. A job outlives its
/// ready units: the worker that completes its last unit resolves and frees
/// it.
struct GraphScheduler::Job {
  TenantId tenant = 0;
  bool single = false;
  KernelGraph graph;             // empty for singles
  fabric::KernelRequest req;     // a single's request
  fabric::KernelResult result;   // a single's result
  std::promise<GraphResult> gpromise;
  std::promise<fabric::KernelResult> kpromise;
  std::function<void(const GraphResult&)> ghook;
  std::function<void(const fabric::KernelResult&)> khook;
  std::vector<fabric::KernelResult> results;
  std::vector<std::size_t> missing;   // unfinished deps per node
  std::vector<char> upstream_failed;  // node is downstream of a failure
  std::size_t remaining = 0;
  std::string first_error;
  Clock::time_point admitted;
  std::atomic<double> clock_ghz{0.0};  // first run node's effective clock
};

/// A ready unit: node `id` of `job` (0 for a single).
struct GraphScheduler::Ready {
  Job* job = nullptr;
  NodeId id = 0;
};

/// A dispatch loop's state across its rounds: the units it took (run
/// outside the lock, recorded in its next critical section) with each
/// failed graph node's "node: why", the cancellation cascade's scratch,
/// the jobs its last critical section resolved, and how many it resolved
/// since (unresolved_jobs_ drops by that count in the next section).
struct GraphScheduler::Worker {
  struct Unit {
    Ready ready;
    std::string failure;
  };
  std::vector<Unit> units;
  std::vector<NodeId> cascade;
  std::vector<Job*> resolved;
  std::size_t settled = 0;
};

struct GraphScheduler::Tenant {
  TenantConfig cfg;
  std::deque<Ready> ready;
  unsigned inflight = 0;  // units taken by a worker, not yet completed
  units::Cycles vtime;
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t units_completed = 0;
  std::uint64_t units_failed = 0;
  units::Cycles cycles;
  units::Nanojoules energy_nj;
};

namespace {

fabric::KernelResult cancelled_result(const std::string& backend,
                                      const std::string& node_name,
                                      const std::string& upstream_error) {
  return fabric::make_failed(
      node_name, backend,
      "cancelled: downstream of failed node (" + upstream_error + ")");
}

std::string unknown_tenant(TenantId tenant) {
  return "unknown tenant " + std::to_string(tenant);
}

/// Nonzero while the current thread is inside a completion hook. Submits
/// from hook context bypass the admission wait (see admit_locked): a hook
/// runs on a pool worker, and parking that worker on admit_cv_ while the
/// capacity it waits for may need this very worker to free is a
/// self-deadlock.
thread_local int g_hook_depth = 0;

/// Completion hooks run on worker threads; an exception escaping one must
/// never unwind the dispatch loop (it would strand inflight_ and the
/// job's promise), so hook failures are swallowed.
template <typename Hook, typename Arg>
void run_hook(const Hook& hook, const Arg& arg) {
  if (!hook) return;
  ++g_hook_depth;
  try {
    hook(arg);
  } catch (...) {
  }
  --g_hook_depth;
}

/// A future resolved at admission (invalid graph, unknown tenant): the
/// hook runs first, as for an admitted job.
template <typename Result, typename Hook>
std::future<Result> resolved_now(const Hook& hook, Result res) {
  std::promise<Result> p;
  std::future<Result> fut = p.get_future();
  run_hook(hook, res);
  p.set_value(std::move(res));
  return fut;
}

}  // namespace

GraphScheduler::GraphScheduler(const fabric::Executor& backend,
                               SchedulerOptions opts, ThreadPool* pool)
    : backend_(backend),
      opts_(opts),
      pool_(pool ? *pool : ThreadPool::shared()) {
  slots_ = opts_.workers > 0 ? opts_.workers : pool_.size();
  if (opts_.queue_capacity == 0) opts_.queue_capacity = 1;
  tenants_.push_back(std::make_unique<Tenant>());
}

GraphScheduler::~GraphScheduler() {
  MutexLock lock(mu_);
  // Wait for the jobs *and* for every worker to leave the dispatch loop
  // (a worker may still be in take_units_locked after the last completion).
  while (unresolved_jobs_ != 0 || inflight_ != 0) drain_cv_.wait(mu_);
}

TenantId GraphScheduler::add_tenant(TenantConfig cfg) {
  MutexLock lock(mu_);
  // A NaN or infinite weight would turn every WFQ charge, and through the
  // idle-resume anchor every other tenant's virtual time, into NaN or inf.
  if (!(std::isfinite(cfg.weight) && cfg.weight > 0.0)) cfg.weight = 1.0;
  tenants_.push_back(std::make_unique<Tenant>());
  tenants_.back()->cfg = std::move(cfg);
  return tenants_.size() - 1;
}

std::size_t GraphScheduler::tenant_count() const {
  MutexLock lock(mu_);
  return tenants_.size();
}

std::future<GraphResult> GraphScheduler::submit(
    TenantId tenant, KernelGraph graph,
    std::function<void(const GraphResult&)> on_complete) {
  return *admit_graph(tenant, std::move(graph), std::move(on_complete), true);
}

std::future<fabric::KernelResult> GraphScheduler::submit(
    TenantId tenant, fabric::KernelRequest req,
    std::function<void(const fabric::KernelResult&)> on_complete) {
  return *admit_single(tenant, std::move(req), std::move(on_complete), true);
}

std::optional<std::future<GraphResult>> GraphScheduler::try_submit(
    TenantId tenant, KernelGraph graph,
    std::function<void(const GraphResult&)> on_complete) {
  return admit_graph(tenant, std::move(graph), std::move(on_complete), false);
}

std::optional<std::future<fabric::KernelResult>> GraphScheduler::try_submit(
    TenantId tenant, fabric::KernelRequest req,
    std::function<void(const fabric::KernelResult&)> on_complete) {
  return admit_single(tenant, std::move(req), std::move(on_complete), false);
}

bool GraphScheduler::admit_locked(bool block) {
  // try_submit's refusal applies everywhere -- it never blocks, so it is
  // always deadlock-free and backpressure stays observable from hooks.
  if (!block && pending_jobs_ >= opts_.queue_capacity) return false;
  // Only the *blocking* wait is skipped in completion-hook context: the
  // hook occupies a pool worker, and the capacity it would wait for may
  // need that very worker to free (self-deadlock). Such hook-chained jobs
  // are admitted over capacity instead, visible in peak_pending().
  if (g_hook_depth == 0)
    while (pending_jobs_ >= opts_.queue_capacity) admit_cv_.wait(mu_);
  ++pending_jobs_;
  ++unresolved_jobs_;
  peak_pending_ = std::max(peak_pending_, pending_jobs_);
  return true;
}

std::optional<std::future<GraphResult>> GraphScheduler::admit_graph(
    TenantId tenant, KernelGraph graph,
    std::function<void(const GraphResult&)> hook, bool block) {
  // Everything but the tenant check, the capacity gate and the enqueue
  // runs before the one critical section.
  std::string err = graph.validate();
  if (!err.empty()) err = "invalid graph: " + err;
  std::unique_ptr<Job> job;
  std::future<GraphResult> fut;
  if (err.empty() && !graph.empty()) {
    job = std::make_unique<Job>();
    job->tenant = tenant;
    job->graph = std::move(graph);
    job->ghook = std::move(hook);
    const std::size_t n = job->graph.size();
    job->results.resize(n);
    job->missing = job->graph.shape().dep_counts();
    job->upstream_failed.assign(n, 0);
    job->remaining = n;
    fut = job->gpromise.get_future();
  }
  bool known = false;
  {
    MutexLock lock(mu_);
    known = tenant < tenants_.size();
    if (known && job) {
      if (!admit_locked(block)) return std::nullopt;
      job->admitted = Clock::now();
      ++tenants_[tenant]->jobs_submitted;
      // From here the job's units own it (see Job).
      Job* owned = job.release();
      for (NodeId id : owned->graph.shape().roots()) enqueue_locked(Ready{owned, id});
      pump_locked();
      return fut;
    }
  }
  // Unknown tenants, malformed and empty graphs resolve at once and are
  // never admitted.
  if (!known) err = unknown_tenant(tenant);
  GraphResult res;
  res.ok = err.empty();
  res.error = std::move(err);
  res.workers = slots_;
  return resolved_now(job ? job->ghook : hook, std::move(res));
}

std::optional<std::future<fabric::KernelResult>> GraphScheduler::admit_single(
    TenantId tenant, fabric::KernelRequest req,
    std::function<void(const fabric::KernelResult&)> hook, bool block) {
  auto job = std::make_unique<Job>();
  job->tenant = tenant;
  job->single = true;
  job->req = std::move(req);
  job->khook = std::move(hook);
  std::future<fabric::KernelResult> fut = job->kpromise.get_future();
  {
    MutexLock lock(mu_);
    if (tenant < tenants_.size()) {
      if (!admit_locked(block)) return std::nullopt;
      ++tenants_[tenant]->jobs_submitted;
      enqueue_locked(Ready{job.release(), 0});
      pump_locked();
      return fut;
    }
  }
  return resolved_now(job->khook,
                      fabric::make_failed(job->req, backend_.name(), unknown_tenant(tenant)));
}

void GraphScheduler::enqueue_locked(Ready unit) {
  Tenant& ten = *tenants_[unit.job->tenant];
  if (ten.ready.empty() && ten.inflight == 0) {
    // A tenant going from idle to busy resumes at the lead of the active
    // pack, not at its stale virtual time -- otherwise a long-idle tenant
    // would monopolize the fabric to "catch up". Active means ready *or*
    // in flight: a busy tenant whose queue momentarily drained into the
    // workers still anchors the pack.
    units::Cycles vmin(std::numeric_limits<double>::infinity());
    bool any = false;
    for (const std::unique_ptr<Tenant>& t : tenants_)
      if (!t->ready.empty() || t->inflight > 0) {
        any = true;
        vmin = std::min(vmin, t->vtime);
      }
    if (any) ten.vtime = std::max(ten.vtime, vmin);
  }
  ten.ready.push_back(unit);
  ++ready_units_;
}

void GraphScheduler::pump_locked() {
  // Post up to min(free slots, ready units) dispatch loops. A loop that
  // loses its units to an already-running worker finds none ready and
  // exits -- bounded overposting, never starvation.
  for (std::size_t ready = ready_units_; inflight_ < slots_ && ready > 0; --ready) {
    ++inflight_;
    pool_.post([this] { worker(); });
  }
}

void GraphScheduler::take_units_locked(Worker& self) {
  self.units.clear();
  // The first unit whenever one is ready; a further one only while at
  // least slots_ - 1 ready units stay for the other loops, and slots_ in
  // all. So a graph with few ready nodes keeps its parallelism, WFQ's late
  // charges skew the share by at most slots_ units a loop, and one worker
  // takes one unit a round.
  while (ready_units_ > 0 &&
         (self.units.empty() || (self.units.size() < slots_ && ready_units_ >= slots_))) {
    // Pick the serving tenant: highest priority class first, then least
    // weighted service (virtual time), then lowest tenant id -- a strict,
    // deterministic order.
    Tenant* best = nullptr;
    for (const std::unique_ptr<Tenant>& t : tenants_) {
      if (t->ready.empty()) continue;
      if (!best || t->cfg.priority > best->cfg.priority ||
          (t->cfg.priority == best->cfg.priority && t->vtime < best->vtime))
        best = t.get();
    }
    self.units.push_back({best->ready.front(), {}});
    best->ready.pop_front();
    ++best->inflight;
    --ready_units_;
  }
}

void GraphScheduler::worker() {
  Worker self;
  self.units.reserve(slots_);
  self.resolved.reserve(slots_);
  for (;;) {
    {
      // One critical section per round: charge the units the last round
      // ran and release their dependents, settle the jobs resolved since,
      // take the next units and post loops for what is left.
      MutexLock lock(mu_);
      for (std::size_t i = 0; i < self.units.size(); ++i)
        if (Job* job = complete_locked(self, i)) self.resolved.push_back(job);
      unresolved_jobs_ -= self.settled;
      take_units_locked(self);
      pump_locked();
      // A loop that resolved a job comes back after its hook, which may
      // have submitted work this loop must see.
      if (self.units.empty() && self.resolved.empty()) {
        // Notified under the lock: once inflight_ reaches zero the
        // destructor may return as soon as the lock is free.
        --inflight_;
        drain_cv_.notify_all();
        return;
      }
      if (self.settled != 0) drain_cv_.notify_all();
    }
    self.settled = self.resolved.size();
    for (Job* job : self.resolved) resolve_job(job);
    self.resolved.clear();
    for (std::size_t i = 0; i < self.units.size(); ++i) run_unit(self, i);
  }
}

void GraphScheduler::run_unit(Worker& self, std::size_t i) {
  // Every dependency's commit happens-before this point (same thread, or
  // through the mutex the unit was taken under). The result slot is this
  // unit's alone until the critical section that records it.
  const Ready unit = self.units[i].ready;
  Job& job = *unit.job;
  if (job.single) {
    job.result = fabric::run_request(backend_, job.req);
    return;
  }
  NodeRun run = run_node(job.graph, unit.id, backend_);
  // A unit whose request was never built (make threw) has no clock: a
  // default request's would skew the graph's avg-power figure.
  double none = 0.0;
  if (run.clock_ghz != 0.0 && job.clock_ghz.load() == 0.0)
    job.clock_ghz.compare_exchange_strong(none, run.clock_ghz);
  if (!run.result.ok) {
    const std::string name = job.graph.name(unit.id);
    self.units[i].failure = (name.empty() ? "node" : name) + ": " + run.result.error;
  }
  job.results[unit.id] = std::move(run.result);
}

GraphScheduler::Job* GraphScheduler::complete_locked(Worker& self, std::size_t i) {
  const Ready unit = self.units[i].ready;
  Job& job = *unit.job;
  const fabric::KernelResult& res = job.single ? job.result : job.results[unit.id];
  Tenant& ten = *tenants_[job.tenant];
  if (ten.inflight > 0) --ten.inflight;
  ++ten.units_completed;
  if (!res.ok) ++ten.units_failed;
  ten.cycles += res.cycles;
  ten.energy_nj += res.energy_nj;
  // WFQ charge: service is fabric cycles over the tenant weight. Failed
  // units cost zero cycles and charge nothing, matching the accounting.
  ten.vtime += res.cycles / ten.cfg.weight;

  if (!job.single) {
    if (!res.ok && job.first_error.empty()) job.first_error = std::move(self.units[i].failure);
    --job.remaining;

    // Release dependents; cancel (recursively) anything downstream of a
    // failure the moment its last dependency resolves.
    const GraphShape& shape = job.graph.shape();
    std::vector<NodeId>& cascade = self.cascade;
    cascade.assign(1, unit.id);
    while (!cascade.empty()) {
      const NodeId done = cascade.back();
      cascade.pop_back();
      const bool done_failed = !job.results[done].ok;
      for (NodeId dep : shape.dependents(done)) {
        if (done_failed) job.upstream_failed[dep] = 1;
        if (--job.missing[dep] != 0) continue;
        if (job.upstream_failed[dep]) {
          job.results[dep] =
              cancelled_result(backend_.name(), job.graph.name(dep), job.first_error);
          --job.remaining;
          ++ten.units_completed;
          ++ten.units_failed;
          cascade.push_back(dep);
        } else {
          enqueue_locked(Ready{&job, dep});
        }
      }
    }
    if (job.remaining != 0) return nullptr;
  }
  ++ten.jobs_completed;
  // Free the admission slot now (so a completion hook may itself submit,
  // even at capacity) but keep the job "unresolved" until its hook has run
  // and its promise is set -- the drain() contract.
  --pending_jobs_;
  return &job;
}

void GraphScheduler::resolve_job(Job* job) {
  const std::unique_ptr<Job> owned(job);
  admit_cv_.notify_all();
  if (job->single) {
    run_hook(job->khook, job->result);
    job->kpromise.set_value(std::move(job->result));
  } else {
    finalize_job(*job);
  }
}

void GraphScheduler::finalize_job(Job& job) {
  GraphResult out;
  out.nodes = std::move(job.results);
  for (const fabric::KernelResult& r : out.nodes) {
    if (!r.ok) ++out.failed;
    out.energy_nj += r.energy_nj;
    out.area_mm2 = std::max(out.area_mm2, r.area_mm2);
  }
  out.ok = out.failed == 0;
  out.error = job.first_error;
  out.workers = slots_;
  out.total_cycles = serial_cycles(out.nodes);
  out.makespan_cycles = list_makespan(job.graph, out.nodes, slots_);
  // Cycles / Cycles is dimensionless, so the speedup falls out as a plain
  // ratio; the makespan-time power figure goes through the typed clock
  // division exactly like attach_cost does.
  out.speedup = out.makespan_cycles.value() > 0.0
                    ? out.total_cycles / out.makespan_cycles
                    : 1.0;
  const double clock_ghz = job.clock_ghz.load();
  const units::Seconds t = clock_ghz > 0.0
                               ? out.makespan_cycles / units::Gigahertz(clock_ghz)
                               : units::Seconds{};
  out.avg_power_w = t.value() > 0.0 ? units::to_joules(out.energy_nj) / t
                                    : units::Watts{};
  out.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                          job.admitted)
                    .count();
  run_hook(job.ghook, out);
  job.gpromise.set_value(std::move(out));
}

void GraphScheduler::drain() {
  MutexLock lock(mu_);
  while (unresolved_jobs_ != 0) drain_cv_.wait(mu_);
}

std::size_t GraphScheduler::pending() const {
  MutexLock lock(mu_);
  return pending_jobs_;
}

std::size_t GraphScheduler::peak_pending() const {
  MutexLock lock(mu_);
  return peak_pending_;
}

TenantStats GraphScheduler::tenant_stats(TenantId tenant) const {
  MutexLock lock(mu_);
  if (tenant >= tenants_.size()) throw std::out_of_range(unknown_tenant(tenant));
  const Tenant& t = *tenants_[tenant];
  TenantStats s;
  s.name = t.cfg.name;
  s.weight = t.cfg.weight;
  s.priority = t.cfg.priority;
  s.jobs_submitted = t.jobs_submitted;
  s.jobs_completed = t.jobs_completed;
  s.units_completed = t.units_completed;
  s.units_failed = t.units_failed;
  s.cycles = t.cycles;
  s.energy_nj = t.energy_nj;
  s.virtual_time = t.vtime;
  return s;
}

}  // namespace lac::sched
