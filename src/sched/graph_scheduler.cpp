#include "sched/graph_scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

#include "fabric/serving.hpp"
#include "obs/trace.hpp"

namespace lac::sched {

using Clock = std::chrono::steady_clock;

/// One admitted job: a whole graph or a single request (single == true).
/// Per-node bookkeeping is guarded by the scheduler mutex; the shared
/// working state the node closures touch is guarded by the graph's edges.
struct GraphScheduler::Job {
  TenantId tenant = 0;
  bool single = false;
  KernelGraph graph;  // empty for singles
  std::promise<GraphResult> gpromise;
  std::promise<fabric::KernelResult> kpromise;
  std::function<void(const GraphResult&)> ghook;
  std::function<void(const fabric::KernelResult&)> khook;
  std::vector<fabric::KernelResult> results;
  std::vector<std::size_t> missing;   // unfinished deps per node
  std::vector<char> upstream_failed;  // node is downstream of a failure
  std::size_t remaining = 0;
  bool failed = false;
  std::string first_error;
  Clock::time_point admitted;
  double clock_ghz = 0.0;  // first executed node's effective clock
};

/// One ready-to-run node with its request already built (the deferred
/// `make` closure runs at release time, after every dependency committed).
struct GraphScheduler::Unit {
  std::shared_ptr<Job> job;
  NodeId id = 0;
  fabric::KernelRequest req;
  std::optional<fabric::CostKey> key;  // affinity batching; unset at batch_limit <= 1
  std::string make_error;  // deferred `make` closure threw; fail in-band
  std::uint64_t ready_ns = 0;  // enqueue timestamp (ready -> run wait)
};

struct GraphScheduler::Tenant {
  TenantConfig cfg;
  std::deque<std::unique_ptr<Unit>> ready;
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

/// Nonzero while the current thread is inside a completion hook. Submits
/// from hook context bypass the admission wait (see admit_slot): a hook
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
  // (a worker may still be inside take_batch after the last completion).
  while (unresolved_jobs_ != 0 || inflight_ != 0) drain_cv_.wait(mu_);
}

TenantId GraphScheduler::add_tenant(TenantConfig cfg) {
  MutexLock lock(mu_);
  if (cfg.weight <= 0.0) cfg.weight = 1.0;
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

bool GraphScheduler::admit_slot(bool block, TenantId tenant) {
  MutexLock lock(mu_);
  // try_submit's refusal applies everywhere -- it never blocks, so it is
  // always deadlock-free and backpressure stays observable from hooks.
  if (!block && pending_jobs_ >= opts_.queue_capacity) return false;
  // Only the *blocking* wait is skipped in completion-hook context: the
  // hook occupies a pool worker, and the capacity it would wait for may
  // need that very worker to free (self-deadlock). Such hook-chained jobs
  // are admitted over capacity instead, visible in peak_pending().
  if (g_hook_depth == 0 && pending_jobs_ >= opts_.queue_capacity) {
    // Timed only when the gate actually blocks: uncontended admission pays
    // no clock read.
    const std::uint64_t wait_start_ns = obs::now_ns();
    while (pending_jobs_ >= opts_.queue_capacity) admit_cv_.wait(mu_);
    obs::record_interval("sched.admit_wait", "sched", wait_start_ns,
                         obs::now_ns(), 0, units::Cycles{},
                         static_cast<std::int64_t>(tenant));
  }
  ++pending_jobs_;
  ++unresolved_jobs_;
  peak_pending_ = std::max(peak_pending_, pending_jobs_);
  return true;
}

std::optional<std::future<GraphResult>> GraphScheduler::admit_graph(
    TenantId tenant, KernelGraph graph,
    std::function<void(const GraphResult&)> hook, bool block) {
  assert(tenant < tenant_count());
  // Malformed or empty graphs resolve immediately and are never admitted.
  std::string err = graph.validate();
  if (!err.empty() || graph.empty()) {
    GraphResult res;
    res.ok = err.empty();
    res.error = err.empty() ? "" : "invalid graph: " + err;
    res.workers = slots_;
    std::promise<GraphResult> p;
    std::future<GraphResult> fut = p.get_future();
    run_hook(hook, res);
    p.set_value(std::move(res));
    return fut;
  }

  auto job = std::make_shared<Job>();
  job->tenant = tenant;
  job->graph = std::move(graph);
  job->ghook = std::move(hook);
  const std::size_t n = job->graph.size();
  job->results.resize(n);
  job->missing.resize(n);
  job->upstream_failed.assign(n, 0);
  job->remaining = n;
  for (NodeId id = 0; id < n; ++id)
    job->missing[id] = job->graph.node(id).deps.size();

  if (!admit_slot(block, tenant)) return std::nullopt;
  job->admitted = Clock::now();
  std::future<GraphResult> fut = job->gpromise.get_future();
  {
    MutexLock lock(mu_);
    ++tenants_[tenant]->jobs_submitted;
  }

  std::vector<std::unique_ptr<Unit>> units;
  for (NodeId id = 0; id < n; ++id)
    if (job->missing[id] == 0) units.push_back(build_unit(job, id));
  enqueue(std::move(units));
  return fut;
}

std::optional<std::future<fabric::KernelResult>> GraphScheduler::admit_single(
    TenantId tenant, fabric::KernelRequest req,
    std::function<void(const fabric::KernelResult&)> hook, bool block) {
  assert(tenant < tenant_count());
  auto job = std::make_shared<Job>();
  job->tenant = tenant;
  job->single = true;
  job->khook = std::move(hook);

  if (!admit_slot(block, tenant)) return std::nullopt;
  job->admitted = Clock::now();
  std::future<fabric::KernelResult> fut = job->kpromise.get_future();
  {
    MutexLock lock(mu_);
    ++tenants_[tenant]->jobs_submitted;
  }

  auto unit = std::make_unique<Unit>();
  unit->job = std::move(job);
  unit->id = 0;
  unit->req = std::move(req);
  if (opts_.batch_limit > 1) unit->key.emplace(unit->req);
  std::vector<std::unique_ptr<Unit>> units;
  units.push_back(std::move(unit));
  enqueue(std::move(units));
  return fut;
}

std::unique_ptr<GraphScheduler::Unit> GraphScheduler::build_unit(
    std::shared_ptr<Job> job, NodeId id) {
  // Never throws: a throwing `make` closure must fail its node in-band
  // (run_unit turns make_error into a failed result that cancels
  // downstream), not unwind into the pool and hang the graph future.
  auto unit = std::make_unique<Unit>();
  try {
    unit->req = job->graph.node(id).make();
    if (opts_.batch_limit > 1) unit->key.emplace(unit->req);
  } catch (const std::exception& e) {
    unit->make_error = std::string("request build failed: ") + e.what();
  } catch (...) {
    unit->make_error = "request build failed";
  }
  unit->job = std::move(job);
  unit->id = id;
  return unit;
}

void GraphScheduler::enqueue(std::vector<std::unique_ptr<Unit>> units) {
  if (units.empty()) return;
  const std::uint64_t ready_ns = obs::now_ns();
  MutexLock lock(mu_);
  for (std::unique_ptr<Unit>& unit : units) {
    unit->ready_ns = ready_ns;
    Tenant& ten = *tenants_[unit->job->tenant];
    if (ten.ready.empty() && ten.inflight == 0) {
      // A tenant going from idle to busy resumes at the lead of the active
      // pack, not at its stale virtual time -- otherwise a long-idle
      // tenant would monopolize the fabric to "catch up". Active means
      // ready *or* in flight: a busy tenant whose queue momentarily
      // drained into the workers still anchors the pack.
      units::Cycles vmin(std::numeric_limits<double>::infinity());
      bool any = false;
      for (const std::unique_ptr<Tenant>& t : tenants_)
        if (!t->ready.empty() || t->inflight > 0) {
          any = true;
          vmin = std::min(vmin, t->vtime);
        }
      if (any) ten.vtime = std::max(ten.vtime, vmin);
    }
    ten.ready.push_back(std::move(unit));
  }
  pump_locked();
}

void GraphScheduler::pump_locked() {
  // Post up to min(free slots, ready units) dispatch loops. A loop that
  // loses its units to an already-running worker finds an empty batch and
  // exits -- bounded overposting, never starvation.
  std::size_t ready = 0;
  for (const std::unique_ptr<Tenant>& t : tenants_) ready += t->ready.size();
  while (inflight_ < slots_ && ready > 0) {
    ++inflight_;
    --ready;
    pool_.post([this] { worker(); });
  }
}

std::vector<std::unique_ptr<GraphScheduler::Unit>>
GraphScheduler::take_batch_locked() {
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
  std::vector<std::unique_ptr<Unit>> batch;
  if (!best) return batch;
  batch.push_back(std::move(best->ready.front()));
  best->ready.pop_front();
  ++best->inflight;
  // Cost-key affinity batching: pull units with the same CostKey from
  // this tenant's queue so they execute back-to-back (the model backend's
  // CostCache stays hot, and per-unit dispatch overhead amortizes).
  const std::optional<fabric::CostKey>& key = batch.front()->key;
  if (key) {
    for (auto it = best->ready.begin();
         it != best->ready.end() && batch.size() < opts_.batch_limit;) {
      if ((*it)->key == key) {
        batch.push_back(std::move(*it));
        it = best->ready.erase(it);
        ++best->inflight;
      } else {
        ++it;
      }
    }
  }
  return batch;
}

void GraphScheduler::worker() {
  for (;;) {
    std::vector<std::unique_ptr<Unit>> batch;
    {
      MutexLock lock(mu_);
      batch = take_batch_locked();
      if (batch.empty()) {
        --inflight_;
        drain_cv_.notify_all();
        return;
      }
    }
    for (std::unique_ptr<Unit>& unit : batch) run_unit(std::move(unit));
  }
}

void GraphScheduler::run_unit(std::unique_ptr<Unit> unit) {
  if (!unit->make_error.empty()) {
    // The request was never built; attribute the failure to the node name
    // so it stays identifiable in roll-ups (make_error only arises for
    // graph nodes -- singles carry a prebuilt request).
    fabric::KernelResult failed = fabric::make_failed(
        unit->job->single ? unit->req.tag : unit->job->graph.node(unit->id).name,
        backend_.name(), unit->make_error);
    complete_unit(std::move(unit), std::move(failed));
    return;
  }
  obs::record_interval("sched.ready_wait", "sched", unit->ready_ns,
                       obs::now_ns(), 0, units::Cycles{},
                       static_cast<std::int64_t>(unit->job->tenant));
  fabric::KernelResult res;
  {
    obs::Span span("sched.run", "sched");
    span.set_tenant(unit->job->tenant);
    try {
      res = backend_.execute(unit->req);
    } catch (const std::exception& e) {
      res = fabric::make_failed(unit->req, backend_.name(),
                                std::string("backend exception: ") + e.what());
    } catch (...) {
      res = fabric::make_failed(unit->req, backend_.name(), "backend exception");
    }
    span.set_cycles(res.cycles);
  }
  if (res.ok && !unit->job->single) {
    const auto& commit = unit->job->graph.node(unit->id).commit;
    if (commit) {
      try {
        commit(res);
      } catch (const std::exception& e) {
        res = fabric::make_failed(unit->req, backend_.name(),
                                  std::string("commit failed: ") + e.what());
      } catch (...) {
        res = fabric::make_failed(unit->req, backend_.name(), "commit failed");
      }
    }
  }
  complete_unit(std::move(unit), std::move(res));
}

void GraphScheduler::complete_unit(std::unique_ptr<Unit> unit,
                                   fabric::KernelResult res) {
  std::shared_ptr<Job> job = unit->job;
  std::vector<NodeId> to_build;
  bool job_finished = false;
  {
    MutexLock lock(mu_);
    Tenant& ten = *tenants_[job->tenant];
    if (ten.inflight > 0) --ten.inflight;
    ++ten.units_completed;
    if (!res.ok) ++ten.units_failed;
    ten.cycles += res.cycles;
    ten.energy_nj += res.energy_nj;
    // WFQ charge: service is fabric cycles over the tenant weight. Failed
    // units cost zero cycles and charge nothing, matching the accounting.
    ten.vtime += res.cycles / ten.cfg.weight;

    if (job->single) {
      ++ten.jobs_completed;
      job_finished = true;
    } else {
      // Skip units whose request was never built (make threw): a default
      // request's clock would skew the graph's avg-power figure.
      if (job->clock_ghz == 0.0 && unit->make_error.empty())
        job->clock_ghz = fabric::effective_core(unit->req).pe.clock_ghz;
      if (!res.ok) {
        job->failed = true;
        if (job->first_error.empty()) {
          const std::string& name = job->graph.node(unit->id).name;
          job->first_error = (name.empty() ? "node" : name) + ": " + res.error;
        }
      }
      job->results[unit->id] = std::move(res);
      --job->remaining;

      // Release dependents; cancel (recursively) anything downstream of a
      // failure the moment its last dependency resolves.
      std::vector<NodeId> cascade{unit->id};
      while (!cascade.empty()) {
        const NodeId done = cascade.back();
        cascade.pop_back();
        const bool done_failed = !job->results[done].ok;
        for (NodeId dep : job->graph.node(done).dependents) {
          if (done_failed) job->upstream_failed[dep] = 1;
          if (--job->missing[dep] != 0) continue;
          if (job->upstream_failed[dep]) {
            job->results[dep] =
                cancelled_result(backend_.name(), job->graph.node(dep).name,
                                 job->first_error);
            --job->remaining;
            job->failed = true;
            ++ten.units_completed;
            ++ten.units_failed;
            cascade.push_back(dep);
          } else {
            to_build.push_back(dep);
          }
        }
      }
      if (job->remaining == 0) {
        ++ten.jobs_completed;
        job_finished = true;
      }
    }
    if (job_finished) {
      // Free the admission slot now (so a completion hook may itself
      // submit, even at capacity) but keep the job "unresolved" until its
      // hook has run and its promise is set -- the drain() contract.
      --pending_jobs_;
    }
  }

  if (job_finished) {
    admit_cv_.notify_all();
    if (job->single) {
      run_hook(job->khook, res);  // `res` was not consumed on this path
      job->kpromise.set_value(std::move(res));
    } else {
      finalize_job(job);
    }
    {
      MutexLock lock(mu_);
      --unresolved_jobs_;
    }
    drain_cv_.notify_all();
  }
  if (!to_build.empty()) {
    // Build the released requests outside the lock: the deferred closures
    // may deep-copy tiles, and every dependency's commit happens-before
    // this point (same thread, or through the mutex).
    std::vector<std::unique_ptr<Unit>> units;
    units.reserve(to_build.size());
    for (NodeId id : to_build) units.push_back(build_unit(job, id));
    enqueue(std::move(units));
  }
}

void GraphScheduler::finalize_job(const std::shared_ptr<Job>& job) {
  GraphResult out;
  out.nodes = std::move(job->results);
  for (const fabric::KernelResult& r : out.nodes) {
    if (!r.ok) ++out.failed;
    out.energy_nj += r.energy_nj;
    out.area_mm2 = std::max(out.area_mm2, r.area_mm2);
  }
  out.ok = out.failed == 0;
  out.error = job->first_error;
  out.workers = slots_;
  out.total_cycles = serial_cycles(out.nodes);
  out.makespan_cycles = list_makespan(job->graph, out.nodes, slots_);
  // Cycles / Cycles is dimensionless, so the speedup falls out as a plain
  // ratio; the makespan-time power figure goes through the typed clock
  // division exactly like attach_cost does.
  out.speedup = out.makespan_cycles.value() > 0.0
                    ? out.total_cycles / out.makespan_cycles
                    : 1.0;
  const units::Seconds t =
      job->clock_ghz > 0.0
          ? out.makespan_cycles / units::Gigahertz(job->clock_ghz)
          : units::Seconds{};
  out.avg_power_w = t.value() > 0.0 ? units::to_joules(out.energy_nj) / t
                                    : units::Watts{};
  out.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                          job->admitted)
                    .count();
  run_hook(job->ghook, out);
  job->gpromise.set_value(std::move(out));
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
  assert(tenant < tenants_.size());
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
