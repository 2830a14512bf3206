#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <future>
#include <optional>
#include <stdexcept>
#include <thread>

#include "arch/presets.hpp"
#include "blas/ref_lapack.hpp"
#include "common/numeric.hpp"
#include "common/random.hpp"
#include "fabric/kernel_registry.hpp"
#include "fabric/model_executor.hpp"
#include "fabric/serving.hpp"
#include "fabric/sim_executor.hpp"
#include "sched/graph_builders.hpp"
#include "sched/graph_scheduler.hpp"

namespace perfbench {
namespace fab = lac::fabric;
namespace sch = lac::sched;
using lac::index_t;
using lac::MatrixD;

namespace {

constexpr double kBw = 2.0;    ///< words/cycle, as in the serving bench
constexpr double kTol = 1e-9;  ///< backend-parity tolerance of the fabric tests

const std::vector<fab::KernelKind>& mix_kinds() {
  static const std::vector<fab::KernelKind> kinds = {
      fab::KernelKind::Gemm,     fab::KernelKind::Syrk, fab::KernelKind::Trsm,
      fab::KernelKind::Cholesky, fab::KernelKind::Lu,   fab::KernelKind::Qr,
      fab::KernelKind::Fft};
  return kinds;
}

/// Payload seed for one (kind, n) under the run's seed. sized_request
/// draws seed, seed + 1, seed + 2, so the stride keeps payloads apart.
std::uint64_t payload_seed(std::uint64_t seed, int salt, index_t n) {
  return seed * 1000003ull + static_cast<std::uint64_t>(salt) * 4099ull +
         static_cast<std::uint64_t>(n) * 8ull;
}

template <typename T>
void shuffle(std::vector<T>& v, lac::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[static_cast<std::size_t>(rng.next_index(i))]);
}

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool same_matrix(const MatrixD& a, const MatrixD& b) {
  const auto n = static_cast<std::size_t>(a.rows() * a.cols());
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (n == 0 || std::memcmp(a.data(), b.data(), n * sizeof(double)) == 0);
}

bool same_double(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

double max_abs(const std::vector<std::complex<double>>& v) {
  double m = 0.0;
  for (const auto& z : v) m = std::max(m, std::abs(z));
  return m;
}

double max_abs_diff(const std::vector<double>& a, const std::vector<double>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

/// Byte-identical outputs, cycles, energy and simulator stats.
bool same_result(const fab::KernelResult& a, const fab::KernelResult& b) {
  return a.ok == b.ok && same_matrix(a.out, b.out) && same_bytes(a.pivots, b.pivots) &&
         same_bytes(a.taus, b.taus) && same_double(a.scalar, b.scalar) &&
         same_bytes(a.spectrum, b.spectrum) &&
         same_double(a.cycles.value(), b.cycles.value()) &&
         same_double(a.energy_nj.value(), b.energy_nj.value()) &&
         std::memcmp(&a.stats, &b.stats, sizeof a.stats) == 0;
}

/// Empty when `res` matches KernelTraits::reference_run on `req` within the
/// backend-parity tolerance of the fabric tests.
std::string check_reference(const fab::KernelRequest& req, const fab::KernelResult& res) {
  if (!res.ok) return "not ok: " + res.error;
  fab::KernelResult ref;
  if (std::string err = fab::kernel_traits(req.kind).reference_run(req, ref); !err.empty())
    return "reference failed: " + err;
  if (ref.out.rows() * ref.out.cols() > 0 &&
      !(lac::rel_error(res.out.view(), ref.out.view()) < kTol))
    return "output differs from the host reference";
  if (ref.pivots != res.pivots) return "pivots differ from the host reference";
  if (ref.taus.size() != res.taus.size() ||
      !(max_abs_diff(ref.taus, res.taus) < kTol))
    return "taus differ from the host reference";
  if (!(std::abs(ref.scalar - res.scalar) <= kTol * std::max(1.0, std::abs(ref.scalar))))
    return "scalar differs from the host reference";
  if (ref.spectrum.size() != res.spectrum.size()) return "spectrum size differs";
  double diff = 0.0;
  for (std::size_t i = 0; i < ref.spectrum.size(); ++i)
    diff = std::max(diff, std::abs(ref.spectrum[i] - res.spectrum[i]));
  if (!(diff <= kTol * std::max(1.0, max_abs(ref.spectrum))))
    return "spectrum differs from the host reference";
  return "";
}

/// Jain's fairness index of the values (1 = perfectly even).
double jain(const std::vector<double>& x) {
  double sum = 0.0, sq = 0.0;
  for (double v : x) {
    sum += v;
    sq += v * v;
  }
  return sq > 0.0 ? sum * sum / (static_cast<double>(x.size()) * sq) : 1.0;
}

/// Records the client-side traced timings and spans of one single op:
/// `begin`/`end` bracket the submit call, `exec` is the decorator's record
/// the completion hook handed over, `seen` is when the client got the result.
void record_op(TraceStats& t, SpanLog& spans, const char* submit_span, std::uint64_t op,
               std::uint64_t begin, std::uint64_t end, const ExecRecord& exec,
               std::uint64_t seen) {
  auto us = [](std::uint64_t from, std::uint64_t to) {
    return to > from ? static_cast<double>(to - from) / 1e3 : 0.0;
  };
  t.submit_us.add(us(begin, end));
  t.wait_us.add(us(end, exec.start_ns));
  t.resolve_us.add(us(exec.end_ns, seen));
  const std::uint64_t client = thread_tag();
  const std::uint64_t root = spans.add("op", op, 0, client, begin, seen);
  spans.add(submit_span, op, root, client, begin, end);
  spans.add("pool.wait", op, root, exec.tid, end, std::max(end, exec.start_ns));
  spans.add("fabric.execute", op, root, exec.tid, exec.start_ns, exec.end_ns);
  spans.add("client.resolve", op, root, client, exec.end_ns, seen);
}

/// Shared traced-window bracketing: allocation counting and the
/// decorator's totals.
class TracedWindow {
 public:
  TracedWindow(bool on, TimedExecutor* timed) : on_(on), timed_(timed) {
    if (!on_) return;
    if (timed_) timed_->reset_totals();
    alloc0_ = alloc_count();
    set_alloc_counting(true);
  }
  void close(TraceStats& t) {
    if (!on_) return;
    set_alloc_counting(false);
    const AllocCount a = alloc_count();
    t.alloc.count = a.count - alloc0_.count;
    t.alloc.bytes = a.bytes - alloc0_.bytes;
    if (timed_) t.exec = timed_->totals();
  }

 private:
  bool on_;
  TimedExecutor* timed_;
  AllocCount alloc0_;
};

// ---- sim_serve / model_serve ----------------------------------------------

/// The serving mix behind AsyncExecutor, 2 x workers ops in flight, in a
/// seeded shuffled order over `repeats` copies of each (kind, n).
class ServeWorkload final : public Workload {
 public:
  ServeWorkload(bool sim, std::vector<index_t> sizes, std::uint64_t repeats,
                const WorkloadConfig& cfg)
      : sim_(sim), sizes_(std::move(sizes)), repeats_(repeats), cfg_(cfg) {}

  FrontEnd front_end() const override { return FrontEnd::Serving; }
  std::uint64_t ops_per_pass() const override { return cycle_.size(); }
  RequestMix pass_requests() const override { return mix_; }
  lac::ThreadPool& pool() override { return *pool_; }
  const fab::Executor& backend() const override { return *backend_; }
  bool simulates() const override { return sim_; }

  void setup() override {
    mix_ = serving_mix(sizes_, cfg_.seed);
    for (std::uint64_t& c : mix_.count) c = repeats_;
    for (std::size_t i = 0; i < mix_.reqs.size(); ++i)
      for (std::uint64_t r = 0; r < repeats_; ++r) cycle_.push_back(i);
    lac::Rng rng(cfg_.seed);
    shuffle(cycle_, rng);

    pool_ = std::make_unique<lac::ThreadPool>(cfg_.workers);
    if (sim_)
      inner_ = std::make_unique<fab::SimExecutor>();
    else
      inner_ = std::make_unique<fab::ModelExecutor>(&cache_);
    backend_ = inner_.get();
    if (cfg_.traced) {
      timed_ = std::make_unique<TimedExecutor>(*inner_);
      backend_ = timed_.get();
    }
    // The simulator gets the cost cache as its size hint; the model backend
    // reads the same cache inside execute and needs no hint.
    async_ = std::make_unique<fab::AsyncExecutor>(*backend_, pool_.get(),
                                                  sim_ ? &cache_ : nullptr);
    slots_.resize(2 * static_cast<std::size_t>(cfg_.workers));
    expected_.assign(mix_.reqs.size(), std::nullopt);

    warming_ = true;
    Window warm;
    loop(0.0, warm);
    warming_ = false;
    if (!warm_error_.empty()) throw std::runtime_error(warm_error_);
    for (std::size_t i = 0; i < mix_.reqs.size(); ++i) {
      if (!expected_[i]) throw std::runtime_error("warm-up missed a request");
      if (std::string err = check_reference(mix_.reqs[i], *expected_[i]); !err.empty())
        throw std::runtime_error(std::string(fab::to_string(mix_.reqs[i].kind)) + ": " + err);
    }
    for (std::size_t i : cycle_) {
      pass_cycles_ += expected_[i]->cycles.value();
      pass_macs_ += expected_[i]->stats.mac_ops;
    }
  }

  void run(double seconds, Window& window) override {
    counts_ = ExactCounts{};
    trace_ = TraceStats{};
    const std::uint64_t hits0 = cache_.hits(), misses0 = cache_.misses();
    TracedWindow traced(cfg_.traced, timed_.get());
    loop(seconds, window);
    traced.close(trace_);
    const WindowStats& w = window.stats();
    counts_.cache_hits = cache_.hits() - hits0;
    counts_.cache_misses = cache_.misses() - misses0;
    counts_.units = counts_.jobs = w.attempted;
    const double passes = static_cast<double>(w.passes);
    if (counts_.cycles != passes * pass_cycles_ ||
        counts_.macs != static_cast<std::int64_t>(w.passes) * pass_macs_)
      count_error_ = "window cycles/MACs differ from whole passes of the warm-up";
    if (counts_.cache_misses != 0) count_error_ = "the warm cost cache missed";
  }

 private:
  struct Slot {
    std::uint64_t op = 0;
    std::size_t req = 0;
    std::future<fab::KernelResult> fut;
    std::uint64_t begin_ns = 0, end_ns = 0;
    ExecRecord exec;
  };

  void loop(double seconds, Window& window) {
    run_closed_loop(
        static_cast<std::uint32_t>(slots_.size()), cycle_.size(), seconds, queue_, window,
        [this](std::uint32_t s, std::uint64_t op) { submit(s, op); },
        [this](std::uint32_t s, std::uint64_t& seen) { return finish(s, seen); });
  }

  void submit(std::uint32_t s, std::uint64_t op) {
    Slot& slot = slots_[s];
    slot.op = op;
    slot.req = cycle_[op % cycle_.size()];
    const bool traced = cfg_.traced;
    if (traced) slot.begin_ns = wall_ns();
    slot.fut = async_->submit(mix_.reqs[slot.req], [this, s](const fab::KernelResult&) {
      if (cfg_.traced) slots_[s].exec = TimedExecutor::last();
      queue_.push(s);
    });
    if (traced) slot.end_ns = wall_ns();
  }

  bool finish(std::uint32_t s, std::uint64_t& seen) {
    Slot& slot = slots_[s];
    const fab::KernelResult res = slot.fut.get();
    seen = wall_ns();
    if (warming_) {
      std::optional<fab::KernelResult>& want = expected_[slot.req];
      if (!res.ok)
        warm_error_ = std::string(fab::to_string(mix_.reqs[slot.req].kind)) +
                      " failed in warm-up: " + res.error;
      else if (!want)
        want = res;
      else if (!same_result(res, *want))
        warm_error_ = "warm-up results of one request differ";
      return res.ok;
    }
    counts_.cycles += res.cycles.value();
    counts_.macs += res.stats.mac_ops;
    if (cfg_.traced)
      record_op(trace_, spans_, "client.submit", slot.op, slot.begin_ns, slot.end_ns,
                slot.exec, seen);
    return res.ok && same_result(res, *expected_[slot.req]);
  }

  bool sim_;
  std::vector<index_t> sizes_;
  std::uint64_t repeats_;
  WorkloadConfig cfg_;
  RequestMix mix_;  ///< distinct requests, counted by their copies per pass
  std::vector<std::size_t> cycle_;
  std::unique_ptr<lac::ThreadPool> pool_;
  fab::CostCache cache_;
  std::unique_ptr<fab::Executor> inner_;
  std::unique_ptr<TimedExecutor> timed_;
  const fab::Executor* backend_ = nullptr;
  std::unique_ptr<fab::AsyncExecutor> async_;
  CompletionQueue queue_;
  std::vector<Slot> slots_;
  std::vector<std::optional<fab::KernelResult>> expected_;
  bool warming_ = false;
  std::string warm_error_;
  double pass_cycles_ = 0.0;
  std::int64_t pass_macs_ = 0;
};

// ---- dse_sweep --------------------------------------------------------------

/// The codesign loop: every grid point priced through CostCache::estimate
/// on a fresh cache each pass, fanned out over the pool with the caller
/// participating. An op is one grid point, and its latency is the time the
/// pricing of that point takes once a thread has claimed it: the sweep is
/// a batch job, so no client waits on a single point, and one sample per
/// pass would leave too few for a p99.
class SweepWorkload final : public Workload {
 public:
  explicit SweepWorkload(const WorkloadConfig& cfg) : cfg_(cfg) {}

  FrontEnd front_end() const override { return FrontEnd::Sweep; }
  std::uint64_t ops_per_pass() const override { return grid_.size(); }
  lac::ThreadPool& pool() override { return *pool_; }
  // The ledger's probes of layers the sweep never enters run on a cached
  // model backend over this pool.
  const fab::Executor& backend() const override { return *backend_; }
  bool simulates() const override { return false; }

  RequestMix pass_requests() const override {
    RequestMix m;
    for (const fab::KernelRequest& r : grid_) m.add(r);
    return m;
  }

  void setup() override {
    const fab::KernelKind kinds[] = {fab::KernelKind::Gemm, fab::KernelKind::Syrk,
                                     fab::KernelKind::Trsm, fab::KernelKind::Cholesky,
                                     fab::KernelKind::Lu,   fab::KernelKind::Qr};
    const lac::arch::SfuOption sfus[] = {lac::arch::SfuOption::Software,
                                         lac::arch::SfuOption::IsolatedUnit,
                                         lac::arch::SfuOption::DiagonalPEs};
    const lac::arch::TechNode nodes[] = {lac::arch::TechNode::nm65, lac::arch::TechNode::nm45,
                                         lac::arch::TechNode::nm32};
    for (int nr : {4, 8}) {
      const lac::arch::CoreConfig core =
          nr == 4 ? lac::arch::lac_4x4_dp() : lac::arch::lac_8x8_dp();
      for (fab::KernelKind kind : kinds) {
        for (index_t n : {64, 128, 256}) {
          const fab::KernelRequest base = fab::kernel_traits(kind).sized_request(
              core, 1.0, n, payload_seed(cfg_.seed, static_cast<int>(kind) + 16 * nr, n));
          for (double bw : {0.5, 1.0, 2.0, 4.0, 8.0})
            for (lac::arch::TechNode node : nodes)
              for (lac::arch::SfuOption sfu : sfus)
                for (double clock : {0.0, 0.8, 1.4}) {
                  fab::KernelRequest req = base;
                  req.bw_words_per_cycle = bw;
                  req.core.sfu = sfu;
                  req.tech = lac::arch::TechContext{node, clock};
                  if (std::string err = fab::validate(req); !err.empty())
                    throw std::runtime_error("invalid grid point: " + err);
                  grid_.push_back(std::move(req));
                }
        }
      }
    }
    order_.resize(grid_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    lac::Rng rng(cfg_.seed);
    shuffle(order_, rng);
    est_.resize(grid_.size());
    thread_latency_.resize(cfg_.workers + 1);

    pool_ = std::make_unique<lac::ThreadPool>(cfg_.workers);
    probe_model_ = std::make_unique<fab::ModelExecutor>(&probe_cache_);
    backend_ = probe_model_.get();
    if (cfg_.traced) {
      timed_ = std::make_unique<TimedExecutor>(*probe_model_);
      backend_ = timed_.get();
    }

    // Warm-up pass: its digest is the one every later pass must match.
    std::uint64_t misses = 0;
    if (pass(misses) != 0) throw std::runtime_error("warm-up estimate not finite/positive");
    if (misses != grid_.size())
      throw std::runtime_error("grid signatures collide: " + std::to_string(misses) +
                               " distinct of " + std::to_string(grid_.size()));
    want_digest_ = digest();
  }

  void run(double seconds, Window& window) override {
    counts_ = ExactCounts{};
    timed_calls_.reset();
    TracedWindow traced(cfg_.traced, nullptr);
    window.start();
    const std::uint64_t deadline =
        window.start_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    std::uint64_t passes = 0, now = 0;
    do {
      std::uint64_t misses = 0;
      std::uint64_t bad = pass(misses);
      now = wall_ns();
      if (digest() != want_digest_) bad = grid_.size();
      window.complete(grid_.size(), pass_latency_, bad);
      counts_.cache_misses += misses;
      counts_.units += grid_.size();
      ++passes;
    } while (now < deadline);
    window.finish(passes);
    traced.close(trace_);
    if (cfg_.traced) trace_.exec = timed_calls_.sum();
    counts_.jobs = passes;
    if (counts_.cache_misses != passes * grid_.size())
      count_error_ = "a fresh cache did not miss once per grid point";
  }

 private:
  /// One pass on a fresh cache; returns the number of failed points and
  /// leaves the per-point latencies in pass_latency_.
  std::uint64_t pass(std::uint64_t& misses) {
    fab::CostCache cache;
    const bool traced = cfg_.traced;
    const std::thread::id caller = std::this_thread::get_id();
    // Each thread records latencies into its own histogram, claimed the
    // first time it prices a point in this pass.
    static std::atomic<std::uint64_t> pass_ids{0};
    const std::uint64_t pass_id = ++pass_ids;
    std::atomic<unsigned> next_slot{0};
    for (LatencyHistogram& h : thread_latency_) h.clear();
    pool_->parallel_for(
        grid_.size(),
        [&](std::size_t i) {
          thread_local std::uint64_t t_pass = 0;
          thread_local unsigned t_slot = 0;
          if (t_pass != pass_id) {
            t_pass = pass_id;
            t_slot = next_slot.fetch_add(1);
          }
          const std::size_t p = order_[i];
          // Traced: thread CPU of the estimates the pool workers make; the
          // caller's share already sits inside the client thread's CPU.
          const bool timed = traced && std::this_thread::get_id() != caller;
          const std::uint64_t w0 = wall_ns(), c0 = timed ? thread_cpu_ns() : 0;
          est_[p] = cache.estimate(grid_[p]);
          if (timed) timed_calls_.add(thread_cpu_ns() - c0);
          thread_latency_[t_slot].add(static_cast<double>(wall_ns() - w0) / 1e3);
        },
        cfg_.workers + 1);
    pass_latency_.clear();
    for (const LatencyHistogram& h : thread_latency_) pass_latency_.merge(h);
    misses = cache.misses();
    counts_.cache_hits += cache.hits();
    std::uint64_t bad = 0;
    for (const fab::CostCache::Estimate& e : est_) {
      const bool ok = std::isfinite(e.cycles.value()) && e.cycles.value() > 0.0 &&
                      std::isfinite(e.energy_nj.value()) && e.energy_nj.value() >= 0.0 &&
                      std::isfinite(e.utilization) && std::isfinite(e.avg_power_w.value()) &&
                      std::isfinite(e.area_mm2.value());
      bad += ok ? 0 : 1;
    }
    return bad;
  }

  /// FNV-1a over every estimate, in grid order.
  std::uint64_t digest() const {
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](double v) {
      const auto bits = std::bit_cast<std::uint64_t>(v);
      for (int b = 0; b < 64; b += 8) {
        h ^= (bits >> b) & 0xffu;
        h *= 1099511628211ull;
      }
    };
    for (const fab::CostCache::Estimate& e : est_) {
      mix(e.cycles.value());
      mix(e.utilization);
      mix(e.energy_nj.value());
      mix(e.avg_power_w.value());
      mix(e.area_mm2.value());
    }
    return h;
  }

  WorkloadConfig cfg_;
  std::vector<fab::KernelRequest> grid_;
  std::vector<std::size_t> order_;
  std::vector<fab::CostCache::Estimate> est_;
  std::vector<LatencyHistogram> thread_latency_;
  LatencyHistogram pass_latency_;
  std::uint64_t want_digest_ = 0;
  std::unique_ptr<lac::ThreadPool> pool_;
  fab::CostCache probe_cache_;
  std::unique_ptr<fab::ModelExecutor> probe_model_;
  std::unique_ptr<TimedExecutor> timed_;
  const fab::Executor* backend_ = nullptr;
  ThreadTotals timed_calls_;
};

// ---- sched_tenants ----------------------------------------------------------

/// GraphScheduler over a cached ModelExecutor: three tenants weighted 1/2/4
/// keep four jobs outstanding each. Every 4th job of the cycle is a tiled
/// factorization graph (n = 64, block 16) rotating CHOL, LU, QR; the rest
/// are model_serve singles.
class SchedWorkload final : public Workload {
 public:
  explicit SchedWorkload(const WorkloadConfig& cfg) : cfg_(cfg) {}

  FrontEnd front_end() const override { return FrontEnd::Sched; }
  std::uint64_t ops_per_pass() const override { return cycle_.size(); }
  RequestMix pass_requests() const override { return executed_; }
  lac::ThreadPool& pool() override { return *pool_; }
  const fab::Executor& backend() const override { return *backend_; }
  bool simulates() const override { return false; }

  void setup() override {
    singles_ = serving_mix({16, 32}, cfg_.seed);
    const std::uint64_t s = payload_seed(cfg_.seed, 99, kGraphN);
    inputs_[0] = lac::random_spd(kGraphN, s);
    inputs_[1] = lac::random_matrix(kGraphN, kGraphN, s + 1);
    inputs_[2] = lac::random_matrix(kGraphN, kGraphN, s + 2);

    // 168 jobs: 42 graphs (every 4th job, 14 of each kind) and 126 singles
    // (9 of each distinct single, in seeded order).
    std::vector<std::size_t> single_order;
    for (std::size_t i = 0; i < singles_.reqs.size(); ++i)
      for (int r = 0; r < 9; ++r) single_order.push_back(i);
    lac::Rng rng(cfg_.seed);
    shuffle(single_order, rng);
    std::size_t next_single = 0, next_graph = 0;
    for (std::size_t p = 0; p < 4 * single_order.size() / 3; ++p) {
      if (p % 4 == 3)
        cycle_.push_back(Job{true, next_graph++ % 3});
      else
        cycle_.push_back(Job{false, single_order[next_single++]});
    }

    pool_ = std::make_unique<lac::ThreadPool>(cfg_.workers);
    model_ = std::make_unique<fab::ModelExecutor>(&cache_);
    backend_ = model_.get();
    if (cfg_.traced) {
      timed_ = std::make_unique<TimedExecutor>(*model_);
      backend_ = timed_.get();
    }
    sch::SchedulerOptions opts;
    opts.workers = cfg_.workers;
    sched_ = std::make_unique<sch::GraphScheduler>(*backend_, opts, pool_.get());
    for (double w : {1.0, 2.0, 4.0})
      tenants_.push_back(sched_->add_tenant(
          sch::TenantConfig{"w" + std::to_string(static_cast<int>(w)), w, 0}));
    slots_.resize(kOutstanding * tenants_.size());
    expected_.assign(singles_.reqs.size(), std::nullopt);

    // The warm-up records the mix of requests the graphs' nodes and the
    // singles execute, which is what the ledger isolates.
    if (timed_) timed_->set_capture(true);
    warming_ = true;
    Window warm;
    loop(0.0, warm);
    warming_ = false;
    if (timed_) {
      timed_->set_capture(false);
      executed_ = RequestMix::distinct(timed_->take_captured());
    }
    if (!warm_error_.empty()) throw std::runtime_error(warm_error_);
    for (std::size_t i = 0; i < singles_.reqs.size(); ++i) {
      if (!expected_[i]) throw std::runtime_error("warm-up missed a single");
      if (std::string err = check_reference(singles_.reqs[i], *expected_[i]); !err.empty())
        throw std::runtime_error(err);
    }
    for (int k = 0; k < 3; ++k)
      if (std::string err = check_factor(k); !err.empty()) throw std::runtime_error(err);
    pass_units_ = warm_units_;
  }

  void run(double seconds, Window& window) override {
    counts_ = ExactCounts{};
    trace_ = TraceStats{};
    std::vector<double> served0;
    for (sch::TenantId t : tenants_) served0.push_back(sched_->tenant_stats(t).cycles.value());
    const std::uint64_t hits0 = cache_.hits(), misses0 = cache_.misses();
    TracedWindow traced(cfg_.traced, timed_.get());
    loop(seconds, window);
    traced.close(trace_);
    std::vector<double> share;
    for (std::size_t i = 0; i < tenants_.size(); ++i)
      share.push_back((sched_->tenant_stats(tenants_[i]).cycles.value() - served0[i]) /
                      sched_->tenant_stats(tenants_[i]).weight);
    fairness_jain_ = jain(share);
    counts_.cache_hits = cache_.hits() - hits0;
    counts_.cache_misses = cache_.misses() - misses0;
    counts_.jobs = window.stats().attempted;
    if (counts_.units != window.stats().passes * pass_units_)
      count_error_ = "executed units differ from whole passes of the warm-up";
    if (counts_.cache_misses != 0) count_error_ = "the warm cost cache missed";
  }

 private:
  static constexpr index_t kGraphN = 64;
  static constexpr index_t kBlock = 16;
  static constexpr std::size_t kOutstanding = 4;

  struct Job {
    bool graph = false;
    std::size_t index = 0;  ///< single: request index; graph: 0 CHOL, 1 LU, 2 QR
  };
  struct Slot {
    std::uint64_t op = 0;
    Job job;
    std::future<fab::KernelResult> single;
    std::future<sch::GraphResult> graph;
    sch::FactorGraph factor;
    std::uint64_t begin_ns = 0, end_ns = 0;
    ExecRecord exec;
  };
  /// A finished factorization, as bytes to compare.
  struct Factor {
    MatrixD work;
    std::vector<index_t> pivots;
    std::vector<double> taus;
  };

  sch::FactorGraph build_graph(std::size_t kind) const {
    const lac::arch::CoreConfig core = lac::arch::lac_4x4_dp();
    const lac::ConstViewD a = inputs_[kind].view();
    if (kind == 0) return sch::build_cholesky_graph(core, kBw, a, kBlock);
    if (kind == 1) return sch::build_lu_graph(core, kBw, a, kBlock);
    return sch::build_qr_graph(core, kBw, a, kBlock);
  }

  void loop(double seconds, Window& window) {
    run_closed_loop(
        static_cast<std::uint32_t>(slots_.size()), cycle_.size(), seconds, queue_, window,
        [this](std::uint32_t s, std::uint64_t op) { submit(s, op); },
        [this](std::uint32_t s, std::uint64_t& seen) { return finish(s, seen); });
  }

  void submit(std::uint32_t s, std::uint64_t op) {
    Slot& slot = slots_[s];
    slot.op = op;
    slot.job = cycle_[op % cycle_.size()];
    const sch::TenantId tenant = tenants_[s / kOutstanding];
    const bool traced = cfg_.traced;
    if (slot.job.graph) {
      slot.factor = build_graph(slot.job.index);
      if (traced) slot.begin_ns = wall_ns();
      slot.graph = sched_->submit(tenant, std::move(slot.factor.graph),
                                  [this, s](const sch::GraphResult&) { queue_.push(s); });
    } else {
      if (traced) slot.begin_ns = wall_ns();
      slot.single = sched_->submit(tenant, singles_.reqs[slot.job.index],
                                   [this, s](const fab::KernelResult&) {
                                     if (cfg_.traced) slots_[s].exec = TimedExecutor::last();
                                     queue_.push(s);
                                   });
    }
    if (traced) slot.end_ns = wall_ns();
  }

  bool finish(std::uint32_t s, std::uint64_t& seen) {
    Slot& slot = slots_[s];
    if (slot.job.graph) {
      const sch::GraphResult res = slot.graph.get();
      seen = wall_ns();
      Factor got{*slot.factor.work,
                 slot.factor.pivots ? *slot.factor.pivots : std::vector<index_t>{},
                 slot.factor.taus ? *slot.factor.taus : std::vector<double>{}};
      if (warming_) {
        warm_units_ += res.nodes.size();
        if (!res.ok) warm_error_ = "graph failed in warm-up: " + res.error;
        std::optional<Factor>& want = factors_[slot.job.index];
        if (!want)
          want = std::move(got);
        else if (!same_factor(got, *want))
          warm_error_ = "warm-up factors of one graph differ";
        return res.ok;
      }
      counts_.units += res.nodes.size();
      if (cfg_.traced) {
        const std::uint64_t client = thread_tag();
        const std::uint64_t root = spans_.add("op", slot.op, 0, client, slot.begin_ns, seen);
        spans_.add("sched.submit", slot.op, root, client, slot.begin_ns, slot.end_ns);
      }
      return res.ok && same_factor(got, *factors_[slot.job.index]);
    }
    const fab::KernelResult res = slot.single.get();
    seen = wall_ns();
    if (warming_) {
      ++warm_units_;
      std::optional<fab::KernelResult>& want = expected_[slot.job.index];
      if (!res.ok)
        warm_error_ = "single failed in warm-up: " + res.error;
      else if (!want)
        want = res;
      else if (!same_result(res, *want))
        warm_error_ = "warm-up results of one single differ";
      return res.ok;
    }
    ++counts_.units;
    if (cfg_.traced)
      record_op(trace_, spans_, "sched.submit", slot.op, slot.begin_ns, slot.end_ns,
                slot.exec, seen);
    return res.ok && same_result(res, *expected_[slot.job.index]);
  }

  static bool same_factor(const Factor& a, const Factor& b) {
    return same_matrix(a.work, b.work) && same_bytes(a.pivots, b.pivots) &&
           same_bytes(a.taus, b.taus);
  }

  /// The warm-up factor of graph kind k against the blas reference.
  std::string check_factor(int k) const {
    const Factor& f = *factors_[k];
    MatrixD expect = inputs_[k];
    if (k == 0) {
      if (!lac::blas::cholesky(expect.view())) return "reference Cholesky failed";
      MatrixD lower = f.work;
      for (index_t j = 1; j < kGraphN; ++j)
        for (index_t i = 0; i < j; ++i) expect(i, j) = lower(i, j) = 0.0;
      return lac::rel_error(lower.view(), expect.view()) < kTol ? "" : "CHOL graph factor";
    }
    if (k == 1) {
      std::vector<index_t> piv;
      if (!lac::blas::lu_partial_pivot(expect.view(), piv)) return "reference LU failed";
      return lac::rel_error(f.work.view(), expect.view()) < kTol && piv == f.pivots
                 ? ""
                 : "LU graph factor";
    }
    const std::vector<double> taus = lac::blas::qr_householder(expect.view());
    return lac::rel_error(f.work.view(), expect.view()) < 1e-8 &&
                   taus.size() == f.taus.size() && max_abs_diff(taus, f.taus) < kTol
               ? ""
               : "QR graph factor";
  }

  WorkloadConfig cfg_;
  RequestMix singles_;
  RequestMix executed_;
  MatrixD inputs_[3];
  std::vector<Job> cycle_;
  std::unique_ptr<lac::ThreadPool> pool_;
  fab::CostCache cache_;
  std::unique_ptr<fab::ModelExecutor> model_;
  std::unique_ptr<TimedExecutor> timed_;
  const fab::Executor* backend_ = nullptr;
  std::unique_ptr<sch::GraphScheduler> sched_;
  std::vector<sch::TenantId> tenants_;
  CompletionQueue queue_;
  std::vector<Slot> slots_;
  std::vector<std::optional<fab::KernelResult>> expected_;
  std::optional<Factor> factors_[3];
  bool warming_ = false;
  std::string warm_error_;
  std::uint64_t warm_units_ = 0;
  std::uint64_t pass_units_ = 0;
};

}  // namespace

std::uint64_t RequestMix::total() const {
  std::uint64_t t = 0;
  for (std::uint64_t c : count) t += c;
  return t;
}

void RequestMix::add(const fab::KernelRequest& req, std::uint64_t n) {
  reqs.push_back(req);
  count.push_back(n);
}

RequestMix RequestMix::distinct(const std::vector<fab::KernelRequest>& executed) {
  RequestMix m;
  std::vector<std::string> keys;
  for (const fab::KernelRequest& req : executed) {
    const std::string key = fab::CostCache::signature(req);
    const auto it = std::find(keys.begin(), keys.end(), key);
    if (it == keys.end()) {
      keys.push_back(key);
      m.add(req);
    } else {
      ++m.count[static_cast<std::size_t>(it - keys.begin())];
    }
  }
  return m;
}

RequestMix serving_mix(const std::vector<index_t>& sizes, std::uint64_t seed) {
  RequestMix m;
  const lac::arch::CoreConfig core = lac::arch::lac_4x4_dp();
  for (fab::KernelKind kind : mix_kinds())
    for (index_t n : sizes)
      m.add(fab::kernel_traits(kind).sized_request(
          core, kBw, n, payload_seed(seed, static_cast<int>(kind), n)));
  return m;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"sim_serve", "model_serve", "dse_sweep",
                                                 "sched_tenants"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, const WorkloadConfig& cfg) {
  if (name == "sim_serve")
    return std::make_unique<ServeWorkload>(true, std::vector<index_t>{16, 32, 64}, 8, cfg);
  if (name == "model_serve")
    return std::make_unique<ServeWorkload>(false, std::vector<index_t>{16, 32}, 32, cfg);
  if (name == "dse_sweep") return std::make_unique<SweepWorkload>(cfg);
  if (name == "sched_tenants") return std::make_unique<SchedWorkload>(cfg);
  return nullptr;
}

}  // namespace perfbench
