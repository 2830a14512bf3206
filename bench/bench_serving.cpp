// Serving-layer throughput bench: sustained mixed-kernel traffic through
// the persistent serving path (AsyncExecutor + shared ThreadPool +
// CostCache) versus the PR-1 dispatch pattern (spawn-and-join host threads
// on every call, deep-copied operands).
//
// The workload is >= 200 requests over repeated shapes -- the serving
// profile the ROADMAP targets -- and every payload is shared (zero-copy
// requests). Emits JSON records (requests/s, p50/p99 wall latency, cache
// hit rate, per backend and mode) to stdout and BENCH_serving.json, plus a
// byte-identical determinism check across pool widths. Set LAC_BENCH_SMOKE=1
// for a CI-sized run.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/presets.hpp"
#include "bench_support.hpp"
#include "common/random.hpp"
#include "common/thread_pool.hpp"
#include "fabric/model_executor.hpp"
#include "fabric/serving.hpp"
#include "fabric/sim_executor.hpp"
#include "obs/trace.hpp"

namespace {

using namespace lac;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Mixed-kernel workload over repeated shapes; all operands are shared
/// payloads, so building (and later queueing) requests copies no matrices.
std::vector<fabric::KernelRequest> workload(const arch::CoreConfig& cfg,
                                            int repeats) {
  std::vector<fabric::KernelRequest> reqs;
  int seed = 1;
  const double bw = 2.0;
  for (index_t n : {16, 32}) {
    auto a = std::make_shared<const MatrixD>(random_matrix(n, n, seed++));
    auto b = std::make_shared<const MatrixD>(random_matrix(n, n, seed++));
    auto c = std::make_shared<const MatrixD>(random_matrix(n, n, seed++));
    auto l = std::make_shared<const MatrixD>(random_lower_triangular(n, seed++));
    auto spd = std::make_shared<const MatrixD>(random_spd(n, seed++));
    auto panel = std::make_shared<const MatrixD>(random_matrix(n, cfg.nr, seed++));
    for (int r = 0; r < repeats; ++r) {
      auto tag = [&](const char* kind) {
        return std::string(kind) + "/" + std::to_string(n);
      };
      fabric::KernelRequest q = fabric::make_gemm(cfg, bw, a, b, c);
      q.tag = tag("gemm");
      reqs.push_back(std::move(q));
      q = fabric::make_syrk(cfg, bw, a, c);
      q.tag = tag("syrk");
      reqs.push_back(std::move(q));
      q = fabric::make_trsm(cfg, bw, l, b);
      q.tag = tag("trsm");
      reqs.push_back(std::move(q));
      q = fabric::make_cholesky(cfg, bw, spd);
      q.tag = tag("chol");
      reqs.push_back(std::move(q));
      q = fabric::make_lu(cfg, panel);
      q.tag = tag("lu");
      reqs.push_back(std::move(q));
      q = fabric::make_qr(cfg, panel);
      q.tag = tag("qr");
      reqs.push_back(std::move(q));
    }
  }
  return reqs;
}

struct ModeStats {
  double wall_ms = 0.0;
  double requests_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

ModeStats finalize(double wall_ms, std::size_t n, std::vector<double> lat) {
  ModeStats s;
  s.wall_ms = wall_ms;
  s.requests_per_s = wall_ms > 0 ? static_cast<double>(n) / (wall_ms / 1e3) : 0.0;
  std::sort(lat.begin(), lat.end());
  if (!lat.empty()) {
    s.p50_ms = lat[lat.size() / 2];
    s.p99_ms = lat[std::min(lat.size() - 1, lat.size() * 99 / 100)];
  }
  return s;
}

/// PR-1 pattern: dispatch arrives in small batches, each batch spawning and
/// joining `width` fresh host threads, clamped to the batch size (serial
/// when width <= 1). This baseline is the one deliberate per-call spawn in
/// the tree. Latency is completion minus the dispatch of the request's
/// batch.
ModeStats run_spawn(const fabric::Executor& ex,
                    const std::vector<fabric::KernelRequest>& reqs,
                    std::size_t chunk, unsigned width, int iterations) {
  std::vector<double> lat;
  lat.reserve(reqs.size() * static_cast<std::size_t>(iterations));
  double wall = 0.0;
  for (int it = 0; it < iterations; ++it) {
    const auto t0 = Clock::now();
    for (std::size_t base = 0; base < reqs.size(); base += chunk) {
      const std::size_t count = std::min(chunk, reqs.size() - base);
      const auto dispatch = Clock::now();
      std::vector<double> chunk_lat(count);
      std::atomic<std::size_t> next{0};
      auto drain = [&] {
        for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
          fabric::KernelResult r = ex.execute(reqs[base + i]);
          (void)r;
          chunk_lat[i] = ms_between(dispatch, Clock::now());
        }
      };
      const std::size_t workers = std::min<std::size_t>(width, count);
      if (workers <= 1) {
        drain();
      } else {
        std::vector<std::thread> spawned;  // lint-allow(raw-thread)
        for (std::size_t w = 0; w < workers; ++w) spawned.emplace_back(drain);
        for (std::thread& t : spawned) t.join();  // lint-allow(raw-thread)
      }
      lat.insert(lat.end(), chunk_lat.begin(), chunk_lat.end());
    }
    wall += ms_between(t0, Clock::now());
  }
  return finalize(wall, reqs.size() * static_cast<std::size_t>(iterations), std::move(lat));
}

/// Serving path: every request is queued through the AsyncExecutor on the
/// persistent pool with a bounded in-flight window (an open-loop client
/// would not dump the whole day's traffic into the queue at once; unbounded
/// submission makes every request's latency the batch wall time and the
/// p99 meaningless). Latency is completion minus submission.
ModeStats run_pool(const fabric::AsyncExecutor& async,
                   const std::vector<fabric::KernelRequest>& reqs,
                   int iterations, std::size_t window) {
  std::vector<double> lat(reqs.size() * static_cast<std::size_t>(iterations));
  double wall = 0.0;
  std::size_t cursor = 0;
  for (int it = 0; it < iterations; ++it) {
    const auto t0 = Clock::now();
    std::deque<std::future<fabric::KernelResult>> inflight;
    for (const fabric::KernelRequest& req : reqs) {
      // Hysteresis: when the window fills, retire half of it before
      // submitting again. The queue-wait bound is the same (a request
      // never waits behind more than `window` others), but the submitter
      // sleeps once per burst instead of once per request.
      if (inflight.size() >= window) {
        while (inflight.size() > window / 2) {
          inflight.front().get();
          inflight.pop_front();
        }
      }
      const auto submitted = Clock::now();
      double* slot = &lat[cursor++];
      inflight.push_back(
          async.submit(req, [slot, submitted](const fabric::KernelResult&) {
            *slot = ms_between(submitted, Clock::now());
          }));
    }
    while (!inflight.empty()) {
      inflight.front().get();
      inflight.pop_front();
    }
    wall += ms_between(t0, Clock::now());
  }
  return finalize(wall, reqs.size() * static_cast<std::size_t>(iterations), std::move(lat));
}

/// Byte-identical results across pool widths (1, 2, 4) on both backends.
bool deterministic_across_widths(const fabric::Executor& ex,
                                 const std::vector<fabric::KernelRequest>& reqs) {
  ThreadPool serial(1);
  std::vector<fabric::KernelResult> expect;
  {
    std::vector<std::future<fabric::KernelResult>> futs =
        fabric::AsyncExecutor(ex, &serial).submit_all(reqs);
    for (auto& f : futs) expect.push_back(f.get());
  }
  for (unsigned width : {2u, 4u}) {
    ThreadPool pool(width);
    std::vector<std::future<fabric::KernelResult>> futs =
        fabric::AsyncExecutor(ex, &pool).submit_all(reqs);
    for (std::size_t i = 0; i < expect.size(); ++i) {
      fabric::KernelResult got = futs[i].get();
      if (!(got.ok && got.cycles.value() == expect[i].cycles.value() && got.out == expect[i].out))
        return false;
    }
  }
  return true;
}

/// Before/after view of the observability layer's cache counters
/// (`lac.serving.cache.*`): the bench no longer derives the hit rate
/// itself -- the instrumented CostCache is the single source, and
/// tests/test_serving.cpp pins counter-vs-observed agreement.
struct CacheCounterDelta {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  static CacheCounterDelta sample() {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    CacheCounterDelta d;
    d.hits = reg.counter("lac.serving.cache.hits").value();
    d.misses = reg.counter("lac.serving.cache.misses").value();
    return d;
  }
  CacheCounterDelta since(const CacheCounterDelta& before) const {
    return CacheCounterDelta{hits - before.hits, misses - before.misses};
  }
  double hit_rate() const {
    const double total = static_cast<double>(hits + misses);
    return total > 0 ? static_cast<double>(hits) / total : 0.0;
  }
};

std::string json_mode(const char* backend, const char* mode, std::size_t requests,
                      const ModeStats& s, const CacheCounterDelta* cache) {
  std::ostringstream os;
  os << "    {\"backend\": \"" << backend << "\", \"mode\": \"" << mode
     << "\", \"requests\": " << requests << ", \"wall_ms\": " << s.wall_ms
     << ", \"requests_per_s\": " << s.requests_per_s
     << ", \"p50_ms\": " << s.p50_ms << ", \"p99_ms\": " << s.p99_ms;
  if (cache)
    os << ", \"cache_hits\": " << cache->hits
       << ", \"cache_misses\": " << cache->misses
       << ", \"cache_hit_rate\": " << cache->hit_rate();
  os << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = std::getenv("LAC_BENCH_SMOKE") != nullptr;
  const std::optional<std::string> trace_path =
      lac::bench::trace_path_from_args(argc, argv);
  // One session over the whole run: ring capacity sized so a smoke capture
  // is lossless (dropped() reports overwrites either way).
  std::optional<obs::TraceSession> trace_session;
  if (trace_path) trace_session.emplace(obs::TraceSessionOptions{1u << 16});
  const arch::CoreConfig cfg = arch::lac_4x4_dp();
  const int repeats = smoke ? 18 : 40;        // 2 sizes x 6 kernels x repeats
  const int iterations = smoke ? 2 : 5;
  const std::size_t chunk = 8;                // spawn-mode batch size
  // Both modes run at the same worker width -- the PR-1 dispatcher spawned
  // `width` fresh threads every run() call, the pool keeps `width` workers
  // alive -- so the only variable is per-call thread creation.
  const unsigned width = 8;
  // Bounded in-flight submission window for the pool modes: enough backlog
  // to keep every worker fed, small enough that a request's queue wait is
  // bounded by the window (not by the whole batch).
  const std::size_t window = 4 * width;
  std::vector<fabric::KernelRequest> reqs = workload(cfg, repeats);
  std::printf("serving workload: %zu mixed-kernel requests (%d repeats per shape)\n",
              reqs.size(), repeats);

  const fabric::SimExecutor sim;
  const fabric::ModelExecutor model;
  fabric::CostCache cache;
  const fabric::ModelExecutor cached_model(&cache);
  ThreadPool pool(width);

  std::ostringstream json;
  json << "{\n  \"requests\": " << reqs.size()
       << ",\n  \"iterations\": " << iterations
       << ",\n  \"spawn_chunk\": " << chunk
       << ",\n  \"submit_window\": " << window
       << ",\n  \"worker_width\": " << width << ",\n  \"modes\": [\n";

  // Model backend: instant estimation makes dispatch overhead the story.
  // "pool" uses the same uncached executor as "spawn" so the speedup
  // isolates per-call thread creation; "pool+cache" adds the CostCache on
  // top (repeated-shape traffic skips re-estimation).
  const ModeStats model_spawn = run_spawn(model, reqs, chunk, width, iterations);
  json << json_mode("model", "spawn", reqs.size(), model_spawn, nullptr) << ",\n";
  const fabric::AsyncExecutor async_model(model, &pool);
  const ModeStats model_pool = run_pool(async_model, reqs, iterations, window);
  json << json_mode("model", "pool", reqs.size(), model_pool, nullptr) << ",\n";
  // No hint source here: model jobs are uniformly short, so a size hint
  // buys nothing and its cache lookup would tax every submit.
  const fabric::AsyncExecutor async_cached(cached_model, &pool);
  const CacheCounterDelta cache_before = CacheCounterDelta::sample();
  const ModeStats model_pool_cache = run_pool(async_cached, reqs, iterations, window);
  const CacheCounterDelta cache_delta =
      CacheCounterDelta::sample().since(cache_before);
  json << json_mode("model", "pool+cache", reqs.size(), model_pool_cache,
                    &cache_delta)
       << ",\n";

  // Sim backend: heavier per-request work; the pool still wins on dispatch.
  // The sim AsyncExecutor passes the CostCache cycle estimate as the size
  // hint, so the pool's placement knows a qr/16 from a gemm/32 up front.
  const ModeStats sim_spawn = run_spawn(sim, reqs, chunk, width, iterations);
  json << json_mode("sim", "spawn", reqs.size(), sim_spawn, nullptr) << ",\n";
  const fabric::AsyncExecutor async_sim(sim, &pool, &cache);
  const ModeStats sim_pool = run_pool(async_sim, reqs, iterations, window);
  json << json_mode("sim", "pool", reqs.size(), sim_pool, nullptr) << "\n  ],\n";

  const bool det = deterministic_across_widths(sim, workload(cfg, 2)) &&
                   deterministic_across_widths(model, workload(cfg, 2));
  json << "  \"deterministic_across_pool_widths\": " << (det ? "true" : "false")
       << ",\n  \"speedup_pool_vs_spawn_model\": "
       << (model_spawn.requests_per_s > 0
               ? model_pool.requests_per_s / model_spawn.requests_per_s
               : 0.0)
       << ",\n  \"speedup_pool_cache_vs_spawn_model\": "
       << (model_spawn.requests_per_s > 0
               ? model_pool_cache.requests_per_s / model_spawn.requests_per_s
               : 0.0)
       << ",\n  \"speedup_pool_vs_spawn_sim\": "
       << (sim_spawn.requests_per_s > 0
               ? sim_pool.requests_per_s / sim_spawn.requests_per_s
               : 0.0)
       // Tail-latency ratio the regression gate pins (<= 3): pool-mode p99
       // over spawn-mode p99 on the sim backend at equal worker width.
       << ",\n  \"sim_pool_p99_over_spawn_p99\": "
       << (sim_spawn.p99_ms > 0 ? sim_pool.p99_ms / sim_spawn.p99_ms : 0.0)
       << ",\n  \"meta\": " << lac::bench::meta_json(width)
       << ",\n  \"telemetry\": " << lac::bench::telemetry_json() << "\n}\n";

  std::printf("\n%s", json.str().c_str());
  std::ofstream out("BENCH_serving.json");
  out << json.str();
  std::printf("wrote BENCH_serving.json\n");

  if (trace_session) {
    trace_session->stop();
    const bool wrote = trace_session->write_chrome_trace(*trace_path);
    std::printf("%s %s (%llu events dropped)\n",
                wrote ? "wrote" : "FAILED to write", trace_path->c_str(),
                static_cast<unsigned long long>(trace_session->dropped()));
    if (!wrote) return 1;
  }
  return det ? 0 : 1;
}
