#include "blas/lap_driver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arch/presets.hpp"
#include "blas/ref_blas.hpp"
#include "blas/ref_lapack.hpp"
#include "common/numeric.hpp"
#include "common/random.hpp"
#include "fabric/model_executor.hpp"
#include "fabric/sim_executor.hpp"

namespace lac::blas {
namespace {

const fabric::SimExecutor kSim;

TEST(LapDriver, GemmMatchesReferenceAcrossTiles) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  const index_t m = 32, n = 24, k = 32;
  MatrixD a = random_matrix(m, k, 1);
  MatrixD b = random_matrix(k, n, 2);
  MatrixD c = random_matrix(m, n, 3);
  MatrixD expect = to_matrix<double>(ConstViewD(c.view()));
  gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 1.0, expect.view());

  DriverReport rep = lap_gemm(kSim, cfg, 2.0, 16, 16, a.view(), b.view(), c.view());
  EXPECT_LT(rel_error(c.view(), expect.view()), 1e-12);
  EXPECT_EQ(rep.kernel_calls, 4);  // 2 k-panels x 2 row-tiles
  EXPECT_GT(rep.total_cycles.value(), 0.0);
  EXPECT_EQ(rep.stats.mac_ops, m * n * k);
}

TEST(LapDriver, GemmUtilizationReasonable) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  const index_t m = 32, n = 64, k = 32;
  MatrixD a = random_matrix(m, k, 4);
  MatrixD b = random_matrix(k, n, 5);
  MatrixD c(m, n, 0.0);
  DriverReport rep = lap_gemm(kSim, cfg, 2.0, 32, 32, a.view(), b.view(), c.view());
  EXPECT_GT(rep.utilization, 0.5);
  EXPECT_LE(rep.utilization, 1.0);
}

TEST(LapDriver, CholeskyByBlocksMatchesReference) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  const index_t n = 24;
  MatrixD a = random_spd(n, 6);
  MatrixD expect = to_matrix<double>(ConstViewD(a.view()));
  ASSERT_TRUE(cholesky(expect.view()));
  DriverReport rep = lap_cholesky(kSim, cfg, 2.0, 8, a.view());
  EXPECT_LT(rel_error(a.view(), expect.view()), 1e-9);
  EXPECT_GT(rep.kernel_calls, 3);
}

/// FNV-1a over 64-bit words, doubles by bit pattern (as test_sim_golden).
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

std::vector<std::int64_t> stats_words(const sim::Stats& s) {
  return {s.mac_ops,     s.mul_ops,       s.cmp_ops,       s.mem_a_reads,
          s.mem_a_writes, s.mem_b_reads,  s.mem_b_writes,  s.rf_reads,
          s.rf_writes,   s.row_bus_xfers, s.col_bus_xfers, s.sfu_ops,
          s.dma_words};
}

bool same_bytes(const MatrixD& x, const MatrixD& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(),
                     static_cast<std::size_t>(x.rows() * x.cols()) * sizeof(double)) == 0;
}

/// One driver run. The digest folds the factor, the pivots or taus and
/// every DriverReport field; the graph fields only for CHOL, since the
/// serial LU and QR loops left them zero.
struct DriverGolden {
  const char* kind;  ///< "CHOL", "LU" or "QR"
  bool sim;          ///< SimExecutor (else ModelExecutor)
  index_t m, n;
  double bw;         ///< words per cycle
  index_t block;     ///< CHOL tile width
  unsigned workers;  ///< CHOL scheduler width
  std::uint64_t digest;
};

/// Pinned on the serial LU and QR driver loops and on the graph-mode
/// Cholesky entry point (at the given width) that lap_cholesky now is.
constexpr DriverGolden kDriverGolden[] = {
    {"LU", false, 16, 8, 0.5, 0, 0, 0x1d77b33bb86c53d9ull},
    {"LU", false, 16, 8, 2.0, 0, 0, 0xea2ce71987909188ull},
    {"LU", false, 32, 8, 0.5, 0, 0, 0x8f7bca0430e5d08bull},
    {"LU", false, 32, 8, 2.0, 0, 0, 0xaabc868ce3b482c5ull},
    {"LU", false, 24, 16, 0.5, 0, 0, 0xdf24f006b960b3c4ull},
    {"LU", false, 24, 16, 2.0, 0, 0, 0xd9d2ccd6376daf0bull},
    {"LU", false, 48, 48, 0.5, 0, 0, 0x891d1a8777544324ull},
    {"LU", false, 48, 48, 2.0, 0, 0, 0xe7a7217796db026aull},
    {"LU", true, 16, 8, 0.5, 0, 0, 0xcdb3e690cbab46e9ull},
    {"LU", true, 16, 8, 2.0, 0, 0, 0x8f99ae0c412fe809ull},
    {"LU", true, 32, 8, 0.5, 0, 0, 0xf8a84e9ac93e3bf8ull},
    {"LU", true, 32, 8, 2.0, 0, 0, 0x8603ac8f11e2259cull},
    {"LU", true, 24, 16, 0.5, 0, 0, 0xe8b72c2f047266d8ull},
    {"LU", true, 24, 16, 2.0, 0, 0, 0x442f6ce51dd28586ull},
    {"LU", true, 48, 48, 0.5, 0, 0, 0xa5e1f1ef0d63243eull},
    {"LU", true, 48, 48, 2.0, 0, 0, 0x0902f0617512ed96ull},
    {"QR", false, 16, 8, 0.5, 0, 0, 0xed2e300029e24e86ull},
    {"QR", false, 16, 8, 2.0, 0, 0, 0xf10d98d166ae4441ull},
    {"QR", false, 32, 8, 0.5, 0, 0, 0xc44b788fdf0e9022ull},
    {"QR", false, 32, 8, 2.0, 0, 0, 0xd1adfd9465a79850ull},
    {"QR", false, 24, 16, 0.5, 0, 0, 0xe74310d7837fdd52ull},
    {"QR", false, 24, 16, 2.0, 0, 0, 0xde717c4685613b14ull},
    {"QR", false, 48, 48, 0.5, 0, 0, 0xdcd04554a2a8606bull},
    {"QR", false, 48, 48, 2.0, 0, 0, 0x4205fbee130b8ba4ull},
    {"QR", true, 16, 8, 0.5, 0, 0, 0xefd91a6fd97e577eull},
    {"QR", true, 16, 8, 2.0, 0, 0, 0xf761553de560a0c7ull},
    {"QR", true, 32, 8, 0.5, 0, 0, 0x6ee2d03e58c5cee8ull},
    {"QR", true, 32, 8, 2.0, 0, 0, 0xb2fe942f5f8e1a3aull},
    {"QR", true, 24, 16, 0.5, 0, 0, 0xe5c16f958e1adb9dull},
    {"QR", true, 24, 16, 2.0, 0, 0, 0x398057e8bd3b5d68ull},
    {"QR", true, 48, 48, 0.5, 0, 0, 0xd728fe9784b80957ull},
    {"QR", true, 48, 48, 2.0, 0, 0, 0x9e8e2c4ec15eefcaull},
    {"CHOL", false, 32, 32, 2.0, 8, 1, 0xa428294371b86b6cull},
    {"CHOL", false, 32, 32, 2.0, 8, 4, 0x9d0235acf4205f68ull},
    {"CHOL", false, 32, 32, 2.0, 16, 1, 0xb3fe59b0c7df7bdcull},
    {"CHOL", false, 32, 32, 2.0, 16, 4, 0x570e0495a7119d79ull},
    {"CHOL", false, 48, 48, 2.0, 8, 1, 0xddc318c977cb918bull},
    {"CHOL", false, 48, 48, 2.0, 8, 4, 0xb56ee1891ce848bbull},
    {"CHOL", false, 48, 48, 2.0, 16, 1, 0x7577abf98c38d077ull},
    {"CHOL", false, 48, 48, 2.0, 16, 4, 0x9ae494bf24dd55deull},
    {"CHOL", true, 32, 32, 2.0, 8, 1, 0x80d55079d90a6441ull},
    {"CHOL", true, 32, 32, 2.0, 8, 4, 0x0a4d65b83de07cefull},
    {"CHOL", true, 32, 32, 2.0, 16, 1, 0xd2cb18e8361a7f1aull},
    {"CHOL", true, 32, 32, 2.0, 16, 4, 0x6db0fc156cc6f1bfull},
    {"CHOL", true, 48, 48, 2.0, 8, 1, 0xc514641ef432171bull},
    {"CHOL", true, 48, 48, 2.0, 8, 4, 0xedb47db5e1e8cd77ull},
    {"CHOL", true, 48, 48, 2.0, 16, 1, 0xa86832ad5036007aull},
    {"CHOL", true, 48, 48, 2.0, 16, 4, 0xf5d0cee99120ad61ull},
};

std::uint64_t driver_digest(const DriverGolden& g) {
  const arch::CoreConfig cfg = arch::lac_4x4_dp();
  const fabric::ModelExecutor model;
  const fabric::Executor& ex =
      g.sim ? static_cast<const fabric::Executor&>(kSim) : model;
  const std::string kind = g.kind;
  Digest d;
  DriverReport rep;
  MatrixD a;
  if (kind == "CHOL") {
    a = random_spd(g.n, 2401);
    rep = lap_cholesky(ex, cfg, g.bw, g.block, a.view(), g.workers);
  } else if (kind == "LU") {
    a = random_matrix(g.m, g.n, 2402);
    std::vector<index_t> piv;
    rep = lap_lu(ex, cfg, g.bw, a.view(), piv);
    d.add(static_cast<std::uint64_t>(piv.size()));
    for (index_t p : piv) d.add(static_cast<std::int64_t>(p));
  } else {
    a = random_matrix(g.m, g.n, 2403);
    std::vector<double> taus;
    rep = lap_qr(ex, cfg, g.bw, a.view(), taus);
    d.add(static_cast<std::uint64_t>(taus.size()));
    for (double t : taus) d.add(t);
  }
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i) d.add(a(i, j));
  d.add(rep.total_cycles.value());
  d.add(rep.utilization);
  d.add(rep.energy_nj.value());
  d.add(rep.avg_power_w.value());
  d.add(rep.area_mm2.value());
  for (std::int64_t v : stats_words(rep.stats)) d.add(v);
  d.add(static_cast<std::int64_t>(rep.kernel_calls));
  if (kind == "CHOL") {
    d.add(rep.makespan_cycles.value());
    d.add(rep.graph_speedup);
    d.add(static_cast<std::uint64_t>(rep.graph_workers));
  } else {
    // LU and QR run a chain on one worker: the makespan is the serial sum.
    EXPECT_EQ(rep.graph_workers, 1u) << kind << " " << g.m << "x" << g.n;
    EXPECT_EQ(rep.makespan_cycles.value(), rep.total_cycles.value())
        << kind << " " << g.m << "x" << g.n;
    EXPECT_EQ(rep.graph_speedup, 1.0) << kind << " " << g.m << "x" << g.n;
  }
  return d.value();
}

TEST(LapDriver, ReportsMatchParent) {
  std::string table;
  bool all_match = true;
  for (const DriverGolden& g : kDriverGolden) {
    const std::uint64_t got = driver_digest(g);
    if (got != g.digest) all_match = false;
    char row[160];
    std::snprintf(row, sizeof row,
                  "    {\"%s\", %s, %d, %d, %.1f, %d, %u, 0x%016" PRIx64 "ull},\n",
                  g.kind, g.sim ? "true" : "false", static_cast<int>(g.m),
                  static_cast<int>(g.n), g.bw, static_cast<int>(g.block), g.workers,
                  got);
    table += row;
  }
  EXPECT_TRUE(all_match) << "driver output changed; if intended, paste as "
                            "kDriverGolden:\n"
                         << table;
}

TEST(LapDriver, CholeskyIsByteEqualAtOneAndFourWorkers) {
  // The graph's edges order every conflicting tile access, so the worker
  // count changes only the makespan figures: the factor, cycles, energy
  // and Stats are the same bytes at 1 and 4 workers.
  const fabric::SimExecutor sim;
  const fabric::ModelExecutor model;
  struct Case {
    const fabric::Executor* ex;
    index_t n;
  };
  for (const Case& c : {Case{&model, 48}, Case{&sim, 24}}) {
    arch::CoreConfig cfg = arch::lac_4x4_dp();
    const index_t block = 8;
    const MatrixD src = random_spd(c.n, 60);
    MatrixD one = src;
    MatrixD four = src;

    DriverReport r1 = lap_cholesky(*c.ex, cfg, 2.0, block, one.view(), 1);
    DriverReport r4 = lap_cholesky(*c.ex, cfg, 2.0, block, four.view(), 4);

    EXPECT_TRUE(same_bytes(four, one)) << c.n;
    ASSERT_GT(r1.total_cycles.value(), 0.0);
    ASSERT_GT(r1.energy_nj.value(), 0.0);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r4.total_cycles.value()),
              std::bit_cast<std::uint64_t>(r1.total_cycles.value()))
        << c.n;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r4.energy_nj.value()),
              std::bit_cast<std::uint64_t>(r1.energy_nj.value()))
        << c.n;
    EXPECT_EQ(stats_words(r4.stats), stats_words(r1.stats)) << c.n;
    EXPECT_EQ(r4.kernel_calls, r1.kernel_calls) << c.n;
    // Graph figures at 4 workers.
    EXPECT_EQ(r4.graph_workers, 4u);
    EXPECT_GT(r4.makespan_cycles.value(), 0.0);
    EXPECT_GT(r4.graph_speedup, 1.0);
    EXPECT_LE(r4.makespan_cycles.value(), r4.total_cycles.value());
  }
}

/// Runs `driver` on `a`, which must fail in node `node`: the message starts
/// with the driver prefix and names the node, and `a` keeps its bytes.
template <typename Driver>
void expect_fails_untouched(const char* backend, MatrixD& a, const std::string& node,
                            Driver driver) {
  const MatrixD before = a;
  try {
    driver();
    ADD_FAILURE() << backend << " " << node << ": no exception";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("lap driver kernel failed: ", 0), 0u) << backend << ": " << what;
    EXPECT_NE(what.find(node), std::string::npos) << backend << ": " << what;
  }
  EXPECT_TRUE(same_bytes(a, before)) << backend << " " << node;
}

TEST(LapDriver, FailedKernelThrowsNamingNodeAndLeavesInputUntouched) {
  // A failed node throws before the factor is copied out of the graph's
  // working matrix, even after earlier nodes committed there.
  const fabric::ModelExecutor model;
  const arch::CoreConfig cfg = arch::lac_4x4_dp();
  for (const fabric::Executor* ex : {static_cast<const fabric::Executor*>(&kSim),
                                     static_cast<const fabric::Executor*>(&model)}) {
    // Not positive definite in the last diagonal tile: two POTRF steps and
    // their updates commit before the third fails.
    MatrixD spd = random_spd(24, 61);
    spd(20, 20) = -1.0;
    expect_fails_untouched(ex->name(), spd, "potrf(2,2,k=2)", [&] {
      lap_cholesky(*ex, cfg, 2.0, 8, spd.view());
    });

    // A zero column in the second panel: the first panel commits, with its
    // row swaps across the matrix, before the second meets a zero pivot.
    MatrixD lu = random_matrix(16, 16, 62);
    for (index_t i = 0; i < lu.rows(); ++i) lu(i, 5) = 0.0;
    std::vector<index_t> piv;
    expect_fails_untouched(ex->name(), lu, "lu_panel(1,1,k=1)", [&] {
      lap_lu(*ex, cfg, 2.0, lu.view(), piv);
    });
  }
}

TEST(LapDriver, BadBackendResultsThrowNamingTheFieldAndLeaveOutputUntouched) {
  // The level-3 drivers run their GEMM tiles through fabric::run_request,
  // as the factorizations run their nodes: a throwing backend, or a cost
  // that is not finite and >= 0, fails the first tile before any output
  // is written.
  struct BadExecutor final : fabric::Executor {
    explicit BadExecutor(std::string m) : mode(std::move(m)) {}
    const char* name() const override { return "bad"; }
    fabric::KernelResult execute(const fabric::KernelRequest& req) const override {
      if (mode == "throw") throw std::runtime_error("backend exploded");
      fabric::KernelResult res = model.execute(req);
      if (mode == "cycles nan") res.cycles = units::Cycles(std::nan(""));
      if (mode == "cycles inf") res.cycles = units::Cycles(std::numeric_limits<double>::infinity());
      if (mode == "energy_nj -1") res.energy_nj = units::Nanojoules(-1.0);
      return res;
    }
    std::string mode;
    fabric::ModelExecutor model;
  };
  const std::pair<const char*, const char*> cases[] = {
      {"cycles nan", "not finite and >= 0: cycles = nan"},
      {"cycles inf", "not finite and >= 0: cycles = inf"},
      {"energy_nj -1", "not finite and >= 0: energy_nj = -1"},
      {"throw", "backend exception: backend exploded"},
  };
  const arch::CoreConfig cfg = arch::lac_4x4_dp();
  const MatrixD a = random_matrix(16, 16, 91);
  const MatrixD b = random_matrix(16, 8, 92);
  const MatrixD l = random_lower_triangular(16, 93);
  for (const auto& [mode, error] : cases) {
    const BadExecutor bad(mode);
    for (const char* driver : {"gemm", "trmm", "symm"}) {
      SCOPED_TRACE(std::string(mode) + " " + driver);
      MatrixD out = random_matrix(16, 8, 94);
      const MatrixD before = to_matrix<double>(ConstViewD(out.view()));
      const std::string d = driver;
      try {
        if (d == "gemm") lap_gemm(bad, cfg, 2.0, 8, 8, a.view(), b.view(), out.view());
        if (d == "trmm") lap_trmm(bad, cfg, 2.0, 8, l.view(), out.view());
        if (d == "symm") lap_symm(bad, cfg, 2.0, 8, l.view(), b.view(), out.view());
        ADD_FAILURE() << "no throw";
      } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_EQ(what.rfind("lap driver kernel failed: ", 0), 0u) << what;
        EXPECT_NE(what.find(error), std::string::npos) << what;
      }
      EXPECT_TRUE(out == before);
    }
  }
}

/// Wraps a backend and records the thread each request executes on.
struct ThreadRecorder final : fabric::Executor {
  explicit ThreadRecorder(const fabric::Executor& inner) : inner(inner) {}
  const char* name() const override { return inner.name(); }
  fabric::KernelResult execute(const fabric::KernelRequest& req) const override {
    {
      std::lock_guard<std::mutex> lock(mu);
      threads.push_back(std::this_thread::get_id());
    }
    return inner.execute(req);
  }
  const fabric::Executor& inner;
  mutable std::mutex mu;
  mutable std::vector<std::thread::id> threads;
};

TEST(LapDriver, DriversRunOnTheCallingThread) {
  // A driver runs its graph inline, no pool and no scheduler, whatever the
  // Cholesky width: the width only prices the makespan.
  const fabric::ModelExecutor model;
  const arch::CoreConfig cfg = arch::lac_4x4_dp();
  const std::thread::id caller = std::this_thread::get_id();
  for (const char* kind : {"LU", "QR", "CHOL 1", "CHOL 4", "CHOL 0"}) {
    SCOPED_TRACE(kind);
    const std::string k = kind;
    ThreadRecorder rec(model);
    MatrixD a = k == "LU" || k == "QR" ? random_matrix(32, 16, 63) : random_spd(32, 64);
    if (k == "LU") {
      std::vector<index_t> piv;
      lap_lu(rec, cfg, 2.0, a.view(), piv);
    } else if (k == "QR") {
      std::vector<double> taus;
      lap_qr(rec, cfg, 2.0, a.view(), taus);
    } else {
      const unsigned workers = static_cast<unsigned>(k.back() - '0');
      const DriverReport rep = lap_cholesky(rec, cfg, 2.0, 8, a.view(), workers);
      EXPECT_EQ(rep.graph_workers,
                workers > 0 ? workers : std::max(1u, std::thread::hardware_concurrency()));
    }
    ASSERT_FALSE(rec.threads.empty());
    for (const std::thread::id t : rec.threads) EXPECT_EQ(t, caller);
  }
}

TEST(LapDriver, BadShapeThrowsInvalidArgumentAndLeavesInputUntouched) {
  // The builders' shape checks reach the drivers in every build type; at
  // n = 20, block = 8 an unchecked Cholesky returned a wrong factor.
  const fabric::ModelExecutor model;
  const arch::CoreConfig cfg = arch::lac_4x4_dp();
  MatrixD spd = random_spd(20, 71);
  const MatrixD spd0 = to_matrix<double>(ConstViewD(spd.view()));
  EXPECT_THROW(lap_cholesky(model, cfg, 2.0, 8, spd.view()), std::invalid_argument);
  EXPECT_TRUE(spd == spd0);
  MatrixD wide = random_matrix(8, 16, 72);
  const MatrixD wide0 = to_matrix<double>(ConstViewD(wide.view()));
  std::vector<index_t> piv;
  EXPECT_THROW(lap_lu(model, cfg, 2.0, wide.view(), piv), std::invalid_argument);
  std::vector<double> taus;
  EXPECT_THROW(lap_qr(model, cfg, 2.0, wide.view(), taus), std::invalid_argument);
  EXPECT_TRUE(wide == wide0);
  MatrixD ragged = random_matrix(18, 16, 73);
  EXPECT_THROW(lap_lu(model, cfg, 2.0, ragged.view(), piv), std::invalid_argument);
  EXPECT_THROW(lap_qr(model, cfg, 2.0, ragged.view(), taus), std::invalid_argument);
}

TEST(LapDriver, CholeskySolvesSystemEndToEnd) {
  arch::CoreConfig cfg = arch::lac_4x4_dp();
  const index_t n = 16;
  MatrixD a = random_spd(n, 7);
  MatrixD a0 = to_matrix<double>(ConstViewD(a.view()));
  MatrixD x_true = random_matrix(n, 2, 8);
  MatrixD b(n, 2, 0.0);
  gemm(Trans::No, Trans::No, 1.0, a0.view(), x_true.view(), 0.0, b.view());

  lap_cholesky(kSim, cfg, 2.0, 8, a.view());
  // Solve L L^T x = b with the accelerator-produced factor.
  trsm(Side::Left, Uplo::Lower, Trans::No, Diag::NonUnit, 1.0, a.view(), b.view());
  trsm(Side::Left, Uplo::Lower, Trans::Yes, Diag::NonUnit, 1.0, a.view(), b.view());
  EXPECT_LT(rel_error(b.view(), x_true.view()), 1e-8);
}

}  // namespace
}  // namespace lac::blas
