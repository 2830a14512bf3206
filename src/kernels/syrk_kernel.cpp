#include "kernels/syrk_kernel.hpp"

#include <cassert>

#include "fabric/stream_schedule.hpp"
#include "sim/arena.hpp"

namespace lac::kernels {

using fabric::StreamSchedule;

KernelResult syrk_inner(const arch::CoreConfig& cfg, ConstViewD a, ConstViewD c_in) {
  const int nr = cfg.nr;
  assert(a.rows() == nr && c_in.rows() == nr && c_in.cols() == nr);
  sim::ArenaCore arena(cfg, 1e9, 1);
  sim::Core& core = arena.get();
  StreamSchedule sched(core);
  sched.stage_resident(a);
  sched.load_accumulators(0, 0.0, [&](int r, int c) { return c_in(r, c); });

  // The transpose-overlapped rank-1 loop (Fig 5.2), capturing A^T into MEM-B.
  sched.capture_transpose(0, nr, 0, a.cols(), 0, 0.0, 0);

  KernelResult res;
  res.out = MatrixD(nr, nr);
  const double finish =
      sched.drain_accumulators(0, [&](int r, int c, double v) { res.out(r, c) = v; });
  res.cycles = units::Cycles(std::max(finish, core.finish_time()));
  res.stats = core.stats();
  res.utilization = static_cast<double>(res.stats.mac_ops) / (res.cycles.value() * nr * nr);
  return res;
}

KernelResult syrk_core(const arch::CoreConfig& cfg, double bw_words_per_cycle,
                       ConstViewD a, ConstViewD c_in) {
  const int nr = cfg.nr;
  const index_t mc = a.rows();
  const index_t kc = a.cols();
  assert(mc % nr == 0 && c_in.rows() == mc && c_in.cols() == mc);

  sim::ArenaCore arena(cfg, bw_words_per_cycle, 2);
  sim::Core& core = arena.get();
  StreamSchedule sched(core);
  const sim::time_t_ a_done = sched.stage_resident(a);

  KernelResult res;
  res.out = to_matrix<double>(c_in);
  const index_t mb = mc / nr;
  sim::time_t_ finish = a_done;
  int parity = 0;

  for (index_t i = 0; i < mb; ++i) {
    // (1a/1b) diagonal block SYRK + capture of A1^T into MEM-B.
    const sim::time_t_ c_diag_in = sched.dma(static_cast<double>(nr) * nr);
    sched.load_accumulators(parity, c_diag_in, [&](int r, int c) {
      return res.out(i * nr + r, i * nr + c);
    });
    sched.capture_transpose(0, mc, i * nr, kc, 0, c_diag_in, parity);
    const sim::time_t_ diag_ready =
        sched.drain_accumulators(parity, [&](int r, int c, double v) {
          if (r >= c) res.out(i * nr + r, i * nr + c) = v;  // lower only
        });
    sched.dma_after(static_cast<double>(nr) * (nr + 1) / 2, diag_ready);
    parity ^= 1;

    // (2) GEMM updates C(l, i) += A_l * A1^T for l > i, using the captured
    // transposed panel as the replicated "B" operand.
    for (index_t l = i + 1; l < mb; ++l) {
      const sim::time_t_ c_in_done = sched.dma(static_cast<double>(nr) * nr);
      sched.load_accumulators(parity, c_in_done, [&](int r, int c) {
        return res.out(l * nr + r, i * nr + c);
      });
      sched.rank1_update(parity, 0, mc, l * nr, 0, kc, 0, c_in_done);
      const sim::time_t_ block_ready =
          sched.drain_accumulators(parity, [&](int r, int c, double v) {
            res.out(l * nr + r, i * nr + c) = v;
          });
      finish = std::max(finish,
                        sched.dma_after(static_cast<double>(nr) * nr, block_ready));
      parity ^= 1;
    }
    finish = std::max(finish, sched.cursor());
  }

  res.cycles = units::Cycles(std::max(finish, core.finish_time()));
  res.stats = core.stats();
  // Useful work: only the lower triangle of C counts.
  const double useful = static_cast<double>(mc) * (mc + 1) / 2.0 * kc;
  res.utilization = useful / (res.cycles.value() * nr * nr);
  return res;
}

}  // namespace lac::kernels
