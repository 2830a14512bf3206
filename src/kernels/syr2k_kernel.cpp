#include <cassert>

#include "fabric/stream_schedule.hpp"
#include "kernels/syrk_kernel.hpp"
#include "sim/arena.hpp"

namespace lac::kernels {

using fabric::StreamSchedule;
using fabric::mem_a_addr;

KernelResult syr2k_core(const arch::CoreConfig& cfg, double bw_words_per_cycle,
                        ConstViewD a, ConstViewD b, ConstViewD c_in) {
  // C(lower) += A*B^T + B*A^T (§5.2.2). Both operands are resident in
  // MEM-A (B at offset `b_base`); per diagonal step the core captures the
  // transposed row panels of BOTH operands into MEM-B (two bus sweeps),
  // then every C block takes two rank-1 sweeps: A_l against B1^T and B_l
  // against A1^T. Communication and computation double relative to SYRK.
  const int nr = cfg.nr;
  const index_t mc = a.rows();
  const index_t kc = a.cols();
  assert(mc % nr == 0 && b.rows() == mc && b.cols() == kc);
  assert(c_in.rows() == mc && c_in.cols() == mc);

  sim::ArenaCore arena(cfg, bw_words_per_cycle, 2);
  sim::Core& core = arena.get();
  StreamSchedule sched(core);
  const index_t b_base = mem_a_addr(mc - 1, kc - 1, mc, nr) + 1;
  // Stage both operands (charged on the interface back to back).
  sched.poke_resident(a);
  sched.poke_resident(b, b_base);
  sched.dma(2.0 * static_cast<double>(mc) * kc);

  KernelResult res;
  res.out = to_matrix<double>(c_in);
  const index_t mb = mc / nr;
  int parity = 0;
  sim::time_t_ finish = sched.cursor();

  for (index_t i = 0; i < mb; ++i) {
    // Capture A1^T (slot 0) and B1^T (slot kc).
    sched.capture_transpose(0, mc, i * nr, kc, 0, sched.cursor());
    sched.capture_transpose(b_base, mc, i * nr, kc, kc, sched.cursor());

    for (index_t l = i; l < mb; ++l) {
      const sim::time_t_ c_in_done = sched.dma(static_cast<double>(nr) * nr);
      sched.load_accumulators(parity, c_in_done, [&](int r, int c) {
        return res.out(l * nr + r, i * nr + c);
      });
      sched.rank1_update(parity, 0, mc, l * nr, 0, kc, kc, c_in_done);      // A_l * B1^T
      sched.rank1_update(parity, b_base, mc, l * nr, 0, kc, 0, c_in_done);  // B_l * A1^T
      const sim::time_t_ block_ready =
          sched.drain_accumulators(parity, [&](int r, int c, double v) {
            if (l > i || r >= c) res.out(l * nr + r, i * nr + c) = v;
          });
      finish = std::max(finish,
                        sched.dma_after(static_cast<double>(nr) * nr, block_ready));
      parity ^= 1;
    }
  }

  res.cycles = units::Cycles(std::max(finish, core.finish_time()));
  res.stats = core.stats();
  const double useful = 2.0 * static_cast<double>(mc) * (mc + 1) / 2.0 * kc;
  res.utilization = useful / (res.cycles.value() * nr * nr);
  return res;
}

}  // namespace lac::kernels
