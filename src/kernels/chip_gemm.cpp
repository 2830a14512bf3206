#include "kernels/chip_gemm.hpp"

#include <cassert>

#include "fabric/stream_schedule.hpp"

namespace lac::kernels {

ChipGemmResult chip_gemm(const arch::ChipConfig& cfg, index_t mc, index_t kc,
                         ConstViewD a, ConstViewD b, ConstViewD c_in) {
  const int nr = cfg.core.nr;
  const int s = cfg.cores;
  const index_t m = c_in.rows();
  const index_t n = c_in.cols();
  const index_t k = a.cols();
  assert(a.rows() == m && b.rows() == k && b.cols() == n);
  assert(m % (s * nr) == 0 && n % nr == 0 && k % kc == 0);
  const index_t rows_per_core = m / s;
  assert(rows_per_core % mc == 0 && mc % nr == 0 && kc % nr == 0);

  sim::Chip chip(cfg);
  ChipGemmResult res;
  res.out = to_matrix<double>(c_in);

  // Per-core DMA cursors through the shared interface; the off-chip
  // interface stages each panel once (it is shared data on chip).
  std::vector<sim::time_t_> cursor(static_cast<std::size_t>(s), 0.0);
  sim::time_t_ off_cursor = 0.0;

  for (index_t pp = 0; pp < k; pp += kc) {
    // Stage the A column panel and B row panel from external memory.
    off_cursor = chip.offchip_dma(static_cast<double>(m) * kc, off_cursor);
    off_cursor = chip.offchip_dma(static_cast<double>(kc) * n, off_cursor);
    const sim::time_t_ panels_on_chip = off_cursor;

    for (index_t tile = 0; tile < rows_per_core / mc; ++tile) {
      for (int core_id = 0; core_id < s; ++core_id) {
        // The core-level placement and sweep helpers; every transfer is
        // charged on the chip's shared interface instead of the core's.
        fabric::StreamSchedule sched(chip.core(core_id));
        const index_t row0 = core_id * rows_per_core + tile * mc;

        // Resident A tile for this core (through the shared interface).
        sched.poke_resident(a.block(row0, pp, mc, kc));
        cursor[static_cast<std::size_t>(core_id)] = chip.shared_dma(
            core_id, static_cast<double>(mc) * kc,
            std::max(cursor[static_cast<std::size_t>(core_id)], panels_on_chip));
        const sim::time_t_ a_ready = cursor[static_cast<std::size_t>(core_id)];

        // Sweep the n-wide C panel: per nr-column block, load the B panel
        // slice (replicated per PE column), stream the C block through the
        // accumulators, run kc rank-1 updates, stream the result out.
        sim::time_t_ dma_cursor = a_ready;
        for (index_t jb = 0; jb < n / nr; ++jb) {
          const index_t col0 = jb * nr;
          sched.stage_panel_b(0, kc,
                              [&](index_t p, int c) { return b(pp + p, col0 + c); });
          dma_cursor = chip.shared_dma(core_id, static_cast<double>(kc) * nr, dma_cursor);
          const sim::time_t_ b_ready = dma_cursor;
          for (index_t ib = 0; ib < mc / nr; ++ib) {
            const int parity = static_cast<int>((jb * (mc / nr) + ib) % 2);
            const index_t c_row0 = row0 + ib * nr;
            dma_cursor = chip.shared_dma(core_id, static_cast<double>(nr) * nr, dma_cursor);
            sched.load_accumulators(
                parity, std::max(dma_cursor, b_ready),
                [&](int r, int c) { return res.out(c_row0 + r, col0 + c); });
            sched.rank1_update(parity, 0, mc, ib * nr, 0, kc, 0, b_ready);
            const sim::time_t_ drained =
                sched.drain_accumulators(parity, [&](int r, int c, double v) {
                  res.out(c_row0 + r, col0 + c) = v;
                });
            dma_cursor = chip.shared_dma(core_id, static_cast<double>(nr) * nr,
                                         std::max(dma_cursor, drained));
          }
        }
        cursor[static_cast<std::size_t>(core_id)] = dma_cursor;
      }
    }
  }

  res.cycles = units::Cycles(chip.finish_time());
  res.stats = chip.stats();
  res.utilization = static_cast<double>(res.stats.mac_ops) /
                    (res.cycles.value() * s * nr * nr);
  res.offchip_words = static_cast<double>(res.stats.dma_words);
  return res;
}

}  // namespace lac::kernels
