#include "kernels/gemm_kernel.hpp"

#include <cassert>

#include "fabric/stream_schedule.hpp"
#include "sim/arena.hpp"

namespace lac::kernels {

using fabric::StreamSchedule;

KernelResult gemm_rank1_inner(const arch::CoreConfig& cfg, ConstViewD a, ConstViewD b,
                              ConstViewD c_in) {
  const int nr = cfg.nr;
  const index_t kc = a.cols();
  assert(a.rows() == nr && b.rows() == kc && b.cols() == nr);
  assert(c_in.rows() == nr && c_in.cols() == nr);

  sim::ArenaCore arena(cfg, /*bw=*/1e9, /*accumulators=*/1);
  sim::Core& core = arena.get();
  StreamSchedule sched(core);
  // Stage operands: A round-robin by column, B replicated per PE column.
  for (int r = 0; r < nr; ++r)
    for (int c = 0; c < nr; ++c) {
      sim::Pe& pe = core.pe(r, c);
      for (index_t p = c; p < kc; p += nr) pe.mem_a.poke(p / nr, a(r, p));
      for (index_t p = 0; p < kc; ++p) pe.mem_b.poke(p, b(p, c));
    }
  sched.load_accumulators(0, 0.0, [&](int r, int c) { return c_in(r, c); });

  // kc rank-1 updates: the owner column broadcasts a column of A on the
  // row buses; every PE pairs it with its locally replicated B element.
  // (A is nr x kc here, so the fragment address is p / nr directly.)
  sched.rank1_update(0, 0, nr, 0, 0, kc, 0, 0.0);

  KernelResult res;
  res.out = MatrixD(nr, nr);
  const double finish =
      sched.drain_accumulators(0, [&](int r, int c, double v) { res.out(r, c) = v; });
  res.cycles = units::Cycles(std::max(finish, core.finish_time()));
  res.stats = core.stats();
  res.utilization = static_cast<double>(res.stats.mac_ops) / (res.cycles.value() * nr * nr);
  return res;
}

namespace {

/// gemm_core's schedule on a fresh arena core.
KernelResult gemm_on_core(sim::Core& core, ConstViewD a, ConstViewD b, ConstViewD c_in,
                          model::Overlap overlap) {
  const int nr = core.nr();
  const index_t mc = a.rows();
  const index_t kc = a.cols();
  const index_t n = b.cols();
  assert(mc % nr == 0 && n % nr == 0);
  assert(b.rows() == kc && c_in.rows() == mc && c_in.cols() == n);

  StreamSchedule sched(core);

  // ---- load the resident A block. Under partial overlap it is charged
  // serially ahead of compute; under full overlap the (double-buffered)
  // block was prefetched with spare bandwidth during the previous kernel,
  // so its words are charged at the end of this kernel's streams instead.
  sched.poke_resident(a);
  sim::time_t_ compute_gate = 0.0;
  if (overlap == model::Overlap::Partial) {
    compute_gate = sched.dma(static_cast<double>(mc) * kc);
  }

  KernelResult res;
  res.out = MatrixD(mc, n);

  // Double-buffered B panels in MEM-B; double-buffered C in accumulators.
  const index_t nb = n / nr;
  const index_t mb = mc / nr;
  sim::Scratch<sim::time_t_> b_panel_ready(static_cast<std::size_t>(nb));

  // B panels transfer in per-block chunks so the latency-critical C blocks
  // are not stuck behind a monolithic panel burst in the DMA queue (the
  // hardware DMA interleaves the streams; the panel only has a deadline of
  // "before the next jb sweep").
  auto load_b_chunk = [&](index_t jb, index_t chunk_idx, index_t chunks) {
    const double words = static_cast<double>(kc) * nr / chunks;
    sched.dma(words);
    if (chunk_idx + 1 == chunks) {
      b_panel_ready[static_cast<std::size_t>(jb)] = sched.cursor();
      sched.stage_panel_b((jb % 2) * kc, kc,
                          [&](index_t p, int c) { return b(p, jb * nr + c); });
    }
  };
  load_b_chunk(0, 0, 1);  // first panel: nothing to hide behind yet

  // C blocks are double-buffered in the accumulators and the stream-out of
  // the *previous* block overlaps the current block's compute (§3.4: the
  // RF holds the prefetched next block and the draining previous one), so
  // the in-order DMA queue never stalls on a pipeline drain:
  // C-in(0), C-in(1), [C-in(2), C-out(0)], [C-in(3), C-out(1)], ...
  const index_t blocks = nb * mb;
  sim::Scratch<sim::time_t_> c_in_ready(static_cast<std::size_t>(blocks));
  auto stream_c_in = [&](index_t t) {
    c_in_ready[static_cast<std::size_t>(t)] =
        sched.dma(static_cast<double>(nr) * nr);
  };
  stream_c_in(0);
  sim::time_t_ pending_out_ready = -1.0;  // drain time of the previous block

  sim::time_t_ finish = compute_gate;
  for (index_t jb = 0; jb < nb; ++jb) {
    const sim::time_t_ panel_gate =
        std::max(compute_gate, b_panel_ready[static_cast<std::size_t>(jb)]);
    for (index_t ib = 0; ib < mb; ++ib) {
      const index_t t = jb * mb + ib;
      const int parity = static_cast<int>(t % 2);
      if (t + 1 < blocks) stream_c_in(t + 1);  // prefetch the next C block
      if (jb + 1 < nb) load_b_chunk(jb + 1, ib, mb);  // chunked B prefetch
      if (overlap == model::Overlap::Full) {
        // Full overlap: the next kernel's A block trickles in behind this
        // kernel's streams using the spare interface bandwidth; charge this
        // kernel's own A words the same interleaved way.
        sched.dma(static_cast<double>(mc) * kc / blocks);
      }
      if (pending_out_ready >= 0.0) {          // stream out the previous one
        finish = std::max(
            finish, sched.dma_after(static_cast<double>(nr) * nr, pending_out_ready));
        pending_out_ready = -1.0;
      }
      const sim::time_t_ c_in_done = c_in_ready[static_cast<std::size_t>(t)];
      sched.load_accumulators(parity, c_in_done, [&](int r, int c) {
        return c_in(ib * nr + r, jb * nr + c);
      });

      // kc rank-1 updates against the jb-parity B panel.
      sched.rank1_update(parity, 0, mc, ib * nr, 0, kc, (jb % 2) * kc, panel_gate);

      // Drain the block; its stream-out is deferred to overlap the next
      // block's compute (the next block runs in the other parity).
      pending_out_ready = sched.drain_accumulators(parity, [&](int r, int c, double v) {
        res.out(ib * nr + r, jb * nr + c) = v;
      });
    }
  }
  if (pending_out_ready >= 0.0) {  // flush the last block's stream-out
    finish = std::max(
        finish, sched.dma_after(static_cast<double>(nr) * nr, pending_out_ready));
  }

  res.cycles = units::Cycles(std::max(finish, core.finish_time()));
  res.stats = core.stats();
  res.utilization =
      static_cast<double>(res.stats.mac_ops) / (res.cycles.value() * nr * nr);
  return res;
}

}  // namespace

KernelResult gemm_core(const arch::CoreConfig& cfg, double bw_words_per_cycle,
                       ConstViewD a, ConstViewD b, ConstViewD c_in,
                       model::Overlap overlap) {
  sim::ArenaCore core(cfg, bw_words_per_cycle, /*accumulators=*/2);
  return gemm_on_core(core.get(), a, b, c_in, overlap);
}

}  // namespace kernels
