#include "sim/core.hpp"

#include <algorithm>
#include <cassert>

namespace lac::sim {

Pe::Pe(const arch::CoreConfig& cfg, int accumulators)
    : mac(cfg.pe.pipeline_stages, accumulators),
      mem_a(static_cast<index_t>(cfg.pe.mem_a_kbytes * 1024.0 /
                                 bytes_of(cfg.pe.precision)),
            cfg.pe.mem_a_ports),
      mem_b(static_cast<index_t>(cfg.pe.mem_b_kbytes * 1024.0 /
                                 bytes_of(cfg.pe.precision)),
            cfg.pe.mem_b_ports),
      rf(cfg.pe.register_file_entries) {}

void Pe::reset(int accumulators) {
  mac.reset(accumulators);
  mem_a.reset();
  mem_b.reset();
  rf.reset();
}

Core::Core(const arch::CoreConfig& cfg, double bw_words_per_cycle, int accumulators)
    : cfg_(cfg),
      bw_(bw_words_per_cycle),
      row_bus_(static_cast<std::size_t>(cfg.nr)),
      col_bus_(static_cast<std::size_t>(cfg.nr)),
      sfu_(cfg) {
  pes_.reserve(static_cast<std::size_t>(cfg.nr) * cfg.nr);
  for (int i = 0; i < cfg.nr * cfg.nr; ++i) pes_.emplace_back(cfg, accumulators);
}

void Core::reset(double bw_words_per_cycle, int accumulators) {
  bw_ = bw_words_per_cycle;
  for (auto& pe : pes_) pe.reset(accumulators);
  for (auto& b : row_bus_) b.reset();
  for (auto& b : col_bus_) b.reset();
  mem_if_.reset();
  sfu_.reset();
  row_xfers_ = 0;
  col_xfers_ = 0;
  dma_words_ = 0;
}

TimedVal Core::special(SfuKind kind, int row, int col, TimedVal x, time_t_ earliest) {
  switch (cfg_.sfu) {
    case arch::SfuOption::Software:
      return sfu_.execute(kind, x, &pe(row, col).mac, earliest);
    case arch::SfuOption::IsolatedUnit: {
      // Operand travels to the unit on the row bus, result returns on the
      // column bus (the SFU taps both, Fig 1.1).
      TimedVal to_unit = broadcast_row(row, x);
      TimedVal r = sfu_.execute(kind, to_unit, nullptr, earliest);
      return broadcast_col(col, r);
    }
    case arch::SfuOption::DiagonalPEs: {
      if (row == col) return sfu_.execute(kind, x, nullptr, earliest);
      // Route to the diagonal PE of this row and back along its column.
      TimedVal to_diag = broadcast_row(row, x);
      TimedVal r = sfu_.execute(kind, to_diag, nullptr, earliest);
      return broadcast_col(col, r);
    }
  }
  return x;
}

time_t_ Core::finish_time() const {
  time_t_ t = 0.0;
  for (const auto& pe : pes_) {
    t = std::max(t, pe.mac.issue_port_free());
    // Accumulator drains are captured through read_acc by the kernels.
  }
  for (const auto& b : row_bus_) t = std::max(t, b.next_free());
  for (const auto& b : col_bus_) t = std::max(t, b.next_free());
  t = std::max(t, mem_if_.next_free());
  return t;
}

Stats Core::stats() const {
  Stats s;
  for (const auto& pe : pes_) {
    s.mac_ops += pe.mac.mac_ops();
    s.mul_ops += pe.mac.mul_ops();
    s.cmp_ops += pe.mac.cmp_ops();
    s.mem_a_reads += pe.mem_a.reads();
    s.mem_a_writes += pe.mem_a.writes();
    s.mem_b_reads += pe.mem_b.reads();
    s.mem_b_writes += pe.mem_b.writes();
    s.rf_reads += pe.rf.reads();
    s.rf_writes += pe.rf.writes();
    s.overruns += pe.mem_a.overruns() + pe.mem_b.overruns();
  }
  s.row_bus_xfers = row_xfers_;
  s.col_bus_xfers = col_xfers_;
  s.sfu_ops = sfu_.ops();
  s.dma_words = dma_words_;
  return s;
}

double Core::mac_utilization() const {
  const time_t_ t = finish_time();
  if (t <= 0.0) return 0.0;
  const Stats s = stats();
  return static_cast<double>(s.mac_ops + s.mul_ops) /
         (t * cfg_.nr * cfg_.nr);
}

}  // namespace lac::sim
