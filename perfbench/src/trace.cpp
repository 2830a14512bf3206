#include "trace.hpp"

#include <cstdio>

#include "host.hpp"

namespace perfbench {
namespace {

thread_local ExecRecord t_last;

unsigned slot_index() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

}  // namespace

lac::fabric::KernelResult TimedExecutor::execute(
    const lac::fabric::KernelRequest& req) const {
  if (capture_.load(std::memory_order_relaxed)) {
    lac::MutexLock lock(capture_mu_);
    captured_.push_back(req);
  }
  ExecRecord rec;
  rec.tid = slot_index();
  rec.start_ns = wall_ns();
  const std::uint64_t cpu0 = thread_cpu_ns();
  lac::fabric::KernelResult res = inner_.execute(req);
  rec.cpu_ns = thread_cpu_ns() - cpu0;
  rec.end_ns = wall_ns();
  t_last = rec;
  totals_.add(rec.cpu_ns);
  return res;
}

const ExecRecord& TimedExecutor::last() { return t_last; }

void ThreadTotals::add(std::uint64_t cpu_ns) {
  Slot& s = slots_[slot_index() % kSlots];
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.cpu_ns.fetch_add(cpu_ns, std::memory_order_relaxed);
}

ExecTotals ThreadTotals::sum() const {
  ExecTotals t;
  for (const Slot& s : slots_) {
    t.count += s.count.load(std::memory_order_relaxed);
    t.cpu_ns += s.cpu_ns.load(std::memory_order_relaxed);
  }
  return t;
}

void ThreadTotals::reset() {
  for (Slot& s : slots_) {
    s.count.store(0, std::memory_order_relaxed);
    s.cpu_ns.store(0, std::memory_order_relaxed);
  }
}

std::vector<lac::fabric::KernelRequest> TimedExecutor::take_captured() {
  lac::MutexLock lock(capture_mu_);
  std::vector<lac::fabric::KernelRequest> out;
  out.swap(captured_);
  return out;
}

SpanLog::SpanLog(std::size_t capacity) : capacity_(capacity) {
  spans_.reserve(capacity);
}

std::uint64_t SpanLog::add(const char* name, std::uint64_t op, std::uint64_t parent,
                           std::uint64_t tid, std::uint64_t start_ns,
                           std::uint64_t end_ns) {
  const std::uint64_t id = next_id_++;
  if (spans_.size() < capacity_)
    spans_.push_back(Span{name, id, op, parent, tid, start_ns, end_ns});
  else
    ++dropped_;
  return id;
}

bool SpanLog::write_chrome_json(const std::string& path, std::uint64_t origin_ns) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"droppedSpans\": %llu, \"traceEvents\": [",
               static_cast<unsigned long long>(dropped_));
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts = static_cast<double>(s.start_ns - origin_ns) / 1e3;
    const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %llu, \"op\": %llu, \"parent\": %llu}}",
                 i ? "," : "", s.name, static_cast<unsigned long long>(s.tid), ts, dur,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.op),
                 static_cast<unsigned long long>(s.parent));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::uint64_t thread_tag() { return slot_index(); }

}  // namespace perfbench
