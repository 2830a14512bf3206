#pragma once
// Fabric telemetry, part 2 of 2: the span tracer.
//
// Counters (obs/metrics.hpp) say *how much*; spans say *where the time
// went*. A TraceSession activates recording process-wide; while one is
// active, every RAII Span (pool task, serving execute/hook, scheduler run,
// per-kernel execute) and every record_interval() call (serving
// queue-wait, scheduler admission/ready wait) appends one event to a
// per-thread ring buffer. Stopping the session gathers the rings and
// exports Chrome trace-event JSON that chrome://tracing and Perfetto open
// directly, so head-of-line blocking in the pool is a picture, not an
// inference from percentiles.
//
// Span identity: every span gets a process-unique id and records its
// parent -- the enclosing span on the same thread by default, or an
// explicit id for cross-thread hops (AsyncExecutor passes the submitting
// span's id into the worker-side spans, so a request's queue-wait and
// execute phases chain to the caller that submitted it).
//
// Cost model:
//   - no active session: one relaxed atomic load per Span (measured by the
//     zero-allocation pin in tests/test_obs.cpp);
//   - active session: two clock reads plus one ring slot per span, no
//     allocation after a thread's first event (rings are fixed capacity
//     and overwrite oldest -- `dropped()` reports overwrites);
//   - -DLAC_OBS=OFF: Span/TraceSession compile to empty inline stubs, so
//     the instrumented seams carry literally no tracer code.
//
// Timestamps are steady-clock nanoseconds; the export converts to
// microseconds relative to the session start. Spans may also carry a
// typed fabric-cycles payload (units::Cycles), exported under args.
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"

// CMake's -DLAC_OBS=OFF defines this to 0; a build that never saw the
// option (plain `c++ -I src`) gets the tracer, matching the default.
#ifndef LAC_OBS_ENABLED
#define LAC_OBS_ENABLED 1
#endif

namespace lac::obs {

/// One completed span, gathered from the per-thread rings at stop().
struct TraceEvent {
  const char* name = "";  ///< static-storage string (literals, registry names)
  const char* cat = "lac";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint32_t tid = 0;     ///< small sequential trace-thread id
  std::uint64_t start_ns = 0;  ///< steady-clock ns (absolute)
  std::uint64_t dur_ns = 0;
  units::Cycles cycles;    ///< optional typed payload (0 = unset)
  std::int64_t tenant = -1;  ///< optional scheduler tenant id (-1 = unset)
};

#if LAC_OBS_ENABLED

/// Steady-clock nanoseconds (the tracer's clock). Callers gating on
/// tracing_active() use this to timestamp intervals whose start and end
/// live on different threads (queue waits).
std::uint64_t now_ns();

/// True while a TraceSession is active (one relaxed load).
bool tracing_active();

/// Append one externally-timed span. No-op when no session is active.
/// `name`/`cat` must have static storage duration.
void record_interval(const char* name, const char* cat, std::uint64_t start_ns,
                     std::uint64_t end_ns, std::uint64_t parent = 0,
                     units::Cycles cycles = units::Cycles{},
                     std::int64_t tenant = -1);

/// RAII span: records [construction, destruction) on the current thread.
/// Near-free when no session is active. Not copyable or movable -- a span
/// is a scope.
class Span {
 public:
  explicit Span(const char* name, const char* cat = "lac");
  /// Cross-thread child: `parent_id` instead of the thread's current span.
  Span(const char* name, const char* cat, std::uint64_t parent_id);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach the fabric-cycles cost of the spanned work (exported as args).
  void set_cycles(units::Cycles c) { cycles_ = c; }

  /// Attach the scheduler tenant the spanned work belongs to (exported as
  /// args), so per-tenant interference is filterable in Perfetto.
  void set_tenant(std::size_t tenant) {
    tenant_ = static_cast<std::int64_t>(tenant);
  }

  /// This span's id (0 when no session was active at construction) --
  /// capture it before handing work to another thread.
  std::uint64_t id() const { return id_; }

  /// The innermost active span id on this thread (0 at top level).
  static std::uint64_t current_id();

 private:
  void open(const char* name, const char* cat, std::uint64_t parent_id);

  const char* name_ = "";
  const char* cat_ = "";
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t start_ns_ = 0;
  units::Cycles cycles_;
  std::int64_t tenant_ = -1;
  std::uint64_t prev_current_ = 0;  ///< restored at close
};

struct TraceSessionOptions {
  /// Events retained per thread; older events are overwritten (counted in
  /// dropped()).
  std::size_t ring_capacity = 16384;
};

/// Activates span recording for its lifetime. One session may be active at
/// a time (a second construction throws std::logic_error). stop() is
/// idempotent and implied by the destructor; events()/write_chrome_trace()
/// stop the session first if needed.
class TraceSession {
 public:
  explicit TraceSession(TraceSessionOptions opts = {});
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// Deactivate recording and gather the rings (idempotent).
  void stop();

  /// All recorded events, sorted by start time (stops the session).
  const std::vector<TraceEvent>& events();

  /// Chrome trace-event JSON ("X" complete events; ts/dur in us relative
  /// to the session start; span id/parent/cycles under args). Loads in
  /// chrome://tracing and Perfetto.
  void write_chrome_trace(std::ostream& os);
  /// As above, to a file; false when the file cannot be opened.
  bool write_chrome_trace(const std::string& path);

  /// Ring-buffer overwrites across all threads (0 = the trace is complete).
  std::uint64_t dropped();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::vector<TraceEvent> events_;
  std::uint64_t dropped_ = 0;
  bool stopped_ = false;
};

#else  // LAC_OBS_ENABLED -- the tracer compiles to nothing.

inline std::uint64_t now_ns() { return 0; }
inline bool tracing_active() { return false; }
inline void record_interval(const char*, const char*, std::uint64_t,
                            std::uint64_t, std::uint64_t = 0,
                            units::Cycles = units::Cycles{},
                            std::int64_t = -1) {}

class Span {
 public:
  explicit Span(const char*, const char* = "lac") {}
  Span(const char*, const char*, std::uint64_t) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void set_cycles(units::Cycles) {}
  void set_tenant(std::size_t) {}
  std::uint64_t id() const { return 0; }
  static std::uint64_t current_id() { return 0; }
};

struct TraceSessionOptions {
  std::size_t ring_capacity = 16384;
};

class TraceSession {
 public:
  explicit TraceSession(TraceSessionOptions = {}) {}
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;
  void stop() {}
  const std::vector<TraceEvent>& events() { return events_; }
  void write_chrome_trace(std::ostream& os);
  bool write_chrome_trace(const std::string& path);
  std::uint64_t dropped() { return 0; }

 private:
  std::vector<TraceEvent> events_;
};

#endif  // LAC_OBS_ENABLED

}  // namespace lac::obs
