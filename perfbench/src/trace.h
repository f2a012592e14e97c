// In-memory span log for the traced run. Two tracks share one steady-clock
// timeline: the benchmark's own spans around each call into a layer, and
// the service's request spans (drained from Service::tracer() after every
// call). Everything stays in memory and is written once, at the end, as
// Chrome trace-event JSON.
#ifndef FM_PERFBENCH_TRACE_H_
#define FM_PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/span.h"

namespace perfbench {

enum class Track { kBench = 1, kService = 2 };

class TraceLog {
 public:
  explicit TraceLog(size_t max_events) : max_events_(max_events) {}

  /// Opens a benchmark span as a child of the innermost open one.
  uint64_t Begin(const char* name);
  /// Closes the innermost open span, which must be `id`.
  void End(uint64_t id);

  /// Appends service spans (already finished) to the service track.
  void AddService(const std::vector<fm::obs::SpanRecord>& records);

  size_t events() const { return events_.size(); }
  uint64_t dropped() const { return dropped_; }

  /// Chrome trace-event JSON ("X" complete events, one thread per track);
  /// chrome://tracing and Perfetto open it offline.
  bool WriteChrome(const std::string& path) const;

 private:
  struct Event {
    fm::obs::SpanRecord record;
    Track track;
  };
  struct Open {
    uint64_t id;
    const char* name;
    int64_t start;
    uint64_t parent;
  };
  void Push(Event event);

  size_t max_events_;
  std::vector<Event> events_;
  std::vector<Open> open_;
  uint64_t next_id_ = 1;
  uint64_t dropped_ = 0;
};

/// RAII benchmark span; also hands back its duration for the caller's own
/// per-layer accumulation. A null log makes it a plain stopwatch.
class Scope {
 public:
  Scope(TraceLog* log, const char* name);
  ~Scope() { Stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  /// Ends the span (idempotent) and returns its duration in nanoseconds.
  int64_t Stop();

 private:
  TraceLog* log_;
  uint64_t id_ = 0;
  int64_t start_ = 0;
  int64_t nanos_ = -1;
};

/// Self time of each record: its duration minus the part of its interval
/// covered by its direct children (same id space). Output is parallel to
/// `records`.
std::vector<int64_t> SelfTimes(const std::vector<fm::obs::SpanRecord>& records);

}  // namespace perfbench

#endif  // FM_PERFBENCH_TRACE_H_
