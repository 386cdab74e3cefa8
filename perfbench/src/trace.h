// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark's own code around each call into a
// library layer (the library itself is not instrumented). A span carries
// its name, start and end on one steady clock, the span that was open on
// the same thread when it began (its parent), and a request id that ties
// together the spans of one served request. Spans stay in memory and are
// written out once, as JSON, when the run ends.
//
// With tracing disabled every Span is a no-op that reads no clock, so the
// untraced run measures the program, not the recorder.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  double start = 0.0;  ///< seconds on the tracer's steady clock
  double end = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< 0 = not part of a request
  double seconds() const { return end - start; }
};

class Tracer {
 public:
  /// The process-wide recorder.
  static Tracer& global();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Seconds on the tracer's steady clock.
  static double now();

  void add(SpanRecord record);
  std::uint64_t next_id();

  /// Durations (seconds) of every recorded span with this exact name.
  std::vector<double> durations(const std::string& name) const;
  /// Copy of every record.
  std::vector<SpanRecord> records() const;
  /// Writes {"spans": [...]} to `path`; returns false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  // A deque: appending never moves the spans already recorded, so a
  // recording thread never stalls on a copy of the whole trace.
  std::deque<SpanRecord> spans_;
  std::uint64_t next_id_ = 1;
};

/// RAII span on the global tracer (no-op when tracing is off). Nested
/// spans on one thread record the enclosing span as their parent.
class Span {
 public:
  explicit Span(std::string name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Records a span that already happened (e.g. a latency reconstructed
  /// from the server's own measurement) under the current parent.
  static void record(std::string name, double start, double end,
                     std::uint64_t request = 0);

 private:
  bool active_ = false;
  SpanRecord rec_;
  std::uint64_t saved_parent_ = 0;
};

}  // namespace perfbench
