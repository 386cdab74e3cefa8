// Small timing helpers shared by the phases.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// Calls `fn` under a span named `name` until it has run at least
/// `min_reps` times and for at least `min_seconds` (capped at
/// `max_reps`), after one untimed warm-up call. Returns the median call
/// time in seconds. Spans are recorded only when tracing is on; the
/// timing itself is always taken.
double time_calls(const std::string& name, std::size_t min_reps,
                  double min_seconds, const std::function<void()>& fn,
                  std::size_t max_reps = 5000);

/// Process-wide CPU seconds (user + system) and voluntary context
/// switches so far, from getrusage(RUSAGE_SELF).
struct CpuSample {
  double cpu_s = 0.0;
  long voluntary_switches = 0;
};
CpuSample process_cpu();
/// The same for the calling thread only (RUSAGE_THREAD).
CpuSample thread_cpu();

/// Keeps the host's vCPUs out of their idle halt while alive: `threads`
/// threads at SCHED_IDLE priority calling sched_yield() in a loop. They
/// run only when nothing else is runnable and give way to a woken thread
/// within microseconds, so the program runs as before, but its wake-ups
/// no longer wait for the hypervisor to resume a halted vCPU, a delay
/// that swings with the load of other guests on the same host.
class IdleKeeper {
 public:
  explicit IdleKeeper(std::size_t threads);
  ~IdleKeeper();
  IdleKeeper(const IdleKeeper&) = delete;
  IdleKeeper& operator=(const IdleKeeper&) = delete;

  /// CPU seconds its threads have used so far, to subtract from
  /// process-wide CPU measurements.
  double cpu_seconds() const;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
  std::vector<std::thread::native_handle_type> handles_;
};

/// Median duration (seconds) of the spans recorded under `name`; throws
/// when there are none.
double span_median(const std::string& name);

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
