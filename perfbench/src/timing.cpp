#include "timing.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <cstdarg>
#include <cstdio>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {

IdleKeeper::IdleKeeper(std::size_t threads) {
  for (std::size_t i = 0; i < threads; ++i) {
    threads_.emplace_back([this] {
      sched_param param{};
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
      // Yielding, not pausing: a spinning SCHED_IDLE thread is not
      // always preempted at once by a woken thread, which can then wait
      // for the next scheduler tick (up to 4 ms); a yield hands the vCPU
      // over within microseconds.
      while (!stop_.load(std::memory_order_relaxed)) sched_yield();
    });
    handles_.push_back(threads_.back().native_handle());
  }
}

double IdleKeeper::cpu_seconds() const {
  double total = 0.0;
  for (const auto t : handles_) {
    clockid_t clock;
    timespec ts{};
    if (pthread_getcpuclockid(t, &clock) == 0 &&
        clock_gettime(clock, &ts) == 0) {
      total += static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
    }
  }
  return total;
}

IdleKeeper::~IdleKeeper() {
  stop_.store(true, std::memory_order_relaxed);
  for (auto& t : threads_) t.join();
}

double time_calls(const std::string& name, std::size_t min_reps,
                  double min_seconds, const std::function<void()>& fn,
                  std::size_t max_reps) {
  fn();  // warm-up: lazy buffer growth and cold caches stay out
  std::vector<double> samples;
  const double t_begin = Tracer::now();
  while (samples.size() < max_reps &&
         (samples.size() < min_reps ||
          Tracer::now() - t_begin < min_seconds)) {
    const double t0 = Tracer::now();
    {
      Span span(name);
      fn();
    }
    samples.push_back(Tracer::now() - t0);
  }
  return median(samples);
}

namespace {
CpuSample cpu_of(int who) {
  rusage ru{};
  getrusage(who, &ru);
  CpuSample s;
  s.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                       ru.ru_stime.tv_usec);
  s.voluntary_switches = ru.ru_nvcsw;
  return s;
}
}  // namespace

CpuSample process_cpu() { return cpu_of(RUSAGE_SELF); }
CpuSample thread_cpu() { return cpu_of(RUSAGE_THREAD); }

std::string format(const char* fmt, ...) {
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

double span_median(const std::string& name) {
  return median(Tracer::global().durations(name));
}

}  // namespace perfbench
