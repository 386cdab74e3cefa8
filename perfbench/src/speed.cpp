#include "speed.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <time.h>

#include "trace.h"

namespace perfbench {

namespace {

volatile float g_probe_sink = 0.0f;

double thread_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double SpeedMonitor::probe() {
  // 4 products of 48x48 float matrices: about 40 us, in L1.
  constexpr int n = 48;
  static thread_local std::vector<float> a, b, c;
  if (a.empty()) {
    a.resize(n * n);
    b.resize(n * n);
    c.assign(n * n, 0.0f);
    for (int i = 0; i < n * n; ++i) {
      a[i] = 1.0f + static_cast<float>(i % 7) * 0.01f;
      b[i] = 0.5f - static_cast<float>(i % 5) * 0.01f;
    }
  }
  const double t0 = thread_seconds();
  for (int r = 0; r < 4; ++r) {
    for (int i = 0; i < n; ++i) {
      for (int k = 0; k < n; ++k) {
        const float x = a[i * n + k];
        for (int j = 0; j < n; ++j) c[i * n + j] += x * b[k * n + j];
      }
    }
  }
  const double t1 = thread_seconds();
  // Keep the products observable so the loop is not optimised away.
  g_probe_sink = c[n + 1];
  return t1 - t0;
}

void SpeedMonitor::record_probe() {
  ProbeRun run;
  run.start = Tracer::now();
  run.seconds = probe();
  run.end = Tracer::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    samples_.push_back(run);
  }
  wake_.notify_all();
}

namespace {

cpu_set_t only(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return set;
}

}  // namespace

SpeedMonitor::SpeedMonitor() {
  const int cpu = sched_getcpu();
  if (cpu >= 0 && sched_getaffinity(0, sizeof(saved_mask_), &saved_mask_) == 0) {
    const cpu_set_t one = only(cpu);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  start(cpu);
}

SpeedMonitor::SpeedMonitor(int cpu) { start(cpu); }

void SpeedMonitor::start(int cpu) {
  sampler_ = std::thread([this, cpu] {
    if (cpu >= 0) {
      const cpu_set_t one = only(cpu);
      pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
    }
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      lock.unlock();
      record_probe();
      lock.lock();
      if (stop_) break;
      wake_.wait_for(lock, std::chrono::duration<double>(kPeriod));
    }
  });
  // The first probe before any measured work.
  std::unique_lock<std::mutex> lock(mu_);
  wake_.wait(lock, [this] { return !samples_.empty(); });
}

SpeedMonitor::~SpeedMonitor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_one();
  sampler_.join();
  if (pinned_) sched_setaffinity(0, sizeof(saved_mask_), &saved_mask_);
}

double SpeedMonitor::reference_seconds(double t0, double t1) const {
  std::lock_guard<std::mutex> lock(mu_);
  return perfbench::reference_seconds(samples_, kProbeSeconds, t0, t1);
}

void run_pinned(int cpu, const std::function<void()>& fn) {
  cpu_set_t saved;
  const bool pinned = sched_getaffinity(0, sizeof(saved), &saved) == 0 &&
                      [cpu] {
                        const cpu_set_t one = only(cpu);
                        return sched_setaffinity(0, sizeof(one), &one) == 0;
                      }();
  try {
    fn();
  } catch (...) {
    if (pinned) sched_setaffinity(0, sizeof(saved), &saved);
    throw;
  }
  if (pinned) sched_setaffinity(0, sizeof(saved), &saved);
}

int other_cpu() {
  const int n = static_cast<int>(std::thread::hardware_concurrency());
  const int cpu = sched_getcpu();
  return n > 1 && cpu >= 0 ? (cpu + 1) % n : std::max(cpu, 0);
}

double reference_seconds(const std::vector<ProbeRun>& runs,
                         double probe_seconds, double t0, double t1) {
  if (runs.empty()) {
    throw std::logic_error("reference_seconds: no probe has run");
  }
  auto speed = [&](std::size_t i) { return probe_seconds / runs[i].seconds; };
  auto overlap = [t0, t1](double a, double b) {
    return std::max(0.0, std::min(b, t1) - std::max(a, t0));
  };
  const double inf = 1e300;
  double sum = overlap(-inf, runs.front().start) * speed(0);
  for (std::size_t i = 0; i + 1 < runs.size(); ++i) {
    sum += overlap(runs[i].end, runs[i + 1].start) * 0.5 *
           (speed(i) + speed(i + 1));
  }
  return sum + overlap(runs.back().end, inf) * speed(runs.size() - 1);
}

}  // namespace perfbench
