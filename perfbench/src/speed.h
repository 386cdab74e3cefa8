// Host speed, sampled on the measuring thread's own CPU.
//
// The benchmark's host is a few vCPUs of a shared machine. A busy
// neighbour on the same physical core slows float-heavy code by up to
// 2x, in spells that last from a fraction of a second to minutes, so
// the wall time of an epoch swings by +-30% between runs of the same
// code while its work does not change. No count of repetitions within
// one run averages that out when the whole run falls in a slow spell.
//
// SpeedMonitor measures the spell as it happens, on the CPU that does
// the measured work. A sampler thread pinned to that CPU runs a fixed
// probe kernel every kPeriod seconds (a small float matrix product that
// the benchmark owns, so no change to the program can speed it up) and
// records its thread CPU time, which a preemption by the measured thread
// does not inflate. The host's relative speed at a moment is
// kProbeSeconds divided by the nearest probe times there. The default
// monitor pins the calling thread to the CPU it is on and samples that
// CPU; SpeedMonitor(cpu) samples a CPU that a worker thread was pinned
// to (run_pinned).
//
// reference_seconds(t0, t1) turns a measured interval into the seconds
// it would have taken on the same core at the reference speed (the
// probe taking kProbeSeconds, about this benchmark's 4-vCPU host when
// no neighbour is busy): the integral of relative speed over the
// interval, minus the probe's own runs inside it. The compute-bound
// end-to-end metrics are medians of these (README.md, "Host speed").
#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>
#include <sched.h>
#include <thread>
#include <vector>

namespace perfbench {

/// One run of the probe kernel: wall-clock start and end (Tracer::now())
/// and its thread CPU seconds.
struct ProbeRun {
  double start = 0.0;
  double end = 0.0;
  double seconds = 0.0;
};

class SpeedMonitor {
 public:
  /// Probe time at the reference speed.
  static constexpr double kProbeSeconds = 40e-6;
  /// Seconds between probes: each costs the measured work about 1%.
  static constexpr double kPeriod = 0.005;

  /// Pins the calling thread to its current CPU and samples that CPU.
  SpeedMonitor();
  /// Samples `cpu`; the calling thread stays where it is.
  explicit SpeedMonitor(int cpu);
  /// Stops the sampler (after one last probe) and restores the calling
  /// thread's CPU mask.
  ~SpeedMonitor();
  SpeedMonitor(const SpeedMonitor&) = delete;
  SpeedMonitor& operator=(const SpeedMonitor&) = delete;

  /// Seconds [t0, t1] (Tracer::now() clock) would have taken at the
  /// reference speed. Throws std::logic_error before the first probe.
  double reference_seconds(double t0, double t1) const;

 private:
  /// One run of the probe kernel; returns its thread CPU seconds.
  static double probe();
  void record_probe();
  void start(int cpu);

  cpu_set_t saved_mask_;
  bool pinned_ = false;
  mutable std::mutex mu_;
  std::vector<ProbeRun> samples_;
  bool stop_ = false;
  std::condition_variable wake_;
  std::thread sampler_;
};

/// Runs `fn` with the calling thread pinned to `cpu`, so every thread
/// `fn` starts inherits that CPU; restores the caller's mask after.
void run_pinned(int cpu, const std::function<void()>& fn);

/// A CPU other than the caller's current one (the caller's when it is
/// the only one).
int other_cpu();

/// Pure core of SpeedMonitor::reference_seconds, for the self-tests:
/// runs in time order, each giving the speed probe_seconds / seconds.
/// Between two runs the speed is the mean of theirs; before the first
/// and after the last it is that run's. Time inside the runs is not
/// counted.
double reference_seconds(const std::vector<ProbeRun>& runs,
                         double probe_seconds, double t0, double t1);

}  // namespace perfbench
