// The benchmark's three phases and the per-layer sections of the traced
// run.
//
// Every run executes all three phases, because every run reports every
// end-to-end metric. A workload decides which phase runs at full size
// (the layer that workload exists to load) and which run at a small
// probe size (Sizes in main.cpp, README.md).
//
//   TrainPhase — fit proposed / atda / bim_adv(10) from scratch on
//                SyntheticDigits, a BIM(10) evaluation pass and a
//                gauntlet row (compute pool: 1 thread).
//   ServePhase — one adaptive b8 serving worker (pool of 1): idle window,
//                Poisson open loop at 1000 and 4000 rps, a capacity
//                ladder past the knee, and a closed loop over a unix
//                socket through a 2-shard router behind the front end.
//   JobsPhase  — one fixed DAG of small deterministic CPU jobs through
//                the in-process Supervisor, through the fork/exec
//                Spooler, and a resume pass after an injected crash.
//
// A run is set up (timed into setup_s), then executes kRounds rounds; in
// each round every phase does one slice of its work (an epoch of every
// method, windows of every serving load and a capacity window, one
// pass over the job graph). Interleaving spreads every metric's samples
// over the whole run, so a slow minute on a shared host moves all
// metrics a little instead of one metric a lot. finish() computes the
// end-to-end metrics and output checks; layers() the per-layer metrics
// (traced run only).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "data/dataset.h"
#include "nn/sequential.h"
#include "report.h"

namespace perfbench {

/// Byte strings that must repeat exactly across runs at one seed (the
/// runner compares them against earlier runs of the same build).
using Digests = std::map<std::string, std::string>;

struct RunContext {
  std::uint64_t seed = 1;
  std::string tmp_dir;  ///< private directory, removed at exit
  std::string exe;      ///< this binary (spooled jobs re-enter it)
};

/// SCHED_IDLE spinners (timing.h) kept alive while the serve and jobs
/// phases measure; one per vCPU of the 4-vCPU host the bounds were set
/// on.
inline constexpr std::size_t kIdleKeepers = 4;

/// Rounds per run: one epoch of each method per round.
inline constexpr std::size_t kRounds = 6;

struct TrainSizes {
  std::size_t train = 1000;  ///< training images (one epoch per round)
  std::size_t test = 256;    ///< BIM(10) evaluation set
};

class TrainPhase {
 public:
  TrainPhase(const RunContext& ctx, TrainSizes sizes);
  ~TrainPhase();
  void setup();
  /// Fresh trainers over the models setup() built.
  void begin();
  /// One epoch of every method; from round 1 on, also one timed BIM(10)
  /// evaluation and one timed gauntlet row of the proposed model.
  void round(std::size_t k, Report& r);
  void finish(Report& r, Digests& digests);
  void layers(Report& r);

  /// Compute pool for training. One thread: on a shared 4-vCPU host a
  /// 2-thread fork-join waits for the slower vCPU on every GEMM, and
  /// per-epoch times spread by +-30% between runs (README.md).
  static constexpr std::size_t kPoolThreads = 1;

 private:
  const RunContext& ctx_;
  TrainSizes sizes_;
  satd::data::DatasetPair data_;
  satd::data::Dataset gauntlet_test_;
  std::vector<satd::nn::Sequential> models_;
  std::vector<std::unique_ptr<satd::core::Trainer>> trainers_;
  // Wall seconds, and reference seconds (speed.h), of every epoch per
  // method, every BIM(10) evaluation and every gauntlet row (rounds 1..
  // and the final one).
  std::vector<std::vector<double>> epoch_s_, epoch_ref_s_;
  std::vector<double> eval_s_, eval_ref_s_;
  std::vector<double> row_s_, row_ref_s_;
  std::vector<float> final_loss_;
  std::vector<std::size_t> rollbacks_;
  float acc_bim10_ = 0.0f;
};

struct ServeState;

struct ServeSizes {
  std::size_t windows = 2;  ///< windows of each load per round
  double light_s = 0.4;     ///< one open-loop window at 1000 rps
  double heavy_s = 0.4;     ///< one open-loop window at 4000 rps
  double socket_s = 0.4;    ///< one closed-loop window over the socket
  double rung_s = 0.3;      ///< one capacity-ladder rung (a ladder a round)
  double idle_s = 1.0;      ///< idle windows (traced run only)
};

class ServePhase {
 public:
  ServePhase(const RunContext& ctx, ServeSizes sizes);
  ~ServePhase();
  void setup();
  /// `windows` windows of each load, one capacity window and, in odd
  /// rounds, one capacity ladder.
  void round(std::size_t k, Report& r);
  void finish(Report& r);
  void layers(Report& r);

  static constexpr std::size_t kWorkers = 1;
  static constexpr std::size_t kMaxBatch = 8;
  static constexpr std::size_t kShards = 2;
  static constexpr std::size_t kConnections = 2;

 private:
  const RunContext& ctx_;
  ServeSizes sizes_;
  std::unique_ptr<ServeState> st_;
};

class JobsPhase {
 public:
  JobsPhase(const RunContext& ctx);
  void setup();
  /// One pass over the graph with each orchestrator.
  void round(std::size_t k, Report& r);
  void finish(Report& r, Digests& digests);
  void layers(Report& r);

  static constexpr std::size_t kSlots = 2;
  static constexpr std::size_t kChildThreads = 1;
  /// splitmix64 rounds per job body (about 20 ms), so the graph's
  /// makespan is not mostly fsync latency.
  static constexpr std::size_t kWork = 8'000'000;

  /// Child entry point: runs one job body of the graph into `dir`.
  /// Returns a process exit code.
  static int run_child(const std::string& job, const std::string& dir,
                       std::uint64_t seed, std::size_t work);

 private:
  std::string fresh_dir(const std::string& tag);

  const RunContext& ctx_;
  std::size_t dir_counter_ = 0;
  std::string reference_;          ///< outputs of the first pass
  std::vector<double> body_s_;     ///< in-process body seconds per job
  std::size_t body_samples_ = 0;
  std::vector<double> supervisor_s_, spooler_s_, resume_s_;
  std::vector<double> supervisor_ref_s_;  ///< speed.h
  std::vector<double> sup_overhead_s_;
  std::vector<double> spooled_wall_;  ///< per-job spawn-to-reap seconds,
                                      ///< graph order, pass after pass
};

}  // namespace perfbench
