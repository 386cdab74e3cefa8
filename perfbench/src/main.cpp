// perfbench — the repository's layer-attributed benchmark.
//
//   perfbench --workload <train|serve> --seed <n> --seconds <s>
//             --trace <0|1> [--digest-out <file>] [--trace-out <file>]
//             [--tmp-root <dir>]
//
// Runs all three phases (phases.h), the workload's own at full size and
// the other two at probe size, and prints every metric with its unit and
// sample count and each phase's share of the wall time; the last stdout
// line is the result JSON. The work per run is fixed (--seconds is
// recorded, not used): a run measures about 40 s on a 4-vCPU host. With
// --trace 1 the end-to-end phases run twice, untraced then traced, and
// the run adds the per-layer sections, the tracing overhead of every
// end-to-end metric and the span file. Normally started through run.py,
// which builds this binary first.
//
// Internal modes: `--run-job <name> --job-dir <dir> --seed <n> --work <n>`
// runs one job body of the jobs phase (spooled children), `--noop` exits
// at once (spawn timing).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common/log.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "phases.h"
#include "report.h"
#include "speed.h"
#include "stats.h"
#include "tensor/kernel/microkernel.h"
#include "timing.h"
#include "trace.h"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

// End-to-end metrics (untraced run), in BENCHMARK.json order.
const std::vector<std::string> kEndToEnd = {
    "setup_s",
    "epoch_s.proposed",
    "epoch_s.atda",
    "epoch_s.bim_adv10",
    "eval_bim10_s",
    "gauntlet_row_s",
    "serve.p50_ms.light",
    "serve.capacity_rps",
    "socket.p50_ms",
    "socket.rps",
    "jobs.makespan_s.supervisor",
    "jobs.makespan_s.spooler",
};

constexpr std::size_t kSetupReps = 5;

struct Sizes {
  TrainSizes train;
  ServeSizes serve;
};

/// The workload's own phase runs at full size, the other at probe size
/// (README.md has the resulting share of wall time per phase); the jobs
/// phase is the same in both.
Sizes sizes_for(const std::string& workload) {
  // train:  1000 training images (32 steps an epoch), 256 to evaluate;
  //         serving in 0.15 s windows (light 0.25 s, so its p99 has at
  //         least 10 samples beyond it), 0.2 s ladder rungs.
  // serve:  256 training images (8 steps an epoch), 128 to evaluate;
  //         serving in 0.4 s windows, two of each load a round.
  if (workload == "train") {
    return {TrainSizes{1000, 256},
            ServeSizes{1, 0.25, 0.15, 0.15, 0.2, 0.5}};
  }
  if (workload == "serve") {
    return {TrainSizes{256, 128}, ServeSizes{2, 0.4, 0.4, 0.4, 0.3, 1.0}};
  }
  throw std::invalid_argument("unknown workload '" + workload +
                              "' (train|serve)");
}

std::string self_exe() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  buf[n] = '\0';
  return buf;
}

/// Private scratch directory, removed when the run ends.
class TempDir {
 public:
  explicit TempDir(const std::string& root) {
    fs::create_directories(root);
    std::string tmpl = root + "/run-XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed under " + root);
    }
    path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string digest_out;
  std::string trace_out;
  std::string tmp_root = ".bench_build/tmp";
  // child modes
  std::string run_job, job_dir;
  std::size_t work = 0;
  bool noop = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--noop") {
      a.noop = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = std::stoi(v) != 0;
    else if (k == "--digest-out") a.digest_out = v;
    else if (k == "--trace-out") a.trace_out = v;
    else if (k == "--tmp-root") a.tmp_root = v;
    else if (k == "--run-job") a.run_job = v;
    else if (k == "--job-dir") a.job_dir = v;
    else if (k == "--work") a.work = std::stoull(v);
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

/// One line per digest: name, FNV-1a 64 of the bytes, byte count.
void write_digests(const std::string& path, const Digests& digests) {
  if (path.empty()) return;
  std::ofstream os(path, std::ios::trunc);
  for (const auto& [k, v] : digests) {
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (unsigned char c : v) {
      h ^= c;
      h *= 0x100000001B3ULL;
    }
    os << k << '\t' << format("%016llx:%zu", static_cast<unsigned long long>(h),
                              v.size())
       << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.noop) return 0;
    if (!args.run_job.empty()) {
      return JobsPhase::run_child(args.run_job, args.job_dir, args.seed,
                                  args.work);
    }
    satd::log::set_level(satd::log::Level::kWarn);

    const Sizes sizes = sizes_for(args.workload);
    TempDir tmp(args.tmp_root);
    RunContext ctx{args.seed, tmp.path(), self_exe()};
    TrainPhase train(ctx, sizes.train);
    ServePhase serve(ctx, sizes.serve);
    JobsPhase jobs(ctx);

    Report report;
    report.config("workload", args.workload);
    report.config("seed", std::to_string(args.seed));
    report.config("seconds", format("%g", args.seconds));
    report.config("host.nproc",
                  std::to_string(std::thread::hardware_concurrency()));
    report.config("gemm.kernel", satd::kernel::auto_kernel_name());
    report.config("train.pool_threads",
                  std::to_string(TrainPhase::kPoolThreads));
    report.config("rounds", std::to_string(kRounds));
    report.config("train.sizes",
                  format("train=%zu test=%zu", sizes.train.train,
                         sizes.train.test));
    report.config("serve.workers", std::to_string(ServePhase::kWorkers));
    report.config("serve.pool_threads", "1");
    report.config("serve.max_batch", std::to_string(ServePhase::kMaxBatch));
    report.config("serve.shards", std::to_string(ServePhase::kShards));
    report.config("serve.connections",
                  std::to_string(ServePhase::kConnections));
    report.config("serve.sizes",
                  format("per round: %zu x (light_s=%g heavy_s=%g "
                         "socket_s=%g), one ladder with rung_s=%g",
                         sizes.serve.windows, sizes.serve.light_s,
                         sizes.serve.heavy_s, sizes.serve.socket_s,
                         sizes.serve.rung_s));
    report.config("idle_keepers", std::to_string(kIdleKeepers));
    report.config("jobs.slots", std::to_string(JobsPhase::kSlots));
    report.config("jobs.child_pool_threads",
                  std::to_string(JobsPhase::kChildThreads));
    report.config("jobs.passes", std::to_string(kRounds));

    Digests digests;
    auto run_pass = [&](Digests& d) {
      // Wall seconds per phase, to show which layer the workload loads.
      std::map<std::string, double> phase_s;
      auto timed = [&phase_s](const char* phase, auto&& fn) {
        satd::Stopwatch watch;
        fn();
        phase_s[phase] += watch.seconds();
      };
      // Set-up runs on this thread (the threads it starts end within
      // it), so it is timed in reference seconds (speed.h).
      std::vector<double> setup_s, setup_wall;
      for (std::size_t k = 0; k < kSetupReps; ++k) {
        const SpeedMonitor monitor;
        const double t0 = Tracer::now();
        {
          Span span("setup");
          satd::ThreadPool::set_global_threads(TrainPhase::kPoolThreads);
          train.setup();
          serve.setup();
          jobs.setup();
        }
        const double t1 = Tracer::now();
        setup_s.push_back(monitor.reference_seconds(t0, t1));
        setup_wall.push_back(t1 - t0);
        phase_s["setup"] += t1 - t0;
      }
      report.metric("setup_s", median(setup_s), "s", setup_s.size());
      report.config("wall.setup_s", format("%.6f", median(setup_wall)));
      timed("train", [&] { train.begin(); });
      for (std::size_t k = 0; k < kRounds; ++k) {
        timed("train", [&] { train.round(k, report); });
        timed("serve", [&] { serve.round(k, report); });
        timed("jobs", [&] { jobs.round(k, report); });
      }
      timed("train", [&] { train.finish(report, d); });
      timed("serve", [&] { serve.finish(report); });
      timed("jobs", [&] { jobs.finish(report, d); });
      double total = 0.0;
      for (const auto& [phase, s] : phase_s) total += s;
      std::string shares;
      for (const char* phase : {"setup", "train", "serve", "jobs"}) {
        shares += format("%s%s=%.1fs (%.0f%%)", shares.empty() ? "" : " ",
                         phase, phase_s[phase],
                         100.0 * phase_s[phase] / total);
      }
      report.config(Tracer::global().enabled() ? "phase_wall.traced"
                                               : "phase_wall",
                    shares);
    };

    run_pass(digests);
    if (!args.trace) {
      report.print(kEndToEnd);
      write_digests(args.digest_out, digests);
      return 0;
    }

    std::map<std::string, Metric> untraced;
    for (const auto& name : kEndToEnd) untraced[name] = report.get(name);
    Tracer::global().set_enabled(true);
    Digests traced_digests;
    run_pass(traced_digests);
    report.check(traced_digests == digests,
                 "acc_bim10, the gauntlet row and the job outputs repeat "
                 "byte for byte in the traced pass");
    for (const auto& name : kEndToEnd) {
      const Metric& t = report.get(name);
      report.metric("trace_overhead." + name, t.value - untraced[name].value,
                    t.unit, 1);
    }
    train.layers(report);
    serve.layers(report);
    jobs.layers(report);
    if (!args.trace_out.empty() &&
        !Tracer::global().write_json(args.trace_out)) {
      report.check(false, "span file written to " + args.trace_out);
    }
    std::vector<std::string> per_layer;
    for (const auto& [name, m] : report.metrics()) {
      if (std::find(kEndToEnd.begin(), kEndToEnd.end(), name) ==
          kEndToEnd.end()) {
        per_layer.push_back(name);
      }
    }
    report.print(per_layer);
    write_digests(args.digest_out, digests);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
