// Jobs phase: one fixed DAG of small deterministic CPU jobs, run through
// the in-process Supervisor, through the fork/exec Spooler (2 slots, each
// child re-entering this binary with a compute pool of 1), and resumed
// after an injected crash left the manifest mid-graph. Journals are the
// real durable ones (fsync included): users pay that cost.
//
// Graph (11 jobs, 4 levels):
//   g0 g1 g2 g3          independent generators
//   m0..m3               m_i <- g_i, g_(i+1 mod 4)
//   r0 <- m0 m1, r1 <- m2 m3
//   final <- r0 r1
// A job body folds its dependencies' output bytes into a seed and runs
// `work` rounds of splitmix64; it writes one line "<name> <hex digest>".
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "phases.h"
#include "runtime/manifest.h"
#include "runtime/process.h"
#include "runtime/spooler.h"
#include "runtime/supervisor.h"
#include "speed.h"
#include "stats.h"
#include "timing.h"
#include "trace.h"

namespace perfbench {

using namespace satd;
namespace fs = std::filesystem;

namespace {

struct JobDef {
  const char* name;
  std::vector<const char*> deps;
};

const std::vector<JobDef>& graph() {
  static const std::vector<JobDef> g = {
      {"g0", {}},           {"g1", {}},           {"g2", {}},
      {"g3", {}},           {"m0", {"g0", "g1"}}, {"m1", {"g1", "g2"}},
      {"m2", {"g2", "g3"}}, {"m3", {"g3", "g0"}}, {"r0", {"m0", "m1"}},
      {"r1", {"m2", "m3"}}, {"final", {"r0", "r1"}}};
  return g;
}

// The job the resume pass crashes: mid-graph, with level-0 work done and
// later levels still pending.
constexpr const char* kCrashJob = "m1";

std::string out_path(const std::string& dir, const std::string& job) {
  return dir + "/" + job + ".out";
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

const JobDef* find_def(const std::string& name) {
  for (const JobDef& d : graph()) {
    if (name == d.name) return &d;
  }
  return nullptr;
}

/// The job body; returns false when a dependency's output is missing.
bool run_body(const JobDef& def, const std::string& dir, std::uint64_t seed,
              std::size_t work) {
  std::uint64_t h = fnv1a(0xCBF29CE484222325ULL ^ seed, def.name);
  for (const char* dep : def.deps) {
    std::ifstream in(out_path(dir, dep), std::ios::binary);
    if (!in) return false;
    std::stringstream ss;
    ss << in.rdbuf();
    h = fnv1a(h, ss.str());
  }
  std::uint64_t state = h;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < work; ++i) acc ^= splitmix64(state);
  std::ofstream out(out_path(dir, def.name), std::ios::trunc);
  out << def.name << ' ' << format("%016llx", static_cast<unsigned long long>(acc))
      << '\n';
  return static_cast<bool>(out);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Every job's output bytes, concatenated in graph order.
std::string graph_outputs(const std::string& dir) {
  std::string all;
  for (const JobDef& d : graph()) all += read_file(out_path(dir, d.name));
  return all;
}

std::vector<runtime::Job> make_jobs(
    const std::string& dir, std::uint64_t seed, std::size_t work,
    std::vector<double>* body_s) {
  std::vector<runtime::Job> jobs;
  for (std::size_t i = 0; i < graph().size(); ++i) {
    const JobDef& def = graph()[i];
    runtime::Job job;
    job.name = def.name;
    for (const char* d : def.deps) job.deps.emplace_back(d);
    job.outputs = {out_path(dir, def.name)};
    job.run = [&def, dir, seed, work, body_s, i](runtime::JobContext&) {
      Span span(std::string("runtime.body.") + def.name);
      Stopwatch watch;
      const bool ok = run_body(def, dir, seed, work);
      if (body_s != nullptr) (*body_s)[i] = watch.seconds();
      return ok ? runtime::JobResult::ok()
                : runtime::JobResult::failed("missing dependency output");
    };
    jobs.push_back(std::move(job));
  }
  return jobs;
}

runtime::Supervisor::Options supervisor_options(const std::string& dir,
                                                std::uint64_t seed) {
  runtime::Supervisor::Options o;
  o.manifest_path = dir + "/manifest.bin";
  o.fingerprint = "perfbench-jobs-" + std::to_string(seed);
  return o;
}

/// Spawns `argv` and waits for it to exit; returns spawn-to-exit seconds
/// and whether it exited 0.
std::pair<double, bool> spawn_and_wait(const std::vector<std::string>& argv) {
  runtime::ForkExecRunner& runner = runtime::ForkExecRunner::instance();
  runtime::SpawnSpec spec;
  spec.argv = argv;
  Stopwatch watch;
  const runtime::ProcessId id = runner.spawn(spec);
  runtime::ChildStatus st = runner.poll(id);
  while (st.running) {
    SystemClock::instance().sleep_for(0.0002);
    st = runner.poll(id);
  }
  return {watch.seconds(), !st.signaled && st.exit_code == 0};
}

std::size_t count_done(const runtime::MatrixReport& rep) {
  std::size_t done = 0;
  for (const auto& j : rep.jobs) done += j.state == runtime::JobState::kDone;
  return done;
}

}  // namespace

JobsPhase::JobsPhase(const RunContext& ctx) : ctx_(ctx) {}

std::string JobsPhase::fresh_dir(const std::string& tag) {
  const std::string dir =
      ctx_.tmp_dir + "/jobs-" + tag + "-" + std::to_string(dir_counter_++);
  fs::create_directories(dir);
  return dir;
}

int JobsPhase::run_child(const std::string& job, const std::string& dir,
                         std::uint64_t seed, std::size_t work) {
  const JobDef* def = find_def(job);
  if (def == nullptr) return 2;
  return run_body(*def, dir, seed, work) ? 0 : 1;
}

void JobsPhase::setup() {
  // Graph build (validated against a throwaway supervisor) and one
  // warm-up spawn of this binary, so the first timed spawn does not pay
  // for paging the executable in.
  const std::string dir = fresh_dir("setup");
  runtime::Supervisor sup(supervisor_options(dir, ctx_.seed));
  for (auto& j : make_jobs(dir, ctx_.seed, kWork, nullptr)) {
    sup.add(std::move(j));
  }
  Span span("runtime.spawn.warmup");
  spawn_and_wait({ctx_.exe, "--noop"});
  supervisor_s_.clear();
  supervisor_ref_s_.clear();
  spooler_s_.clear();
  resume_s_.clear();
  sup_overhead_s_.clear();
  spooled_wall_.clear();
  body_s_.assign(graph().size(), 0.0);
  body_samples_ = 0;
  reference_.clear();
}

void JobsPhase::round(std::size_t, Report& r) {
  const IdleKeeper keeper(kIdleKeepers);
  const std::size_t n = graph().size();
  // In-process supervisor.
  {
    const std::string dir = fresh_dir("supervisor");
    std::vector<double> body(n, 0.0);
    runtime::Supervisor sup(supervisor_options(dir, ctx_.seed));
    for (auto& j : make_jobs(dir, ctx_.seed, kWork, &body)) {
      sup.add(std::move(j));
    }
    // The supervisor runs every job body on this thread, so the host
    // speed on this thread's CPU is the speed of the whole pass.
    const SpeedMonitor monitor;
    const double t0 = Tracer::now();
    runtime::MatrixReport report;
    {
      Span span("runtime.supervisor.run");
      report = sup.run();
    }
    const double t1 = Tracer::now();
    const double makespan = t1 - t0;
    supervisor_s_.push_back(makespan);
    supervisor_ref_s_.push_back(monitor.reference_seconds(t0, t1));
    double body_sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      body_sum += body[i];
      body_s_[i] += body[i];
    }
    ++body_samples_;
    sup_overhead_s_.push_back((makespan - body_sum) / static_cast<double>(n));
    const std::size_t done = count_done(report);
    r.operations(n, n - done);
    const std::string outputs = graph_outputs(dir);
    if (reference_.empty()) reference_ = outputs;
    r.check(done == n && outputs == reference_,
            "supervisor run: every job DONE with the reference outputs");
  }
  // Fork/exec spooler.
  {
    const std::string dir = fresh_dir("spooler");
    runtime::Spooler::Options o;
    o.manifest_path = dir + "/manifest.bin";
    o.fingerprint = "perfbench-jobs-" + std::to_string(ctx_.seed);
    o.slots = kSlots;
    o.log_dir = dir + "/logs";
    const std::string seed = std::to_string(ctx_.seed);
    const std::string work = std::to_string(kWork);
    runtime::Spooler sp(o, [&](const runtime::Job& job, std::size_t) {
      runtime::SpawnSpec spec;
      spec.argv = {ctx_.exe, "--run-job", job.name, "--job-dir", dir,
                   "--seed",  seed,     "--work",  work};
      spec.env = {{"SATD_THREADS", std::to_string(kChildThreads)}};
      return spec;
    });
    for (auto& j : make_jobs(dir, ctx_.seed, kWork, nullptr)) {
      sp.add(std::move(j));
    }
    Stopwatch watch;
    runtime::MatrixReport report;
    {
      Span span("runtime.spooler.run");
      report = sp.run();
    }
    spooler_s_.push_back(watch.seconds());
    for (const JobDef& d : graph()) {
      double wall = 0.0;
      for (const auto& j : report.jobs) {
        if (j.name == d.name) wall = j.usage.wall_seconds;
      }
      spooled_wall_.push_back(wall);
    }
    const std::size_t done = count_done(report);
    r.operations(n, n - done);
    r.check(done == n && graph_outputs(dir) == reference_,
            "spooler run: every job DONE with the reference outputs");
  }
  // Crash mid-graph, then resume from the journal.
  {
    const std::string dir = fresh_dir("resume");
    bool crashed = false;
    runtime::fault::arm_job_crash(kCrashJob);
    try {
      runtime::Supervisor sup(supervisor_options(dir, ctx_.seed));
      for (auto& j : make_jobs(dir, ctx_.seed, kWork, nullptr)) {
        sup.add(std::move(j));
      }
      sup.run();
    } catch (const runtime::SimulatedCrashError&) {
      crashed = true;
    }
    runtime::fault::disarm();
    runtime::Supervisor sup(supervisor_options(dir, ctx_.seed));
    for (auto& j : make_jobs(dir, ctx_.seed, kWork, nullptr)) {
      sup.add(std::move(j));
    }
    Stopwatch watch;
    runtime::MatrixReport report;
    {
      Span span("runtime.resume.run");
      report = sup.run();
    }
    resume_s_.push_back(watch.seconds());
    const std::size_t done = count_done(report);
    r.operations(n, n - done);
    r.check(crashed && done == n && graph_outputs(dir) == reference_,
            "resumed graph: crash fired, every job DONE, outputs "
            "byte-identical to the uninterrupted run");
  }
}

void JobsPhase::finish(Report& r, Digests& digests) {
  r.metric("jobs.makespan_s.supervisor", median(supervisor_ref_s_), "s",
           supervisor_ref_s_.size());
  r.config("wall.jobs.makespan_s.supervisor",
           format("%.6f", median(supervisor_s_)));
  r.metric("jobs.makespan_s.spooler", median(spooler_s_), "s",
           spooler_s_.size());
  digests["jobs.outputs"] = reference_;
}

void JobsPhase::layers(Report& r) {
  const std::size_t n = graph().size();
  r.metric("runtime.job_overhead_ms.supervisor",
           median(sup_overhead_s_) * 1e3, "ms", sup_overhead_s_.size());
  {
    // Spawn-to-reap wall time of a spooled job minus the mean in-process
    // time of the same body.
    std::vector<double> overhead;
    for (std::size_t k = 0; k < spooled_wall_.size(); ++k) {
      const double body =
          body_s_[k % n] / static_cast<double>(body_samples_);
      overhead.push_back((spooled_wall_[k] - body) * 1e3);
    }
    r.metric("runtime.job_overhead_ms.spooler", median(overhead), "ms",
             overhead.size());
    std::vector<double> idle;
    for (std::size_t rep = 0; rep < spooler_s_.size(); ++rep) {
      double busy = 0.0;
      for (std::size_t i = 0; i < n; ++i) busy += spooled_wall_[rep * n + i];
      idle.push_back(1.0 - busy / (spooler_s_[rep] *
                                   static_cast<double>(kSlots)));
    }
    r.metric("runtime.idle_share.spooler", median(idle), "fraction",
             idle.size());
  }
  r.metric("runtime.resume_s", median(resume_s_), "s", resume_s_.size());
  {
    const std::string dir = fresh_dir("record");
    runtime::Manifest manifest(dir + "/manifest.bin", "perfbench-record");
    std::size_t k = 0;
    const double s = time_calls("runtime.manifest_record", 30, 0.1, [&] {
      manifest.record(runtime::JobRecord(
          "job" + std::to_string(k++ % n), runtime::JobState::kDone, 1, "",
          {}));
    }, 200);
    r.metric("runtime.manifest_record_us", s * 1e6, "us",
             Tracer::global().durations("runtime.manifest_record").size());
  }
  {
    std::vector<double> spawn;
    bool ok = true;
    for (int i = 0; i < 9; ++i) {
      Span span("runtime.spawn");
      const auto [s, exited_ok] = spawn_and_wait({ctx_.exe, "--noop"});
      spawn.push_back(s);
      ok = ok && exited_ok;
    }
    r.check(ok, "no-op child spawns exit 0");
    r.metric("runtime.spawn_ms", median(spawn) * 1e3, "ms", spawn.size());
  }
}

}  // namespace perfbench
