// Serve phase: one adaptive b8 serving worker with a compute pool of 1.
//
//   light / heavy — seeded Poisson open loops at 1000 and 4000 rps, each
//                   request timed from its SCHEDULED send to resolve.
//   ladder        — open-loop rungs of increasing rate until one fails
//                   (p50 over the limit, <99.9% served, or achieved rate
//                   <0.95x offered), refined by geometric bisection
//                   between the last passing and the first failing rung.
//                   A ladder whose top rung passes is an error.
//   socket        — closed loop over a unix socket: a 2-shard router
//                   behind the front end, 2 client threads with one
//                   connection each.
//
// Every round runs several short windows of each load and one ladder;
// the end-to-end metrics are medians over windows and ladders, so a
// stall that hits a few windows does not move them.
//
// Every served answer is compared with metrics::predict_into on the same
// image (the offline path): a wrong argmax counts as a miss.
#include <algorithm>
#include <cmath>
#include <thread>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "metrics/evaluator.h"
#include "net/client.h"
#include "net/frontend.h"
#include "net/wire.h"
#include "nn/loss.h"
#include "nn/zoo.h"
#include "phases.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/shard_router.h"
#include "speed.h"
#include "stats.h"
#include "timing.h"
#include "trace.h"

namespace perfbench {

using namespace satd;

namespace {

constexpr std::size_t kImages = 256;
constexpr double kLightRps = 1000.0;
constexpr double kHeavyRps = 4000.0;
constexpr double kLadderBase = 4000.0;
constexpr double kLadderRatio = 1.25;
// Coarse rungs either way from the base: 4000 * 1.25^+-10 spans 430 to
// 37k rps.
constexpr std::size_t kLadderMaxRungs = 10;
constexpr std::size_t kBisections = 2;
constexpr std::size_t kWarmup = 64;
// Capacity window: 3600 requests offered at 30000 rps, about three times
// what one worker serves on the 4-vCPU host, all of which fit in the
// queue, so the worker never idles until the backlog is drained.
constexpr double kSaturationRps = 30000.0;
constexpr double kSaturationS = 0.12;
// A window whose achieved rate reaches this share of the offered rate
// did not saturate the worker: its rate is not a capacity.
constexpr double kSaturatedBelow = 0.8;

serve::ServerConfig server_config() {
  serve::ServerConfig cfg;
  cfg.workers = ServePhase::kWorkers;
  cfg.batch.max_batch = ServePhase::kMaxBatch;
  cfg.batch.adaptive = true;
  // Overload must show as latency and a falling achieved rate, not be
  // hidden by early queue-full refusals.
  cfg.queue.capacity = 4096;
  return cfg;
}

/// The front end's view of a shard router.
net::FrontEndSink router_sink(serve::ShardRouter& router) {
  net::FrontEndSink sink;
  sink.submit = [&router](const Tensor& image, double timeout,
                          std::uint64_t key, std::uint32_t* shard,
                          std::uint64_t* id) {
    return router.submit(image, timeout, key, shard, id);
  };
  sink.cancel = [&router](std::uint32_t shard, std::uint64_t id) {
    return router.cancel(shard, id);
  };
  sink.tick = [&router] { router.tick(); };
  return sink;
}

}  // namespace

/// Outcome of one open-loop window.
struct OpenLoop {
  double offered_rps = 0.0;
  std::vector<OpenLoopSample> samples;  // served requests only
  std::vector<std::size_t> batch_sizes;
  std::vector<double> server_latency;
  std::size_t attempted = 0;
  std::size_t served = 0;
  std::size_t refused = 0;  // typed serve errors
  std::size_t wrong = 0;    // served, but argmax differs from offline
  std::size_t max_queue_depth = 0;
  double cpu_s = 0.0;
  double first_scheduled = 0.0;
  double last_resolved = 0.0;

  std::size_t misses() const { return refused + wrong; }
  /// Pools another window of the same load into this one.
  void merge(const OpenLoop& o) {
    offered_rps = o.offered_rps;
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
    batch_sizes.insert(batch_sizes.end(), o.batch_sizes.begin(),
                       o.batch_sizes.end());
    server_latency.insert(server_latency.end(), o.server_latency.begin(),
                          o.server_latency.end());
    attempted += o.attempted;
    served += o.served;
    refused += o.refused;
    wrong += o.wrong;
    max_queue_depth = std::max(max_queue_depth, o.max_queue_depth);
    cpu_s += o.cpu_s;
  }
  double achieved_rps() const {
    const double span = last_resolved - first_scheduled;
    return span > 0 ? static_cast<double>(served) / span : 0.0;
  }
  std::vector<double> latencies() const {
    std::vector<double> v;
    v.reserve(samples.size());
    for (const auto& s : samples) v.push_back(s.latency());
    return v;
  }
  std::vector<double> lateness() const {
    std::vector<double> v;
    v.reserve(samples.size());
    for (const auto& s : samples) v.push_back(s.lateness());
    return v;
  }
};

struct SocketLoop {
  std::vector<double> client_s;  // client-observed, ok requests
  std::vector<double> server_s;  // ClientResult.latency, same requests
  std::size_t attempted = 0;
  std::size_t ok = 0;
  std::size_t wrong = 0;
  std::size_t retries = 0;
  double elapsed = 0.0;
  std::uint64_t wire_errors = 0;
  std::size_t misses() const { return attempted - ok + wrong; }
  /// Pools another window into this one.
  void merge(const SocketLoop& o) {
    client_s.insert(client_s.end(), o.client_s.begin(), o.client_s.end());
    server_s.insert(server_s.end(), o.server_s.begin(), o.server_s.end());
    attempted += o.attempted;
    ok += o.ok;
    wrong += o.wrong;
    retries += o.retries;
    wire_errors += o.wire_errors;
  }
};

struct ServeState {
  serve::ModelRegistry registry;
  nn::Sequential model;
  std::vector<Tensor> images;        // [1, 28, 28] each
  std::vector<std::size_t> offline;  // predict_into argmax per image
  OpenLoop light, heavy;
  std::vector<double> light_p50, heavy_p50;  // per window, seconds
  std::vector<double> ladder_max;
  std::vector<double> capacity;       // reference rps (speed.h), per round
  std::vector<double> capacity_wall;  // achieved rps, per round
  std::size_t unsaturated = 0;        // capacity windows that kept up
  OpenLoop saturated;                 // capacity windows, pooled
  const IdleKeeper* keeper = nullptr;  // the round's spinners
  SocketLoop socket;
  std::vector<double> socket_p50;  // per window, seconds
  std::vector<double> socket_rps;  // per window
  std::uint64_t next_request = 1;
};

ServePhase::ServePhase(const RunContext& ctx, ServeSizes sizes)
    : ctx_(ctx), sizes_(sizes) {}

ServePhase::~ServePhase() = default;

namespace {

/// One open-loop window at `rps` for `seconds` against a fresh server,
/// whose worker is pinned to `worker_cpu` when that is not -1.
OpenLoop run_open_loop(ServeState& st, double rps, double seconds,
                       std::uint64_t seed, const char* span_name,
                       int worker_cpu = -1) {
  const std::vector<Tensor>& images = st.images;
  // The whole schedule is drawn before the server starts.
  Rng rng(seed);
  const auto n = static_cast<std::size_t>(std::ceil(rps * seconds));
  std::vector<double> due(n);
  std::vector<std::size_t> which(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += -std::log(1.0 - rng.uniform()) / rps;
    due[i] = t;
    which[i] = rng.uniform_index(images.size());
  }

  serve::Server server(st.registry, server_config());
  if (worker_cpu >= 0) {
    run_pinned(worker_cpu, [&server] { server.start(); });
  } else {
    server.start();
  }
  for (std::size_t i = 0; i < kWarmup; ++i) {
    server.submit(images[i % images.size()]).wait();
  }

  OpenLoop out;
  // The rate this window's Poisson draw actually offers (a short window
  // strays from the nominal rate by a few percent).
  out.offered_rps = n > 1 ? static_cast<double>(n - 1) / (due[n - 1] - due[0])
                          : rps;
  out.attempted = n;
  std::vector<serve::Ticket> tickets;
  std::vector<double> sent(n);
  std::vector<std::uint64_t> request_ids(n);
  tickets.reserve(n);
  SystemClock& clock = SystemClock::instance();
  const CpuSample cpu0 = process_cpu();
  const CpuSample gen0 = thread_cpu();
  const double keep0 = st.keeper != nullptr ? st.keeper->cpu_seconds() : 0.0;
  const double t0 = clock.now();
  for (std::size_t i = 0; i < n; ++i) {
    // Sleep until 1 ms before the send is due, then spin: a sleeping
    // generator wakes late by the host's timer slack, which would put
    // the load generator's noise into every latency.
    const double target = t0 + due[i];
    for (double now = clock.now(); now < target; now = clock.now()) {
      if (target - now > 2e-3) clock.sleep_for(target - now - 1e-3);
    }
    request_ids[i] = st.next_request++;
    Span span(span_name, request_ids[i]);
    sent[i] = clock.now();
    tickets.push_back(server.submit(images[which[i]]));
  }
  out.first_scheduled = t0 + due[0];
  for (std::size_t i = 0; i < n; ++i) {
    const serve::Response resp = tickets[i].wait();
    if (resp.error != serve::ServeError::kNone) {
      ++out.refused;
      continue;
    }
    ++out.served;
    if (resp.predicted != st.offline[which[i]]) ++out.wrong;
    const OpenLoopSample s{t0 + due[i], sent[i], sent[i] + resp.latency};
    out.samples.push_back(s);
    out.batch_sizes.push_back(resp.batch_size);
    out.server_latency.push_back(resp.latency);
    out.last_resolved = std::max(out.last_resolved, s.resolved);
    Span::record("serve.request", s.scheduled, s.resolved, request_ids[i]);
  }
  // Serving CPU: the whole process minus the generator (this thread) and
  // the idle spinners.
  const double keep1 = st.keeper != nullptr ? st.keeper->cpu_seconds() : 0.0;
  out.cpu_s = (process_cpu().cpu_s - cpu0.cpu_s) -
              (thread_cpu().cpu_s - gen0.cpu_s) - (keep1 - keep0);
  out.max_queue_depth = server.stats().snapshot().max_queue_depth;
  server.drain();
  return out;
}

}  // namespace

void ServePhase::setup() {
  st_ = std::make_unique<ServeState>();
  Rng init(ctx_.seed * 1000003ULL + 300);
  st_->model = nn::zoo::build("cnn_small", init);
  st_->registry.publish("default", st_->model, "cnn_small");
  Rng draw(ctx_.seed ^ 0x5E7E5EEDULL);
  Tensor batch(Shape{kImages, 1, 28, 28});
  for (std::size_t i = 0; i < kImages; ++i) {
    Tensor img = data::render_digit(i % 10, draw);
    batch.set_row(i, img);
    st_->images.push_back(std::move(img));
  }
  Tensor logits;
  metrics::predict_into(st_->model, batch, 64, logits, st_->offline);

  // Bring the serving stack up once: a server, and a router behind the
  // front end on a unix socket.
  {
    serve::Server server(st_->registry, server_config());
    server.start();
    server.drain();
  }
  serve::RouterConfig rc;
  rc.shards = kShards;
  rc.server = server_config();
  serve::ShardRouter router(rc);
  router.publish(st_->model, "cnn_small");
  router.start();
  net::FrontEndConfig fc;
  fc.listen.kind = env::ListenAddress::Kind::kUnix;
  fc.listen.path = ctx_.tmp_dir + "/setup.sock";
  net::FrontEnd fe(fc, router_sink(router));
  fe.start();
  fe.stop();
  router.drain();
}

namespace {

/// One capacity ladder. From kLadderBase it climbs by kLadderRatio while
/// rungs pass; if the base rung already fails (a slow moment of the
/// host, or a slower build), it descends until a rung passes. Then it
/// bisects between the highest passing and the lowest failing rate.
/// Returns the achieved rate of the highest passing rung.
double run_ladder(ServeState& st, const ServeSizes& sizes,
                  std::uint64_t seed) {
  // Its requests are probes of where the server fails, so they are not
  // counted as operations.
  const LadderCriteria criteria;
  auto rung = [&](double rate) {
    const OpenLoop ol =
        run_open_loop(st, rate, sizes.rung_s, seed++, "serve.submit.ladder");
    Rung rg;
    rg.offered_rps = ol.offered_rps;
    rg.attempted = ol.attempted;
    rg.served = ol.served - ol.wrong;
    rg.achieved_rps = ol.achieved_rps();
    rg.p50_s = ol.samples.empty() ? 1e9 : median(ol.latencies());
    return rg;
  };
  // Coarse rungs and their nominal rates, in increasing rate.
  std::vector<Rung> coarse = {rung(kLadderBase)};
  std::vector<double> nominal = {kLadderBase};
  if (rung_passes(coarse[0], criteria)) {
    for (double rate = kLadderBase * kLadderRatio;
         coarse.size() <= kLadderMaxRungs &&
         rung_passes(coarse.back(), criteria);
         rate *= kLadderRatio) {
      coarse.push_back(rung(rate));
      nominal.push_back(rate);
    }
  } else {
    for (double rate = kLadderBase / kLadderRatio;
         coarse.size() <= kLadderMaxRungs &&
         !rung_passes(coarse.front(), criteria);
         rate /= kLadderRatio) {
      coarse.insert(coarse.begin(), rung(rate));
      nominal.insert(nominal.begin(), rate);
    }
  }
  const LadderVerdict verdict = judge_ladder(coarse, criteria);
  double best = verdict.max_rps;
  double lo = nominal[verdict.best];
  double hi = lo * kLadderRatio;
  for (std::size_t b = 0; b < kBisections; ++b) {
    const double mid = std::sqrt(lo * hi);
    const Rung rg = rung(mid);
    if (rung_passes(rg, criteria)) {
      lo = mid;
      best = rg.achieved_rps;
    } else {
      hi = mid;
    }
  }
  return best;
}

/// One closed-loop window over the socket: a fresh 2-shard router
/// behind a fresh front end, kConnections clients.
SocketLoop run_socket(ServeState& st, const ServeSizes& sizes,
                      const std::string& socket_path, std::uint64_t seed) {
  serve::RouterConfig rc;
  rc.shards = ServePhase::kShards;
  rc.server = server_config();
  serve::ShardRouter router(rc);
  router.publish(st.model, "cnn_small");
  router.start();
  net::FrontEndConfig fc;
  fc.listen.kind = env::ListenAddress::Kind::kUnix;
  fc.listen.path = socket_path;
  net::FrontEnd fe(fc, router_sink(router));
  fe.start();

  std::vector<SocketLoop> per_client(ServePhase::kConnections);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < per_client.size(); ++c) {
    clients.emplace_back([&, c] {
      net::ClientConfig cc;
      cc.endpoints = {fc.listen};
      net::Client client(cc);
      SocketLoop& out = per_client[c];
      Rng pick(seed * 31 + c);
      for (std::size_t i = 0; i < kWarmup / 4; ++i) {
        client.request(st.images[i]);
      }
      Stopwatch watch;
      while (watch.seconds() < sizes.socket_s) {
        const std::size_t which = pick.uniform_index(st.images.size());
        const double t0 = Tracer::now();
        net::ClientResult res;
        {
          Span span("net.client.request");
          res = client.request(st.images[which]);
        }
        const double dt = Tracer::now() - t0;
        ++out.attempted;
        out.retries += res.attempts > 0 ? res.attempts - 1 : 0;
        if (!res.ok() || res.serve_error != serve::ServeError::kNone) continue;
        ++out.ok;
        if (res.predicted != st.offline[which]) ++out.wrong;
        out.client_s.push_back(dt);
        out.server_s.push_back(res.latency);
      }
      out.elapsed = watch.seconds();
    });
  }
  for (auto& t : clients) t.join();
  SocketLoop all;
  for (const SocketLoop& c : per_client) {
    all.client_s.insert(all.client_s.end(), c.client_s.begin(),
                        c.client_s.end());
    all.server_s.insert(all.server_s.end(), c.server_s.begin(),
                        c.server_s.end());
    all.attempted += c.attempted;
    all.ok += c.ok;
    all.wrong += c.wrong;
    all.retries += c.retries;
    all.elapsed = std::max(all.elapsed, c.elapsed);
  }
  all.wire_errors = fe.stats().wire_errors;
  fe.stop();
  router.drain();
  return all;
}

}  // namespace

void ServePhase::round(std::size_t k, Report& r) {
  ThreadPool::set_global_threads(1);
  const IdleKeeper keeper(kIdleKeepers);
  ServeState& st = *st_;
  st.keeper = &keeper;
  const std::uint64_t seed = ctx_.seed * 1009 + k * 97;
  for (std::size_t w = 0; w < sizes_.windows; ++w) {
    const std::uint64_t ws = seed + 10 * w;
    const OpenLoop light = run_open_loop(st, kLightRps, sizes_.light_s,
                                        ws + 1, "serve.submit.light");
    const OpenLoop heavy = run_open_loop(st, kHeavyRps, sizes_.heavy_s,
                                        ws + 2, "serve.submit.heavy");
    const SocketLoop socket =
        run_socket(st, sizes_, ctx_.tmp_dir + "/serve.sock", ws + 3);
    for (const OpenLoop* ol : {&light, &heavy}) {
      r.operations(ol->attempted, ol->misses());
    }
    r.operations(socket.attempted, socket.misses());
    st.light_p50.push_back(median(light.latencies()));
    st.heavy_p50.push_back(median(heavy.latencies()));
    st.socket_p50.push_back(median(socket.client_s));
    st.socket_rps.push_back(static_cast<double>(socket.ok) / socket.elapsed);
    st.light.merge(light);
    st.heavy.merge(heavy);
    st.socket.merge(socket);
  }
  // The ladder is a per-layer metric (README.md): every other round.
  if (k % 2 == 1) {
    st.ladder_max.push_back(run_ladder(st, sizes_, seed + 100));
  }

  // Capacity: the worker saturated, pinned to a CPU the generator is not
  // on, with that CPU's speed sampled, so the served rate converts to the
  // reference speed.
  {
    const int cpu = other_cpu();
    const SpeedMonitor monitor(cpu);
    const OpenLoop sat =
        run_open_loop(st, kSaturationRps, kSaturationS, seed + 200,
                      "serve.submit.capacity", cpu);
    r.operations(sat.attempted, sat.misses());
    st.capacity.push_back(static_cast<double>(sat.served) /
                          monitor.reference_seconds(sat.first_scheduled,
                                                    sat.last_resolved));
    st.capacity_wall.push_back(sat.achieved_rps());
    if (sat.achieved_rps() >= kSaturatedBelow * sat.offered_rps) {
      ++st.unsaturated;
    }
    st.saturated.merge(sat);
  }
  st.keeper = nullptr;
}

void ServePhase::finish(Report& r) {
  ServeState& st = *st_;
  for (const OpenLoop* ol : {&st.light, &st.heavy}) {
    const bool light = ol == &st.light;
    const std::vector<double>& p50 = light ? st.light_p50 : st.heavy_p50;
    r.metric(light ? "serve.p50_ms.light" : "serve.p50_ms.heavy",
             median(p50) * 1e3, "ms", p50.size());
    r.check(ol->wrong == 0,
            format("in-process answers equal offline predict_into (%zu of "
                   "%zu differ, %s load)",
                   ol->wrong, ol->served, light ? "light" : "heavy"));
  }
  r.metric("serve.max_rps", median(st.ladder_max), "1/s",
           st.ladder_max.size());
  r.metric("serve.capacity_rps", median(st.capacity), "1/s",
           st.capacity.size());
  r.config("wall.serve.capacity_rps", format("%.1f", median(st.capacity_wall)));
  r.check(st.unsaturated == 0,
          format("every capacity window saturated the worker (achieved < "
                 "%.1fx offered; %zu of %zu did not)",
                 kSaturatedBelow, st.unsaturated, st.capacity.size()));
  r.check(st.saturated.wrong == 0 && st.saturated.refused == 0,
          format("capacity windows: every request served, answers equal "
                 "offline predict_into (%zu refused, %zu differ)",
                 st.saturated.refused, st.saturated.wrong));
  r.metric("socket.p50_ms", median(st.socket_p50) * 1e3, "ms",
           st.socket_p50.size());
  r.metric("socket.rps", median(st.socket_rps), "1/s", st.socket_rps.size());
  r.check(st.socket.wrong == 0,
          format("socket answers equal offline predict_into (%zu of %zu "
                 "differ)",
                 st.socket.wrong, st.socket.ok));
}

void ServePhase::layers(Report& r) {
  ServeState& st = *st_;
  ThreadPool::set_global_threads(1);

  // Forward cost per batch size, exactly the microbatcher's path.
  const serve::SnapshotPtr snap = st.registry.current("default");
  nn::Sequential replica = serve::ModelRegistry::instantiate(*snap);
  std::map<std::size_t, double> forward_s;
  for (std::size_t b : {1, 2, 4, 8}) {
    Tensor xb(Shape{b, 1, 28, 28});
    for (std::size_t i = 0; i < b; ++i) xb.set_row(i, st.images[i]);
    Tensor logits, probs;
    std::vector<std::size_t> preds;
    const std::string name = "serve.forward.b" + std::to_string(b);
    forward_s[b] = time_calls(name, 200, 0.05, [&] {
      metrics::predict_into(replica, xb, b, logits, preds);
      nn::softmax_into(logits, probs);
    });
    r.metric("serve.forward_us.b" + std::to_string(b), forward_s[b] * 1e6,
             "us", Tracer::global().durations(name).size());
  }
  auto forward_at = [&](std::size_t b) {
    auto it = forward_s.lower_bound(b);
    return it == forward_s.end() ? forward_s.rbegin()->second : it->second;
  };

  std::size_t rejected = 0, misses = 0, max_depth = 0;
  for (const OpenLoop* ol : {&st.light, &st.heavy}) {
    const std::string tag = ol == &st.light ? "light" : "heavy";
    std::vector<double> queue_ms;
    double batch_sum = 0.0;
    for (std::size_t i = 0; i < ol->samples.size(); ++i) {
      queue_ms.push_back(
          (ol->server_latency[i] - forward_at(ol->batch_sizes[i])) * 1e3);
      batch_sum += static_cast<double>(ol->batch_sizes[i]);
    }
    const auto n = ol->samples.size();
    r.metric("serve.queue_ms." + tag, median(queue_ms), "ms", n);
    r.metric("serve.mean_batch." + tag, batch_sum / static_cast<double>(n),
             "count", n);
    r.metric("serve.cpu_ms_per_req." + tag,
             ol->cpu_s * 1e3 / static_cast<double>(ol->attempted), "ms",
             ol->attempted);
    const auto p99 = tail_percentile(ol->latencies());
    r.check(p99 && p99->p >= 0.99,
            "serve." + tag + " has at least 10 samples beyond p99");
    r.metric("serve.p99_ms." + tag, percentile(ol->latencies(), 0.99) * 1e3,
             "ms", n);
    r.metric("serve.gen_late_ms.p99." + tag,
             percentile(ol->lateness(), 0.99) * 1e3, "ms", n);
    rejected += ol->refused;
    misses += ol->misses();
    max_depth = std::max(max_depth, ol->max_queue_depth);
  }
  misses += st.socket.misses();
  r.metric("serve.rejected", static_cast<double>(rejected), "count", 1);
  r.metric("serve.misses", static_cast<double>(misses), "count", 1);
  r.metric("serve.max_queue_depth", static_cast<double>(max_depth), "count",
           1);
  {
    std::vector<double> submit;
    for (const char* name : {"serve.submit.light", "serve.submit.heavy"}) {
      const auto d = Tracer::global().durations(name);
      submit.insert(submit.end(), d.begin(), d.end());
    }
    r.metric("serve.submit_us.p50", median(submit) * 1e6, "us",
             submit.size());
  }

  // Idle cost of one started server with no load.
  {
    serve::Server server(st.registry, server_config());
    server.start();
    SystemClock::instance().sleep_for(0.05);
    const CpuSample c0 = process_cpu();
    Stopwatch watch;
    SystemClock::instance().sleep_for(sizes_.idle_s);
    const CpuSample c1 = process_cpu();
    const double s = watch.seconds();
    server.drain();
    r.metric("serve.idle_cpu_ms_per_s", (c1.cpu_s - c0.cpu_s) * 1e3 / s,
             "ms/s", 1);
    r.metric("serve.idle_wakeups_per_s",
             static_cast<double>(c1.voluntary_switches -
                                 c0.voluntary_switches) /
                 s,
             "1/s", 1);
  }

  // ---- net ----
  {
    net::RequestFrame req;
    req.request_id = 7;
    req.image = st.images[0];
    net::ResponseFrame resp;
    resp.request_id = 7;
    resp.probabilities.assign(10, 0.1f);
    std::string req_bytes, resp_bytes;
    const double enc_req = time_calls("net.encode_request", 500, 0.05, [&] {
      req_bytes = net::encode_request(req);
    });
    const double enc_resp = time_calls("net.encode_response", 500, 0.05, [&] {
      resp_bytes = net::encode_response(resp);
    });
    // The codecs take the payload: strip the frame header and trailer.
    const std::string req_payload = req_bytes.substr(
        net::kHeaderBytes,
        req_bytes.size() - net::kHeaderBytes - net::kTrailerBytes);
    const std::string resp_payload = resp_bytes.substr(
        net::kHeaderBytes,
        resp_bytes.size() - net::kHeaderBytes - net::kTrailerBytes);
    net::RequestFrame req_out;
    net::ResponseFrame resp_out;
    std::string err;
    bool ok = true;
    const double dec_req = time_calls("net.decode_request", 500, 0.05, [&] {
      ok = net::decode_request(req_payload, req_out, err) && ok;
    });
    const double dec_resp = time_calls("net.decode_response", 500, 0.05, [&] {
      ok = net::decode_response(resp_payload, resp_out, err) && ok;
    });
    r.check(ok && req_out.request_id == 7 && resp_out.request_id == 7,
            "wire codecs round-trip a request and a response: " + err);
    r.metric("net.encode_request_us", enc_req * 1e6, "us", 500);
    r.metric("net.encode_response_us", enc_resp * 1e6, "us", 500);
    r.metric("net.decode_request_us", dec_req * 1e6, "us", 500);
    r.metric("net.decode_response_us", dec_resp * 1e6, "us", 500);
  }
  {
    std::vector<double> overhead;
    for (std::size_t i = 0; i < st.socket.client_s.size(); ++i) {
      overhead.push_back(st.socket.client_s[i] - st.socket.server_s[i]);
    }
    // overhead_i = client_i - server_i by definition, so this check is no
    // independent measurement: it shows that the three medians agree,
    // i.e. that no class of requests skews one distribution alone.
    const double o50 = median(overhead);
    const double s50 = median(st.socket.server_s);
    const double c50 = median(st.socket.client_s);
    r.metric("net.overhead_ms.p50", o50 * 1e3, "ms", overhead.size());
    r.check(std::abs(o50 + s50 - c50) <= 0.25 * c50,
            format("net overhead p50 %.3f ms + server p50 %.3f ms matches "
                   "client-observed p50 %.3f ms (tolerance 25%%)",
                   o50 * 1e3, s50 * 1e3, c50 * 1e3));
    r.metric("net.retries", static_cast<double>(st.socket.retries), "count",
             st.socket.attempted);
    r.metric("net.wire_errors", static_cast<double>(st.socket.wire_errors),
             "count", 1);
    r.metric("socket.p99_ms", percentile(st.socket.client_s, 0.99) * 1e3,
             "ms", st.socket.client_s.size());
  }
  // Idle cost of the front end's event loop alone (no shards behind it).
  {
    net::FrontEndConfig fc;
    fc.listen.kind = env::ListenAddress::Kind::kUnix;
    fc.listen.path = ctx_.tmp_dir + "/idle.sock";
    net::FrontEndSink sink;
    sink.submit = [](const Tensor&, double, std::uint64_t, std::uint32_t*,
                     std::uint64_t*) {
      return serve::rejected_ticket(serve::ServeError::kStopping);
    };
    net::FrontEnd fe(fc, sink);
    fe.start();
    SystemClock::instance().sleep_for(0.05);
    const CpuSample c0 = process_cpu();
    Stopwatch watch;
    SystemClock::instance().sleep_for(sizes_.idle_s);
    const CpuSample c1 = process_cpu();
    const double s = watch.seconds();
    fe.stop();
    r.metric("net.idle_cpu_ms_per_s", (c1.cpu_s - c0.cpu_s) * 1e3 / s,
             "ms/s", 1);
  }
}

}  // namespace perfbench
