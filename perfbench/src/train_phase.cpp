// Train phase: the paper's Table I cost column (seconds per epoch of
// proposed, atda and bim_adv(10)), a BIM(10) evaluation pass and one
// gauntlet row; per-layer: a replayed training step per method broken
// into batch fetch, crafting, per-layer forward/backward, loss and
// optimizer, plus tensor/nn/attack/metrics/gauntlet timings.
#include <cmath>
#include <cstdio>

#include "attack/bim.h"
#include "attack/fgsm.h"
#include "attack/restart.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/atda_loss.h"
#include "core/factory.h"
#include "data/batcher.h"
#include "data/synthetic.h"
#include "gauntlet/attack_plan.h"
#include "gauntlet/eps_profile.h"
#include "gauntlet/gauntlet.h"
#include "gauntlet/transfer.h"
#include "metrics/evaluator.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/zoo.h"
#include "phases.h"
#include "speed.h"
#include "stats.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"
#include "timing.h"
#include "trace.h"

namespace perfbench {

using namespace satd;

namespace {

constexpr float kEps = 0.3f;
constexpr std::size_t kBatch = 32;
constexpr std::size_t kEvalBatch = 64;
constexpr std::size_t kBimIterations = 10;
constexpr std::size_t kReplayStepsPerRound = 2;  // traced run only
constexpr float kLivenessMargin = 0.1f;  // nats below chance-level loss
// Fewest training steps after which every method's clean test loss is
// expected below ln 10 - kLivenessMargin. bim_adv(10) needs about 100;
// at the serve workload's 48 probe steps it can still sit at 2.22.
constexpr std::size_t kLivenessSteps = 150;
constexpr std::size_t kColumnReps = 3;   // column-by-column rows, traced
// Test images of a gauntlet row: one batch. A row runs 20 attack passes
// over its images and each run times six rows, so more images would
// make the row most of a run's cost.
constexpr std::size_t kGauntletImages = 32;
constexpr std::size_t kReplayImages = 64;  // determinism probe

// Trainer name in the factory, and the suffix its metrics carry.
struct Method {
  const char* factory;
  const char* label;
};
constexpr Method kMethods[] = {
    {"proposed", "proposed"}, {"atda", "atda"}, {"bim_adv", "bim_adv10"}};

// cnn_small's layer chain, in order (nn/zoo.cpp).
const char* const kLayerNames[] = {"conv1", "relu1", "pool1", "conv2",
                                   "relu2", "pool2", "flatten", "fc1",
                                   "relu3", "fc2"};
constexpr std::size_t kLayers = std::size(kLayerNames);

nn::Sequential build_model(std::uint64_t seed, std::size_t index) {
  Rng rng(seed * 1000003ULL + index);
  nn::Sequential m = nn::zoo::build("cnn_small", rng);
  if (m.layer_count() != kLayers) {
    throw std::logic_error("cnn_small no longer has the expected layers");
  }
  return m;
}

core::TrainConfig train_config(std::uint64_t seed) {
  core::TrainConfig cfg;
  cfg.epochs = kRounds;
  cfg.batch_size = kBatch;
  cfg.eps = kEps;
  cfg.bim_iterations = kBimIterations;
  cfg.seed = seed;
  return cfg;
}

/// The transfer pool of the gauntlet row: proposed (the defense), then
/// atda and bim_adv(10), its held-out surrogates.
std::vector<metrics::TransferModel> gauntlet_pool(
    std::vector<nn::Sequential>& models) {
  std::vector<metrics::TransferModel> pool;
  for (std::size_t i = 0; i < std::size(kMethods); ++i) {
    pool.push_back({kMethods[i].label, &models[i]});
  }
  return pool;
}

/// One timed gauntlet row for the proposed model: appends its wall
/// seconds to `seconds` and, given a monitor, its reference seconds to
/// `reference`.
gauntlet::GauntletRow timed_row(const gauntlet::GauntletRunner& runner,
                                std::vector<nn::Sequential>& models,
                                const data::Dataset& test,
                                std::vector<double>& seconds,
                                const SpeedMonitor* monitor = nullptr,
                                std::vector<double>* reference = nullptr) {
  const std::vector<metrics::TransferModel> pool = gauntlet_pool(models);
  const double t0 = Tracer::now();
  gauntlet::GauntletRow row;
  {
    Span span("gauntlet.run_row");
    row = runner.run_row(pool[0], pool, test);
  }
  const double t1 = Tracer::now();
  seconds.push_back(t1 - t0);
  if (monitor != nullptr) {
    reference->push_back(monitor->reference_seconds(t0, t1));
  }
  return row;
}

/// Layer-by-layer forward/backward with one span per layer call, so a
/// replayed step can be attributed layer by layer.
class LayerTape {
 public:
  LayerTape(nn::Sequential& model, const std::string& prefix)
      : model_(model), acts_(kLayers), grads_(kLayers) {
    for (const char* l : kLayerNames) {
      fwd_names_.push_back(prefix + ".fwd." + l);
      bwd_names_.push_back(prefix + ".bwd." + l);
    }
  }
  const Tensor& forward(const Tensor& x, bool training) {
    const Tensor* in = &x;
    for (std::size_t i = 0; i < kLayers; ++i) {
      Span span(fwd_names_[i]);
      model_.layer(i).forward_into(*in, acts_[i], training);
      in = &acts_[i];
    }
    return *in;
  }
  void backward(const Tensor& grad_logits) {
    const Tensor* g = &grad_logits;
    for (std::size_t i = kLayers; i-- > 0;) {
      Span span(bwd_names_[i]);
      model_.layer(i).backward_into(*g, grads_[i]);
      g = &grads_[i];
    }
  }

 private:
  nn::Sequential& model_;
  std::vector<Tensor> acts_, grads_;
  std::vector<std::string> fwd_names_, bwd_names_;
};

/// Replays the trainer's per-batch step for `method` from outside, with
/// the same calls the trainer makes (core/trainer.cpp, atda_trainer.cpp,
/// proposed_trainer.cpp), each under its own span.
void replay_steps(const Method& method, const data::Dataset& train,
                  std::uint64_t seed, std::size_t steps) {
  const std::string p = std::string("core.") + method.label;
  nn::Sequential model = build_model(seed, 100);
  LayerTape tape(model, p);
  nn::Adam adam(1e-3);
  data::Batcher batcher(train, kBatch);
  Rng shuffle(seed);
  batcher.begin_epoch(shuffle);
  attack::Fgsm fgsm(kEps);
  attack::Bim bim(kEps, kBimIterations);
  attack::GradientScratch scratch;
  Rng center_rng(seed);
  Tensor centers(Shape{10, 10});
  for (float& v : centers.data()) {
    v = static_cast<float>(center_rng.normal(0.0, 0.1));
  }
  Tensor adv, side, logits_clean, logits_adv;
  nn::LossResult ce_clean, ce_adv;
  const std::string method_name = method.factory;
  const float mix = 0.5f;

  // Step 0 is an unrecorded warm-up: it sizes every buffer and Adam's
  // moments.
  Tracer& tracer = Tracer::global();
  const bool tracing = tracer.enabled();
  for (std::size_t s = 0; s <= steps; ++s) {
    tracer.set_enabled(tracing && s > 0);
    Span step(p + ".step");
    data::Batch batch;
    {
      Span span(p + ".batch");
      batch = batcher.make_batch(s % batcher.batch_count());
    }
    {
      Span span(p + ".craft");
      if (method_name == "proposed") {
        // The proposed trainer steps its persistent buffer by one FGSM
        // step of eps * step_fraction per epoch.
        attack::Fgsm::step_into(model, batch.images, batch.images,
                                batch.labels, kEps * 0.1f, kEps, adv,
                                scratch);
      } else if (method_name == "atda") {
        fgsm.perturb_into(model, batch.images, batch.labels, adv);
      } else {
        bim.perturb_into(model, batch.images, batch.labels, adv);
      }
    }
    if (method_name == "atda") {
      logits_clean = tape.forward(batch.images, true);
      logits_adv = tape.forward(adv, true);
      core::AtdaLossResult da;
      {
        Span span(p + ".loss");
        da = core::atda_domain_loss(logits_clean, logits_adv, batch.labels,
                                    centers, core::AtdaLossWeights{});
        nn::softmax_cross_entropy_into(logits_adv, batch.labels, ce_adv);
        nn::softmax_cross_entropy_into(logits_clean, batch.labels,
                                       ce_clean);
        model.zero_grad();
        ops::scale(ce_adv.grad_logits, mix, side);
        ops::axpy(1.0f, da.grad_adv, side);
      }
      tape.backward(side);
      tape.forward(batch.images, true);
      {
        Span span(p + ".loss");
        ops::scale(ce_clean.grad_logits, 1.0f - mix, side);
        ops::axpy(1.0f, da.grad_clean, side);
      }
      tape.backward(side);
      {
        Span span(p + ".optimizer");
        adam.step(model.parameters(), model.gradients());
        model.zero_grad();
      }
      {
        Span span(p + ".loss");
        core::update_class_centers(centers, logits_clean, batch.labels, 0.1f);
        core::update_class_centers(centers, logits_adv, batch.labels, 0.1f);
      }
    } else {
      model.zero_grad();
      for (const Tensor* x : {&batch.images, &adv}) {
        const Tensor& logits = tape.forward(*x, true);
        {
          Span span(p + ".loss");
          nn::softmax_cross_entropy_into(logits, batch.labels, ce_clean);
          for (float& g : ce_clean.grad_logits.data()) g *= mix;
        }
        tape.backward(ce_clean.grad_logits);
      }
      {
        Span span(p + ".optimizer");
        adam.step(model.parameters(), model.gradients());
        model.zero_grad();
      }
    }
  }
}

/// Per replayed step of `prefix`: the sum of its child spans' durations
/// and its crafting time.
struct StepParts {
  std::vector<double> child_sum;
  std::vector<double> craft;
};
StepParts step_parts(const std::string& prefix) {
  const auto recs = Tracer::global().records();
  std::map<std::uint64_t, std::size_t> step_index;
  StepParts parts;
  for (const auto& r : recs) {
    if (r.name == prefix + ".step") {
      step_index[r.id] = parts.child_sum.size();
      parts.child_sum.push_back(0.0);
      parts.craft.push_back(0.0);
    }
  }
  for (const auto& r : recs) {
    const auto it = step_index.find(r.parent);
    if (it == step_index.end()) continue;
    parts.child_sum[it->second] += r.seconds();
    if (r.name == prefix + ".craft") parts.craft[it->second] += r.seconds();
  }
  return parts;
}

}  // namespace

TrainPhase::TrainPhase(const RunContext& ctx, TrainSizes sizes)
    : ctx_(ctx), sizes_(sizes) {}

TrainPhase::~TrainPhase() = default;

void TrainPhase::setup() {
  data::SyntheticConfig cfg;
  cfg.train_size = sizes_.train;
  cfg.test_size = sizes_.test;
  cfg.seed = ctx_.seed;
  {
    Span span("data.synth");
    data_ = data::make_synthetic_digits(cfg);
  }
  gauntlet_test_ = data_.test.slice(0, std::min(kGauntletImages,
                                                data_.test.size()));
  models_.clear();
  for (std::size_t i = 0; i < std::size(kMethods); ++i) {
    models_.push_back(build_model(ctx_.seed, i));
  }
}

void TrainPhase::begin() {
  const core::TrainConfig cfg = train_config(ctx_.seed);
  trainers_.clear();
  for (std::size_t i = 0; i < std::size(kMethods); ++i) {
    trainers_.push_back(
        core::make_trainer(kMethods[i].factory, models_[i], cfg));
  }
  epoch_s_.assign(std::size(kMethods), {});
  epoch_ref_s_.assign(std::size(kMethods), {});
  final_loss_.assign(std::size(kMethods), 0.0f);
  rollbacks_.assign(std::size(kMethods), 0);
  eval_s_.clear();
  eval_ref_s_.clear();
  row_s_.clear();
  row_ref_s_.clear();
}

void TrainPhase::round(std::size_t k, Report& r) {
  ThreadPool::set_global_threads(kPoolThreads);
  const SpeedMonitor monitor;
  for (std::size_t i = 0; i < std::size(kMethods); ++i) {
    const Method& m = kMethods[i];
    core::Trainer& trainer = *trainers_[i];
    // fit() from epoch k, stopped before epoch k+1 begins any batch: the
    // next round resumes exactly where this one left the trainer.
    bool epoch_done = false;
    trainer.set_stop_check([&epoch_done] { return epoch_done; });
    core::TrainReport rep;
    {
      Span span(std::string("core.fit.") + m.label);
      rep = trainer.fit(
          data_.train,
          [&](const core::EpochStats& e) {
            epoch_done = true;
            const double end = Tracer::now();
            Span::record(std::string("core.epoch.") + m.label,
                         end - e.seconds, end);
            epoch_ref_s_[i].push_back(
                monitor.reference_seconds(end - e.seconds, end));
          },
          k);
    }
    trainer.set_stop_check({});
    if (rep.epochs.size() != 1) {
      throw std::logic_error("a training round must run exactly one epoch");
    }
    epoch_s_[i].push_back(rep.epochs[0].seconds);
    final_loss_[i] = rep.epochs[0].mean_loss;
    rollbacks_[i] += rep.divergence_events.size();
    // Traced run: replay a few steps right after the epoch, so replay
    // and epoch see the same host conditions.
    if (Tracer::global().enabled()) {
      replay_steps(m, data_.train, ctx_.seed + k, kReplayStepsPerRound);
    }
  }
  r.operations(std::size(kMethods), 0);
  if (k == 0) return;
  // A BIM(10) evaluation of the proposed model over the full test set and
  // a gauntlet row. Neither's cost depends on the weights (no attack
  // stops early), so every round's models time them, and their samples
  // spread over the run like the epochs'.
  attack::Bim bim(kEps, kBimIterations);
  const double t0 = Tracer::now();
  {
    Span span("metrics.evaluate_bim10");
    metrics::evaluate_attack(models_[0], data_.test, bim, kEvalBatch);
  }
  const double t1 = Tracer::now();
  eval_s_.push_back(t1 - t0);
  eval_ref_s_.push_back(monitor.reference_seconds(t0, t1));
  const gauntlet::GauntletRunner runner(gauntlet::GauntletConfig{});
  timed_row(runner, models_, gauntlet_test_, row_s_, &monitor, &row_ref_s_);
  r.operations(2, 0);
}

void TrainPhase::finish(Report& r, Digests& digests) {
  ThreadPool::set_global_threads(kPoolThreads);
  const std::size_t steps = (sizes_.train + kBatch - 1) / kBatch * kRounds;
  for (std::size_t i = 0; i < std::size(kMethods); ++i) {
    const Method& m = kMethods[i];
    // The first epoch pays for buffer growth and cold caches.
    const std::vector<double> epochs(epoch_ref_s_[i].begin() + 1,
                                     epoch_ref_s_[i].end());
    r.metric(std::string("epoch_s.") + m.label, median(epochs), "s",
             epochs.size());
    r.config(std::string("wall.epoch_s.") + m.label,
             format("%.6f", median(std::vector<double>(
                                epoch_s_[i].begin() + 1, epoch_s_[i].end()))));
    // Liveness: the last epoch's training loss is finite, and, after
    // kLivenessSteps steps, the final model's clean test loss sits
    // clearly below ln 10, the loss of a model that never learned. The
    // training loss itself is no liveness signal for adversarial
    // trainers: it averages in the adversarial term, which stays near or
    // above ln 10 while the model learns.
    const float loss = final_loss_[i];
    Tensor logits;
    std::vector<std::size_t> preds;
    metrics::predict_into(models_[i], data_.test.images, kEvalBatch, logits,
                          preds);
    const float clean = nn::softmax_cross_entropy_value(logits,
                                                        data_.test.labels);
    r.config(std::string("train.final_loss.") + m.label,
             format("%.4f (clean test loss %.4f)", static_cast<double>(loss),
                    static_cast<double>(clean)));
    r.check(std::isfinite(loss) && std::isfinite(clean),
            format("%s: final training loss %.4f and clean test loss %.4f "
                   "are finite",
                   m.label, static_cast<double>(loss),
                   static_cast<double>(clean)));
    if (steps >= kLivenessSteps) {
      r.check(clean < std::log(10.0f) - kLivenessMargin,
              format("%s: clean test loss %.4f after %zu steps is below "
                     "ln 10 - %.1f (a model that never learned fails the "
                     "run)",
                     m.label, static_cast<double>(clean), steps,
                     static_cast<double>(kLivenessMargin)));
    }
    r.check(rollbacks_[i] == 0,
            format("%s trained without divergence rollbacks", m.label));
  }
  r.metric("eval_bim10_s", median(eval_ref_s_), "s", eval_ref_s_.size());
  r.config("wall.eval_bim10_s", format("%.6f", median(eval_s_)));

  // The final model's BIM(10) accuracy, twice: it must repeat exactly.
  float accs[2] = {0.0f, 0.0f};
  for (float& a : accs) {
    attack::Bim bim(kEps, kBimIterations);
    a = metrics::evaluate_attack(models_[0], data_.test, bim, kEvalBatch);
  }
  acc_bim10_ = accs[0];
  r.check(accs[0] == accs[1],
          "the BIM(10) accuracy of the final model repeats exactly");
  digests["acc_bim10.proposed"] =
      format("%.9g", static_cast<double>(acc_bim10_));

  // The final models' gauntlet row: its bytes must repeat across runs.
  const gauntlet::GauntletRunner runner(gauntlet::GauntletConfig{});
  gauntlet::GauntletRow row;
  {
    const SpeedMonitor monitor;
    row = timed_row(runner, models_, gauntlet_test_, row_s_, &monitor,
                    &row_ref_s_);
  }
  r.metric("gauntlet_row_s", median(row_ref_s_), "s", row_ref_s_.size());
  r.config("wall.gauntlet_row_s", format("%.6f", median(row_s_)));
  const std::string csv = runner.csv_row(row);
  bool sane = row.values.size() == runner.columns().size();
  for (std::size_t c = 0; sane && c + 1 < row.values.size(); ++c) {
    sane = row.values[c] >= 0.0f && row.values[c] <= 1.0f;
  }
  r.check(sane, "gauntlet row has one in-range value per column: " + csv);
  digests["gauntlet_row.proposed"] = csv;
  r.operations(1, 0);

  // Training repeats exactly: the same trainer, model and data, fitted
  // twice, ends with byte-identical weights.
  {
    const data::Dataset part = data_.train.slice(0, kReplayImages);
    core::TrainConfig cfg = train_config(ctx_.seed);
    cfg.epochs = 2;
    std::vector<float> weights[2];
    for (auto& w : weights) {
      nn::Sequential model = build_model(ctx_.seed, 0);
      core::make_trainer(kMethods[0].factory, model, cfg)->fit(part);
      for (const Tensor* t : model.parameters()) {
        w.insert(w.end(), t->data().begin(), t->data().end());
      }
    }
    r.check(weights[0] == weights[1],
            "two identical training runs end with byte-identical weights");
    r.operations(1, 0);
  }
  if (!Tracer::global().enabled()) return;

  // Traced run: the final row again kColumnReps times, each time whole
  // and then one column at a time with the calls run_row makes
  // (gauntlet/gauntlet.cpp), so both are timed in the same few seconds.
  const gauntlet::GauntletConfig& gc = runner.config();
  const std::vector<metrics::TransferModel> pool = gauntlet_pool(models_);
  std::map<std::string, std::vector<double>> col_s;
  std::vector<double> sums, whole_s;
  bool same = true;
  for (std::size_t rep = 0; rep < kColumnReps; ++rep) {
    timed_row(runner, models_, gauntlet_test_, whole_s);
    std::vector<float> values;
    double sum = 0.0;
    auto column = [&](const std::string& name, auto&& fn) {
      Stopwatch col_watch;
      {
        Span span("gauntlet.col." + name);
        values.push_back(fn());
      }
      const double s = col_watch.seconds();
      sum += s;
      col_s[name].push_back(s);
    };
    column("clean", [&] {
      return metrics::evaluate_clean(models_[0], gauntlet_test_,
                                     gc.batch_size);
    });
    for (const auto& spec : gauntlet::white_box_plan(gc.plan)) {
      column(spec.name, [&] {
        auto atk = spec.make(gc.eps);
        return metrics::evaluate_attack(models_[0], gauntlet_test_, *atk,
                                        gc.batch_size);
      });
    }
    column("transfer_bim" + std::to_string(gc.transfer_iterations), [&] {
      attack::Bim atk(gc.eps, gc.transfer_iterations);
      return gauntlet::transfer_cell(pool[0], pool, gauntlet_test_, atk,
                                     gc.batch_size)
          .worst_case;
    });
    column("eps_sweep", [&] {
      return gauntlet::profile_collapse(models_[0], gauntlet_test_,
                                        gc.eps_sweep, gc.sweep_iterations,
                                        gc.batch_size)
          .knee_eps;
    });
    sums.push_back(sum);
    same = same && values == row.values;
  }
  for (const auto& [name, v] : col_s) {
    r.metric("gauntlet.col_s." + name, median(v), "s", v.size());
  }
  r.check(same,
          "gauntlet columns computed one by one equal the run_row values");
  const double sum = median(sums);
  const double whole = median(whole_s);
  const double err = std::abs(sum - whole) / whole;
  r.check(err <= 0.20, format("gauntlet columns sum to %.3f s, run_row takes "
                              "%.3f s (medians of %zu, tolerance 20%%)",
                              sum, whole, kColumnReps));
}

void TrainPhase::layers(Report& r) {
  Tracer& tracer = Tracer::global();
  r.metric("data.synth_s", span_median("data.synth"), "s",
           tracer.durations("data.synth").size());
  r.metric("acc_bim10.proposed", acc_bim10_, "fraction", data_.test.size());

  // ---- core: steps replayed during the rounds, attributed layer by
  // layer ----
  const double tolerance = 0.30;
  for (std::size_t i = 0; i < std::size(kMethods); ++i) {
    const Method& m = kMethods[i];
    const std::vector<double> epoch_s(epoch_s_[i].begin() + 1,
                                      epoch_s_[i].end());
    const double batches = std::ceil(static_cast<double>(sizes_.train) /
                                     static_cast<double>(kBatch));
    const double step_s = median(epoch_s) / batches;
    const std::string p = std::string("core.") + m.label;
    const StepParts parts = step_parts(p);
    const double replay_s = median(parts.child_sum);
    const double err = std::abs(replay_s - step_s) / step_s;
    r.metric(std::string("core.step_ms.") + m.label, step_s * 1e3, "ms",
             epoch_s.size());
    r.metric(std::string("core.craft_share.") + m.label,
             median(parts.craft) / replay_s, "fraction", parts.craft.size());
    r.metric(std::string("core.attribution_err.") + m.label, err, "fraction",
             parts.child_sum.size());
    r.check(err <= tolerance,
            format("%s: replayed step spans sum to %.3f ms, trainer step "
                   "%.3f ms (tolerance %.0f%%)",
                   m.label, replay_s * 1e3, step_s * 1e3, tolerance * 100));
    if (i == 0) {
      // nn per-layer costs at batch 32 come from the proposed replay
      // (two forward/backward passes per step: clean and adversarial).
      const std::size_t passes = 2 * parts.child_sum.size();
      double relu_f = 0, relu_b = 0;
      for (const char* l : kLayerNames) {
        const std::string name(l);
        const double f = span_median(p + ".fwd." + name) * 1e6;
        const double b = span_median(p + ".bwd." + name) * 1e6;
        if (name.rfind("relu", 0) == 0) {
          relu_f += f;
          relu_b += b;
        } else if (name != "flatten") {
          r.metric("nn.fwd_us." + name + ".b32", f, "us", passes);
          r.metric("nn.bwd_us." + name + ".b32", b, "us", passes);
        }
      }
      r.metric("nn.fwd_us.relu.b32", relu_f, "us", passes);
      r.metric("nn.bwd_us.relu.b32", relu_b, "us", passes);
      r.metric("nn.adam_step_us", span_median(p + ".optimizer") * 1e6, "us",
               parts.child_sum.size());
    }
  }

  // ---- data ----
  {
    data::Batcher batcher(data_.train, kBatch);
    Rng shuffle(ctx_.seed);
    batcher.begin_epoch(shuffle);
    std::size_t b = 0;
    const double s = time_calls("data.batch.b32", 50, 0.05, [&] {
      data::Batch batch = batcher.make_batch(b++ % batcher.batch_count());
      (void)batch;
    });
    r.metric("data.batch_us.b32", s * 1e6, "us",
             tracer.durations("data.batch.b32").size());
  }

  // ---- tensor: im2col and the forward GEMM of every layer ----
  struct Gemm {
    const char* layer;
    std::size_t rows_per_image, k, n;
    bool nt;  // conv layers multiply by the transposed filter matrix
  };
  const Gemm gemms[] = {{"conv1", 26 * 26, 9, 4, true},
                        {"conv2", 10 * 10, 64, 8, true},
                        {"fc1", 1, 200, 32, false},
                        {"fc2", 1, 32, 10, false}};
  const ConvGeometry g1{1, 28, 28, 3, 0};
  const ConvGeometry g2{4, 13, 13, 4, 0};
  ThreadPool::set_global_threads(kPoolThreads);
  for (std::size_t b : {std::size_t{32}, std::size_t{1}}) {
    // b32 is the training shape, b1 the serving shape.
    const std::string tag = ".b" + std::to_string(b);
    Rng rng(ctx_.seed + b);
    auto random = [&rng](Shape s) {
      Tensor t(std::move(s));
      for (float& v : t.data()) v = static_cast<float>(rng.uniform());
      return t;
    };
    Tensor cols;
    for (const auto& [name, g] :
         {std::pair{"conv1", g1}, std::pair{"conv2", g2}}) {
      const Tensor x = random(Shape{b, g.in_channels, g.in_h, g.in_w});
      const std::string span = std::string("tensor.im2col.") + name + tag;
      const double s = time_calls(span, 50, 0.05,
                                  [&] { im2col_batch(x, g, cols); });
      r.metric(std::string("tensor.im2col_us.") + name + tag, s * 1e6, "us",
               tracer.durations(span).size());
    }
    for (const Gemm& gm : gemms) {
      const Tensor a = random(Shape{b * gm.rows_per_image, gm.k});
      const Tensor w = gm.nt ? random(Shape{gm.n, gm.k})
                             : random(Shape{gm.k, gm.n});
      Tensor out;
      const std::string span = std::string("tensor.matmul.") + gm.layer + tag;
      const double s = time_calls(span, 50, 0.05, [&] {
        if (gm.nt) {
          ops::matmul_nt(a, w, out);
        } else {
          ops::matmul(a, w, out);
        }
      });
      r.metric(std::string("tensor.matmul_us.") + gm.layer + tag, s * 1e6,
               "us", tracer.durations(span).size());
    }
  }

  // ---- common: fork-join cost of a 2-thread pool, the smallest one
  // that forks (the phases themselves run at pool 1) ----
  ThreadPool::set_global_threads(2);
  {
    const double s = time_calls("common.parallel_for.empty", 200, 0.05, [] {
      parallel_for(2, [](std::size_t, std::size_t) {});
    });
    r.metric("common.parallel_for_us.empty", s * 1e6, "us",
             tracer.durations("common.parallel_for.empty").size());
  }

  // ---- nn inference shapes: per layer at b8, whole model at b1 ----
  {
    nn::Sequential model = build_model(ctx_.seed, 200);
    ThreadPool::set_global_threads(1);
    const Tensor x8 = data_.test.slice(0, 8).images;
    std::vector<Tensor> acts(kLayers);
    const Tensor* in = &x8;
    std::map<std::string, double> fwd;
    for (std::size_t i = 0; i < kLayers; ++i) {
      const std::string span = std::string("nn.fwd.") + kLayerNames[i] + ".b8";
      const Tensor& input = *in;
      fwd[kLayerNames[i]] = time_calls(span, 100, 0.03, [&] {
        model.layer(i).forward_into(input, acts[i], false);
      });
      in = &acts[i];
    }
    double relu = 0;
    for (const auto& [name, s] : fwd) {
      if (name.rfind("relu", 0) == 0) {
        relu += s;
      } else if (name != "flatten") {
        r.metric("nn.fwd_us." + name + ".b8", s * 1e6, "us", 100);
      }
    }
    r.metric("nn.fwd_us.relu.b8", relu * 1e6, "us", 100);
    const Tensor x1 = data_.test.slice(0, 1).images;
    Tensor logits;
    const double s = time_calls("nn.fwd.model.b1", 200, 0.05,
                                [&] { model.forward_into(x1, logits); });
    r.metric("nn.fwd_us.model.b1", s * 1e6, "us",
             tracer.durations("nn.fwd.model.b1").size());
  }

  // ---- attack and metrics, on the trained proposed model ----
  ThreadPool::set_global_threads(kPoolThreads);
  {
    nn::Sequential& model = models_[0];
    const data::Dataset b32 = data_.test.slice(0, 32);
    const data::Dataset b64 = data_.test.slice(0, 64);
    Tensor adv;
    attack::Fgsm fgsm(kEps);
    attack::Bim bim(kEps, kBimIterations);
    gauntlet::PlanConfig plan;
    attack::RestartPgd pgd(kEps, plan.pgd_iterations, 0.0f,
                           plan.pgd_restarts, plan.pgd_seed);
    const struct {
      const char* name;
      attack::Attack* atk;
      const data::Dataset* batch;
    } attacks[] = {{"attack.fgsm_ms.b32", &fgsm, &b32},
                   {"attack.bim10_ms.b32", &bim, &b32},
                   {"attack.bim10_ms.b64", &bim, &b64},
                   {"attack.restart_pgd_ms.b64", &pgd, &b64}};
    for (const auto& a : attacks) {
      const double s = time_calls(a.name, 5, 0.2, [&] {
        a.atk->perturb_into(model, a.batch->images, a.batch->labels, adv);
      });
      r.metric(a.name, s * 1e3, "ms", tracer.durations(a.name).size());
    }
    Tensor logits;
    std::vector<std::size_t> preds;
    const double s = time_calls("metrics.predict.b64", 20, 0.1, [&] {
      metrics::predict_into(model, b64.images, kEvalBatch, logits, preds);
    });
    r.metric("metrics.predict_ms.b64", s * 1e3, "ms",
             tracer.durations("metrics.predict.b64").size());
  }
}

}  // namespace perfbench
