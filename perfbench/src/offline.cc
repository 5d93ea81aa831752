// offline_paper: the researcher's loop. Generate the Gowalla-like dataset,
// train STiSAN with the paper's components (TAPE, IAAB, TAAD, KNN
// negatives) at n = 32, then evaluate it with the HR/NDCG protocol (100
// nearest negatives).
//
// End-to-end metrics on this workload: setup_s, peak_rss_mb, and
//   hr_at_10, ndcg_at_10  the protocol's metrics after training
// and, reported but not gated:
//   throughput_per_s   training windows per second of StisanModel::Fit
//                      (windows per epoch over the median epoch time)
//   p50/tail_ms.light  one eval instance per BatchScorer call (batch 1)
//   p50/tail_ms.busy   the protocol's 32-instance BatchScorer calls
//
// The dataset is the preset's; the seed drives model initialisation,
// window shuffling, negative sampling and dropout.

#include <cmath>
#include <cstdio>
#include <memory>

#include "bench_lib.h"
#include "core/stisan.h"
#include "data/preprocess.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "models/shallow.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace stisan;

constexpr int64_t kSeqLen = 32;
constexpr int64_t kEpochs = 3;
// Passes over the test set for the latency samples: 3 x ~400 instances at
// batch 1 give >= 1000 samples (p99); 16 x ~13 batches give >= 200 (p95).
constexpr int kLightPasses = 3;
constexpr int kBusyPasses = 16;

// TAPE + IAAB + TAAD + KNN negatives. `epoch_end`, when given, collects
// the wall-clock time at which each training epoch ended.
core::StisanOptions PaperOptions(uint64_t seed,
                                 std::vector<double>* epoch_end = nullptr) {
  core::StisanOptions options;
  options.train.epochs = kEpochs;
  options.train.seed = seed;
  if (epoch_end != nullptr) {
    options.train.on_epoch = [epoch_end](const train::EpochStats&) {
      epoch_end->push_back(NowSeconds());
      return true;
    };
  }
  return options;
}

struct Setup {
  data::Dataset dataset;
  data::Split split;
  std::unique_ptr<core::StisanModel> model;
  std::unique_ptr<eval::CandidateGenerator> candidates;
  double generate_s = 0.0;
  double split_s = 0.0;
  std::vector<double> epoch_end;
};

std::unique_ptr<Setup> BuildSetup(uint64_t seed, Tracer& tracer) {
  auto s = std::make_unique<Setup>();
  double t = NowSeconds();
  {
    ScopedSpan span(tracer, "data.generate");
    s->dataset = data::GenerateSynthetic(data::GowallaLikeConfig(1.0));
  }
  s->generate_s = NowSeconds() - t;
  t = NowSeconds();
  {
    ScopedSpan span(tracer, "data.split");
    s->split = data::TrainTestSplit(s->dataset, {.max_seq_len = kSeqLen});
  }
  s->split_s = NowSeconds() - t;
  {
    ScopedSpan span(tracer, "core.model_init");
    s->model = std::make_unique<core::StisanModel>(
        s->dataset, PaperOptions(seed, &s->epoch_end));
  }
  {
    ScopedSpan span(tracer, "geo.index_build");
    s->candidates = std::make_unique<eval::CandidateGenerator>(s->dataset);
  }
  return s;
}

// Times every BatchScorer call the evaluator makes (one span per call in
// the traced run).
class TimedScorer : public eval::BatchScorer {
 public:
  TimedScorer(eval::BatchScorer& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  std::vector<std::vector<float>> ScoreBatch(
      const std::vector<const data::EvalInstance*>& instances,
      const std::vector<std::vector<int64_t>>& candidates) override {
    ScopedSpan span(tracer_, "models.score_batch");
    const double t = NowSeconds();
    auto out = inner_.ScoreBatch(instances, candidates);
    call_ms.push_back((NowSeconds() - t) * 1e3);
    return out;
  }

  std::vector<double> call_ms;

 private:
  eval::BatchScorer& inner_;
  Tracer& tracer_;
};

// Runs `passes` protocol passes at `batch` instances per call and returns
// every call's latency.
std::vector<double> EvalLatencies(Setup& s, int64_t batch, int passes,
                                  Tracer& tracer) {
  TimedScorer timed(*s.model, tracer);
  eval::EvalOptions options;
  options.batch_size = batch;
  for (int p = 0; p < passes; ++p) {
    ScopedSpan span(tracer, "eval.evaluate");
    eval::Evaluate(timed, s.split.test, *s.candidates, options);
  }
  return timed.call_ms;
}

}  // namespace

WorkloadResult RunOfflinePaper(const RunConfig& config, Tracer& tracer) {
  WorkloadResult r;
  ScopedSpan root(tracer, "bench.offline_paper");

  std::vector<double> setup_s, generate_s, split_s;
  std::unique_ptr<Setup> s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    s.reset();
    const double t = NowSeconds();
    s = BuildSetup(config.seed, tracer);
    setup_s.push_back(NowSeconds() - t);
    generate_s.push_back(s->generate_s);
    split_s.push_back(s->split_s);
  }
  std::printf("offline_paper: %s, %zu train windows, %zu test instances\n",
              s->dataset.Stats().ToString().c_str(), s->split.train.size(),
              s->split.test.size());

  // ---- Train ----
  ObsDelta train_obs;
  const double fit_start = NowSeconds();
  {
    ScopedSpan span(tracer, "train.fit");
    s->model->Fit(s->dataset, s->split.train);
  }
  const double fit_s = NowSeconds() - fit_start;
  train_obs.Finish();
  std::vector<double> epoch_s;
  for (size_t i = 0; i < s->epoch_end.size(); ++i) {
    epoch_s.push_back(s->epoch_end[i] -
                      (i == 0 ? fit_start : s->epoch_end[i - 1]));
    std::printf("  epoch %zu: %.3f s\n", i + 1, epoch_s.back());
  }
  const auto& tr = s->model->last_train_result();
  const double windows =
      static_cast<double>(s->split.train.size()) * static_cast<double>(kEpochs);
  r.attempted += static_cast<int64_t>(windows);
  if (!tr.status.ok()) {
    ++r.failed;
    ++r.failed_by_code[stisan::StatusCodeName(tr.status.code())];
  }
  r.Check(tr.status.ok(), "Fit status: " + tr.status.ToString());
  r.Check(std::isfinite(s->model->last_epoch_loss()), "training loss is finite");
  r.Check(tr.nonfinite_skipped == 0, "no non-finite training steps skipped");
  r.Check(tr.epochs_completed == kEpochs, "every epoch completed");

  // ---- Evaluate (the protocol pass gives the quality metrics) ----
  ObsDelta eval_obs;
  const double eval_start = NowSeconds();
  eval::MetricAccumulator metrics;
  {
    ScopedSpan span(tracer, "eval.evaluate");
    metrics = eval::Evaluate(*s->model, s->split.test, *s->candidates, {});
  }
  const double eval_s = NowSeconds() - eval_start;
  eval_obs.Finish();
  r.attempted += static_cast<int64_t>(s->split.test.size());
  r.Check(metrics.count() == static_cast<int64_t>(s->split.test.size()),
          "eval count equals the test-set size");

  // ---- Latency samples: batch 1 (light) and batch 32 (busy) ----
  // The traced run measures these passes untraced, for the overhead report.
  Tracer untraced(false);
  Tracer& lat_tracer = config.trace ? untraced : tracer;
  const int64_t passes_span = tracer.Open("bench.untraced_passes");
  const Summary light = Summarize(EvalLatencies(*s, 1, kLightPasses, lat_tracer));
  const Summary busy = Summarize(EvalLatencies(*s, 32, kBusyPasses, lat_tracer));
  tracer.Close(passes_span);

  auto& e = r.end_to_end;
  e["setup_s"] = {Median(setup_s), "s"};
  // Median over epochs: one slow epoch does not move it.
  r.ungated["throughput_per_s"] = {
      static_cast<double>(s->split.train.size()) / Median(epoch_s), "1/s"};
  r.ungated["p50_ms.light"] = {light.p50, "ms"};
  r.ungated["p50_ms.busy"] = {busy.p50, "ms"};
  r.ungated["tail_ms.light"] = {light.tail, "ms"};
  r.ungated["tail_ms.busy"] = {busy.tail, "ms"};
  e["hr_at_10"] = {metrics.HitRate(10), "ratio"};
  e["ndcg_at_10"] = {metrics.Ndcg(10), "ratio"};
  std::printf(
      "  train: %.0f windows in %.3f s (%.1f windows/s), final loss %.4f\n"
      "  eval:  %lld instances in %.3f s (%.1f instances/s), HR@10 %.4f "
      "NDCG@10 %.4f\n"
      "  light (batch 1):  p50 %.4f ms, p%g %.4f ms over %zu calls\n"
      "  busy  (batch 32): p50 %.4f ms, p%g %.4f ms over %zu calls\n",
      windows, fit_s, windows / fit_s, s->model->last_epoch_loss(),
      static_cast<long long>(metrics.count()), eval_s,
      Ratio(static_cast<double>(metrics.count()), eval_s), metrics.HitRate(10),
      metrics.Ndcg(10), light.p50, light.tail_pct, light.tail, light.count,
      busy.p50, busy.tail_pct, busy.tail, busy.count);

  // ---- Output checks (outside every timed window) ----
  {
    ScopedSpan span(tracer, "bench.checks");
    // Training must beat the same architecture left at its initial weights.
    core::StisanModel untrained(s->dataset, PaperOptions(config.seed));
    const auto base = eval::Evaluate(untrained, s->split.test, *s->candidates, {});
    models::PopModel pop;
    pop.Fit(s->dataset, s->split.train);
    const auto pop_metrics =
        eval::Evaluate(pop, s->split.test, *s->candidates, {});
    std::printf("  check: HR@10 trained %.4f, untrained %.4f, POP %.4f\n",
                metrics.HitRate(10), base.HitRate(10), pop_metrics.HitRate(10));
    r.Check(metrics.HitRate(10) > base.HitRate(10),
            "trained HR@10 above the untrained model's");
  }

  if (config.trace) {
    auto& l = r.per_layer;
    l["data.generate_s"] = {Median(generate_s), "s"};
    l["data.split_s"] = {Median(split_s), "s"};
    l["train.epoch_s"] = {Median(epoch_s), "s"};
    l["train.step_ms"] = {Ratio(fit_s * 1e3, train_obs.Get("train/opt_steps")),
                          "ms"};
    l["tensor.dispatches_per_window"] = {
        Ratio(train_obs.Get("kernels/dispatches"), windows), "count"};
    l["util.pool_tasks_per_window"] = {
        Ratio(train_obs.Get("threadpool/tasks_submitted"), windows), "count"};
    const double n_eval = static_cast<double>(metrics.count());
    l["tensor.dispatches_per_request"] = {
        Ratio(eval_obs.Get("kernels/dispatches"), n_eval), "count"};
    l["util.pool_tasks_per_request"] = {
        Ratio(eval_obs.Get("threadpool/tasks_submitted"), n_eval), "count"};
    const double arena_hits =
        train_obs.Get("arena/hits") + train_obs.Get("arena/exact_hits");
    l["tensor.arena_hit_ratio"] = {
        Ratio(arena_hits, arena_hits + train_obs.Get("arena/misses")), "ratio"};
    l["plan.replay_ratio"] = {
        Ratio(train_obs.Get("plan/replays"), train_obs.Get("plan/steps")),
        "ratio"};
    const double rel_hits =
        train_obs.Get("relation/cache_hits") + eval_obs.Get("relation/cache_hits");
    const double rel_miss = train_obs.Get("relation/cache_misses") +
                            eval_obs.Get("relation/cache_misses");
    l["core.relation_cache_hit_ratio"] = {Ratio(rel_hits, rel_hits + rel_miss),
                                          "ratio"};
    const double tape_hits =
        train_obs.Get("tape/cache_hits") + eval_obs.Get("tape/cache_hits");
    const double tape_miss =
        train_obs.Get("tape/cache_misses") + eval_obs.Get("tape/cache_misses");
    l["core.tape_cache_hit_ratio"] = {Ratio(tape_hits, tape_hits + tape_miss),
                                      "ratio"};
    // Traced busy passes: spans per call, compared with the untraced ones.
    const Summary traced_busy =
        Summarize(EvalLatencies(*s, 32, kBusyPasses, tracer));
    l["models.score_batch_ms"] = {traced_busy.p50, "ms"};
    const double cand_s = eval_obs.Sum("time/eval/candidate_gen");
    l["eval.candidate_gen_s"] = {cand_s, "s"};
    l["eval.self_s"] = {eval_obs.Sum("time/eval/run") - cand_s -
                            eval_obs.Sum("time/eval/score_batch"),
                        "s"};
    l["eval.instances_per_s"] = {Ratio(n_eval, eval_s), "1/s"};
    l["geo.knn_us"] = {Ratio(cand_s * 1e6, n_eval), "us"};
    r.overhead_untraced["p50_ms.busy"] = busy.p50;
    r.overhead_traced["p50_ms.busy"] = traced_busy.p50;
  }
  return r;
}

}  // namespace perfbench
