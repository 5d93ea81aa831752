// Microbenchmark of the evaluation pipeline: per-instance scoring cost of
// eval::Evaluate through the legacy per-instance Scorer path vs the batched
// BatchScorer path at batch sizes {1, 8, 32}. One kernel thread throughout,
// so the numbers isolate the batching win (fused padded forwards, fewer
// kernel dispatches) from thread-level parallelism.
//
// Emit machine-readable results with:
//   ./bench_micro_eval --benchmark_format=json
//
// Throughput appears as items_per_second (items = eval instances) per wall
// second: every registration uses real time, because under threading the
// main thread's CPU time understates the work. Per-instance CPU time is
// still cpu_time / instances ("instances" counter).

#include <benchmark/benchmark.h>

#include <memory>

#include "core/stisan.h"
#include "data/preprocess.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "tensor/kernels.h"

namespace stisan::bench {
namespace {

struct EvalFixture {
  data::Dataset dataset;
  data::Split split;
  std::unique_ptr<eval::CandidateGenerator> generator;
  std::unique_ptr<core::StisanModel> model;
};

EvalFixture& Fixture() {
  static EvalFixture* fx = [] {
    auto* f = new EvalFixture();
    f->dataset = data::GenerateSynthetic(data::GowallaLikeConfig(0.12));
    f->split = data::TrainTestSplit(f->dataset, {.max_seq_len = 16});
    if (f->split.test.size() > 64) f->split.test.resize(64);
    f->generator = std::make_unique<eval::CandidateGenerator>(f->dataset);
    core::StisanOptions options;
    options.poi_dim = 16;
    options.geo.dim = 16;
    options.geo.fourier_dim = 8;
    options.num_blocks = 2;
    f->model = std::make_unique<core::StisanModel>(f->dataset, options);
    return f;
  }();
  return *fx;
}

eval::EvalOptions Options(int64_t batch_size) {
  eval::EvalOptions options;
  options.num_negatives = 100;  // the paper protocol's candidate pool
  options.batch_size = batch_size;
  return options;
}

void Finish(benchmark::State& state) {
  const auto instances = static_cast<int64_t>(Fixture().split.test.size());
  state.SetItemsProcessed(state.iterations() * instances);
  state.counters["instances"] = static_cast<double>(instances);
}

/// Baseline: the pre-batching pipeline shape — one Score call per instance
/// through the legacy Scorer overload.
void BM_EvaluateSequential(benchmark::State& state) {
  auto& fx = Fixture();
  kernels::SetNumThreads(1);
  const eval::Scorer scorer = [&fx](const data::EvalInstance& instance,
                                    const std::vector<int64_t>& candidates) {
    return fx.model->Score(instance, candidates);
  };
  const auto options = Options(1);
  for (auto _ : state) {
    auto acc = eval::Evaluate(scorer, fx.split.test, *fx.generator, options);
    benchmark::DoNotOptimize(acc.count());
  }
  Finish(state);
}
BENCHMARK(BM_EvaluateSequential)->UseRealTime()->Unit(benchmark::kMillisecond);

/// The batched pipeline at batch size range(0). batch=1 measures pure
/// pipeline overhead; 8/32 measure the fused padded-batch forwards.
void BM_EvaluateBatched(benchmark::State& state) {
  auto& fx = Fixture();
  kernels::SetNumThreads(1);
  const auto options = Options(state.range(0));
  for (auto _ : state) {
    auto acc = eval::Evaluate(static_cast<eval::BatchScorer&>(*fx.model),
                              fx.split.test, *fx.generator, options);
    benchmark::DoNotOptimize(acc.count());
  }
  Finish(state);
}
BENCHMARK(BM_EvaluateBatched)->UseRealTime()->Arg(1)->Arg(8)->Arg(32)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace stisan::bench

BENCHMARK_MAIN();
