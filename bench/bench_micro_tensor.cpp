// Microbenchmarks for the tensor/autograd substrate (google-benchmark).
//
// Emit machine-readable results with:
//   ./bench_micro_tensor --benchmark_format=json
//
// The *_Threads benchmarks take (size, threads) pairs; threads=0 means
// "hardware concurrency". Each run re-sizes the global kernel pool and
// reports the effective worker count in the "threads" counter, so serial vs
// threaded numbers can be compared from one binary.

#include <benchmark/benchmark.h>

#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace stisan {
namespace {

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, rng);
  Tensor b = Tensor::Randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::MatMul(a, b).data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatMul)->UseRealTime()->Arg(32)->Arg(64)->Arg(128);

void BM_MatMulBackward(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(2);
  Tensor a = Tensor::Randn({n, n}, rng, 1.0f, true);
  Tensor b = Tensor::Randn({n, n}, rng, 1.0f, true);
  for (auto _ : state) {
    a.ZeroGrad();
    b.ZeroGrad();
    Tensor loss = ops::Sum(ops::MatMul(a, b));
    loss.Backward();
    benchmark::DoNotOptimize(a.grad_data());
  }
}
BENCHMARK(BM_MatMulBackward)->UseRealTime()->Arg(32)->Arg(64);

void BM_Softmax(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(3);
  Tensor a = Tensor::Randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::Softmax(a).data());
  }
}
BENCHMARK(BM_Softmax)->UseRealTime()->Arg(64)->Arg(256);

void BM_LayerNorm(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(4);
  Tensor x = Tensor::Randn({n, 64}, rng);
  Tensor gamma = Tensor::Ones({64});
  Tensor beta = Tensor::Zeros({64});
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::LayerNorm(x, gamma, beta).data());
  }
}
BENCHMARK(BM_LayerNorm)->UseRealTime()->Arg(32)->Arg(128);

void BM_EmbeddingLookup(benchmark::State& state) {
  Rng rng(5);
  Tensor w = Tensor::Randn({10000, 64}, rng);
  std::vector<int64_t> ids(256);
  for (auto& id : ids) id = static_cast<int64_t>(rng.UniformInt(uint64_t{10000}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::EmbeddingLookup(w, ids).data());
  }
}
BENCHMARK(BM_EmbeddingLookup)->UseRealTime();

void BM_BroadcastAdd(benchmark::State& state) {
  Rng rng(6);
  Tensor a = Tensor::Randn({128, 64}, rng);
  Tensor b = Tensor::Randn({64}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize((a + b).data());
  }
}
BENCHMARK(BM_BroadcastAdd)->UseRealTime();

// ---- View vs copy shape ops -------------------------------------------------
// Reshape/Slice/TransposeLast2 are zero-copy views; pairing each with its
// materialised (Contiguous) counterpart shows what the refactor saves.

void BM_TransposeView(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(7);
  Tensor a = Tensor::Randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::TransposeLast2(a).storage_data());
  }
}
BENCHMARK(BM_TransposeView)->UseRealTime()->Arg(64)->Arg(256);

void BM_TransposeMaterialize(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(7);
  Tensor a = Tensor::Randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::TransposeLast2(a).Contiguous().data());
  }
}
BENCHMARK(BM_TransposeMaterialize)->UseRealTime()->Arg(64)->Arg(256);

void BM_SliceView(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(8);
  Tensor a = Tensor::Randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::Slice(a, 0, n / 4, 3 * n / 4).storage_data());
  }
}
BENCHMARK(BM_SliceView)->UseRealTime()->Arg(64)->Arg(256);

void BM_SliceInnerMaterialize(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(8);
  Tensor a = Tensor::Randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ops::Slice(a, 1, n / 4, 3 * n / 4).Contiguous().data());
  }
}
BENCHMARK(BM_SliceInnerMaterialize)->UseRealTime()->Arg(64)->Arg(256);

void BM_ReshapeView(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(9);
  Tensor a = Tensor::Randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::Reshape(a, {n * n}).storage_data());
  }
}
BENCHMARK(BM_ReshapeView)->UseRealTime()->Arg(64)->Arg(256);

// ---- Serial vs threaded kernels ---------------------------------------------

void BM_MatMulThreads(benchmark::State& state) {
  const int64_t n = state.range(0);
  kernels::SetNumThreads(state.range(1));
  Rng rng(10);
  Tensor a = Tensor::Randn({n, n}, rng);
  Tensor b = Tensor::Randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::MatMul(a, b).data());
  }
  state.counters["threads"] = static_cast<double>(kernels::NumThreads());
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  kernels::SetNumThreads(0);
}
BENCHMARK(BM_MatMulThreads)->UseRealTime()
    ->Args({128, 1})
    ->Args({128, 0})
    ->Args({256, 1})
    ->Args({256, 0});

void BM_SoftmaxThreads(benchmark::State& state) {
  const int64_t n = state.range(0);
  kernels::SetNumThreads(state.range(1));
  Rng rng(11);
  Tensor a = Tensor::Randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::Softmax(a).data());
  }
  state.counters["threads"] = static_cast<double>(kernels::NumThreads());
  kernels::SetNumThreads(0);
}
BENCHMARK(BM_SoftmaxThreads)->UseRealTime()->Args({256, 1})->Args({256, 0});

}  // namespace
}  // namespace stisan

BENCHMARK_MAIN();
