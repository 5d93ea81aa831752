// Microbenchmarks for the geographic substrate (google-benchmark).
//
// Besides the primitives, three rows run the k-NN shapes the benchmark
// workloads run, on the datasets they use:
//   BM_EvalCandidates99      eval::CandidateGenerator::Candidates(99) on
//                            the Gowalla-like preset, 30 visited POIs
//                            excluded, one instance per user
//   BM_EvalCandidatesStream  Candidates(99) over serve_stream's request
//                            stream (every check-in after a 5-visit warm
//                            prefix, in timestamp order, the next check-in
//                            as target): repeated targets on a warm
//                            generator, i.e. memoised-row walks
//   BM_EvalCandidatesStreamCold
//                            the stream's first request for each distinct
//                            target on a fresh generator: the first-sight
//                            cost (row build, then the walk)
//   BM_MetroPool500          stage-one pool of 500 on the 1e5-POI metro
//                            city with a 30-POI visited filter
//                            (catalog_city's RankCatalog)
//   BM_KnnSamplerBuild/T     train::KnnNegativeSampler(200) build on the
//                            Gowalla-like preset at T pool threads
//                            (offline_paper's model init)
// Compare runs with --benchmark_repetitions (5 by default here) and the
// real-time aggregates.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "geo/candidate_gen.h"
#include "geo/geo.h"
#include "geo/quadkey.h"
#include "geo/spatial_index.h"
#include "train/negative_sampler.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace stisan::geo {
namespace {

std::vector<GeoPoint> RandomCity(int64_t n, uint64_t seed) {
  Rng rng(seed);
  GeoPoint center{43.88, 125.35};
  std::vector<GeoPoint> pts;
  pts.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    pts.push_back(OffsetKm(center, rng.Normal(0, 8), rng.Normal(0, 8)));
  }
  return pts;
}

void BM_Haversine(benchmark::State& state) {
  GeoPoint a{43.88, 125.35}, b{43.99, 125.11};
  for (auto _ : state) {
    benchmark::DoNotOptimize(HaversineKm(a, b));
  }
}
BENCHMARK(BM_Haversine)->UseRealTime();

void BM_QuadKeyEncode(benchmark::State& state) {
  GeoPoint p{43.88, 125.35};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ToQuadKey(p, 17));
  }
}
BENCHMARK(BM_QuadKeyEncode)->UseRealTime();

void BM_IndexBuild(benchmark::State& state) {
  auto pts = RandomCity(state.range(0), 11);
  for (auto _ : state) {
    SpatialGridIndex index(pts);
    benchmark::DoNotOptimize(index.size());
  }
}
BENCHMARK(BM_IndexBuild)->UseRealTime()->Arg(1000)->Arg(10000);

void BM_KNearest100(benchmark::State& state) {
  auto pts = RandomCity(state.range(0), 13);
  SpatialGridIndex index(pts);
  Rng rng(17);
  for (auto _ : state) {
    const auto& q = pts[rng.UniformInt(static_cast<uint64_t>(pts.size()))];
    benchmark::DoNotOptimize(index.KNearest(q, 100));
  }
}
BENCHMARK(BM_KNearest100)->UseRealTime()->Arg(1000)->Arg(10000);

void BM_WithinRadius(benchmark::State& state) {
  auto pts = RandomCity(5000, 19);
  SpatialGridIndex index(pts);
  Rng rng(23);
  for (auto _ : state) {
    const auto& q = pts[rng.UniformInt(static_cast<uint64_t>(pts.size()))];
    benchmark::DoNotOptimize(index.WithinRadius(q, 4.0));
  }
}
BENCHMARK(BM_WithinRadius)->UseRealTime();

// ---- Workload shapes ----------------------------------------------------------

constexpr int kVisited = 30;

const data::Dataset& GowallaLike() {
  static const data::Dataset ds =
      data::GenerateSynthetic(data::GowallaLikeConfig(1.0));
  return ds;
}

const data::Dataset& Metro() {
  static const data::Dataset ds =
      data::GenerateSynthetic(data::MetroScaleConfig(1.0));
  return ds;
}

// One instance per user with at least kVisited + 1 check-ins: the first
// kVisited are visited, the next one is the target.
std::vector<data::EvalInstance> VisitedInstances(const data::Dataset& ds) {
  std::vector<data::EvalInstance> out;
  for (const auto& seq : ds.user_seqs) {
    if (seq.size() <= static_cast<size_t>(kVisited)) continue;
    data::EvalInstance inst;
    for (int j = 0; j < kVisited; ++j) {
      inst.visited.push_back(seq[static_cast<size_t>(j)].poi);
    }
    inst.target = seq[static_cast<size_t>(kVisited)].poi;
    out.push_back(std::move(inst));
  }
  return out;
}

void BM_EvalCandidates99(benchmark::State& state) {
  const data::Dataset& ds = GowallaLike();
  const eval::CandidateGenerator gen(ds);
  const auto instances = VisitedInstances(ds);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Candidates(instances[i], 99));
    i = (i + 1) % instances.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EvalCandidates99)->UseRealTime()->Repetitions(5);

// serve_stream's request stream: every check-in after each user's
// kWarmVisits-visit prefix that has a successor, in global timestamp
// order; the successor is the target and the history so far is visited.
constexpr size_t kWarmVisits = 5;

std::vector<data::EvalInstance> StreamInstances(const data::Dataset& ds) {
  struct Event {
    size_t user, k;
    double timestamp;
  };
  std::vector<Event> events;
  for (size_t u = 0; u < ds.user_seqs.size(); ++u) {
    const auto& seq = ds.user_seqs[u];
    for (size_t k = kWarmVisits; k + 1 < seq.size(); ++k) {
      events.push_back({u, k, seq[k].timestamp});
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     return a.timestamp < b.timestamp;
                   });
  std::vector<data::EvalInstance> out;
  out.reserve(events.size());
  for (const Event& ev : events) {
    const auto& seq = ds.user_seqs[ev.user];
    data::EvalInstance inst;
    for (size_t j = 0; j <= ev.k; ++j) inst.visited.push_back(seq[j].poi);
    inst.target = seq[ev.k + 1].poi;
    out.push_back(std::move(inst));
  }
  return out;
}

void BM_EvalCandidatesStream(benchmark::State& state) {
  const data::Dataset& ds = GowallaLike();
  const eval::CandidateGenerator gen(ds);
  const auto instances = StreamInstances(ds);
  // One pass first, so every target has its row.
  for (const auto& inst : instances) {
    benchmark::DoNotOptimize(gen.Candidates(inst, 99));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Candidates(instances[i], 99));
    i = (i + 1) % instances.size();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["requests"] = static_cast<double>(instances.size());
}
BENCHMARK(BM_EvalCandidatesStream)->UseRealTime()->Repetitions(5);

void BM_EvalCandidatesStreamCold(benchmark::State& state) {
  const data::Dataset& ds = GowallaLike();
  std::vector<data::EvalInstance> first_sight;
  std::vector<bool> seen(static_cast<size_t>(ds.num_pois()) + 1, false);
  for (auto& inst : StreamInstances(ds)) {
    if (seen[static_cast<size_t>(inst.target)]) continue;
    seen[static_cast<size_t>(inst.target)] = true;
    first_sight.push_back(std::move(inst));
  }
  for (auto _ : state) {
    state.PauseTiming();
    auto gen = std::make_unique<eval::CandidateGenerator>(ds);
    state.ResumeTiming();
    for (const auto& inst : first_sight) {
      benchmark::DoNotOptimize(gen->Candidates(inst, 99));
    }
    state.PauseTiming();
    gen.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(first_sight.size()));
  state.counters["targets"] = static_cast<double>(first_sight.size());
}
BENCHMARK(BM_EvalCandidatesStreamCold)
    ->UseRealTime()
    ->Repetitions(5)
    ->Unit(benchmark::kMillisecond);

void BM_MetroPool500(benchmark::State& state) {
  const data::Dataset& ds = Metro();
  const SpatialGridIndex index(std::vector<GeoPoint>(
      ds.poi_coords.begin() + 1, ds.poi_coords.end()));
  CandidatePoolOptions options;
  options.pool_size = 500;
  const CandidateGenerator gen(index, options);
  const auto instances = VisitedInstances(ds);
  // Per query, as serve::RecommendService does it: the visited index ids
  // (poi - 1) sorted into reused scratch, then stage one around the last.
  std::vector<int64_t> visited;
  SpatialGridIndex::QueryScratch scratch;
  std::vector<int64_t> pool;
  size_t i = 0;
  for (auto _ : state) {
    const data::EvalInstance& inst = instances[i];
    visited.clear();
    for (int64_t poi : inst.visited) visited.push_back(poi - 1);
    std::sort(visited.begin(), visited.end());
    gen.Generate(ds.poi_location(inst.visited.back()),
                 RejectSortedIds{visited}, &scratch, &pool);
    benchmark::DoNotOptimize(pool.data());
    i = (i + 1) % instances.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetroPool500)->UseRealTime()->Repetitions(5);

void BM_KnnSamplerBuild(benchmark::State& state) {
  const data::Dataset& ds = GowallaLike();
  const int64_t original = NumThreads();
  SetNumThreads(state.range(0));
  for (auto _ : state) {
    train::KnnNegativeSampler sampler(ds, 200);
    benchmark::DoNotOptimize(&sampler);
  }
  SetNumThreads(original);
}
BENCHMARK(BM_KnnSamplerBuild)
    ->UseRealTime()
    ->Repetitions(5)
    ->Unit(benchmark::kMillisecond)
    ->Arg(1)
    ->Arg(4);

}  // namespace
}  // namespace stisan::geo

BENCHMARK_MAIN();
