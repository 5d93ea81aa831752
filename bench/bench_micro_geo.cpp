// Microbenchmarks for the geographic substrate (google-benchmark).

#include <benchmark/benchmark.h>

#include "geo/geo.h"
#include "geo/quadkey.h"
#include "geo/spatial_index.h"
#include "util/rng.h"

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

}  // namespace
}  // namespace stisan::geo

BENCHMARK_MAIN();
