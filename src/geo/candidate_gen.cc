#include "geo/candidate_gen.h"

#include <algorithm>

#include "util/check.h"

namespace stisan::geo {

CandidateGenerator::CandidateGenerator(const SpatialGridIndex& index,
                                       CandidatePoolOptions options)
    : index_(index), options_(options) {
  STISAN_CHECK(options_.pool_size > 0 || options_.radius_km > 0.0);
}

void CandidateGenerator::ForEachQuery(
    int64_t n, ThreadPool* pool,
    const std::function<void(int64_t, SpatialGridIndex::QueryScratch*)>&
        query) const {
  if (n == 0) return;
  const int64_t workers =
      pool == nullptr ? 1
                      : std::clamp<int64_t>(pool->num_threads(), 1, n);
  while (static_cast<int64_t>(scratch_.size()) < workers) {
    scratch_.push_back(std::make_unique<SpatialGridIndex::QueryScratch>());
  }
  // Contiguous ranges, one scratch each; every pool slot is written by
  // exactly one worker, so the output is thread-count independent.
  // ParallelFor runs the ranges inline when called from inside a pool task.
  const int64_t chunk = (n + workers - 1) / workers;
  auto run_range = [&](int64_t slot) {
    SpatialGridIndex::QueryScratch* scratch =
        scratch_[static_cast<size_t>(slot)].get();
    const int64_t end = std::min(n, (slot + 1) * chunk);
    for (int64_t i = slot * chunk; i < end; ++i) query(i, scratch);
  };
  if (pool == nullptr) {
    run_range(0);
  } else {
    ParallelFor(*pool, workers, run_range);
  }
}

}  // namespace stisan::geo
