#include "train/negative_sampler.h"

#include <algorithm>
#include <atomic>

#include "util/check.h"
#include "util/thread_pool.h"

namespace stisan::train {

std::vector<int64_t> UniformNegativeSampler::Sample(
    int64_t /*target_poi*/, int64_t count,
    const std::unordered_set<int64_t>& exclude, Rng& rng) const {
  STISAN_CHECK_GT(num_pois_, 0);
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(count));
  int64_t attempts = 0;
  const int64_t max_attempts = count * 50 + 100;
  while (static_cast<int64_t>(out.size()) < count &&
         attempts++ < max_attempts) {
    const int64_t p =
        1 + static_cast<int64_t>(rng.UniformInt(
                static_cast<uint64_t>(num_pois_)));
    if (!exclude.contains(p)) out.push_back(p);
  }
  // Degenerate exclude sets (tiny POI universes): pad with whatever exists.
  while (static_cast<int64_t>(out.size()) < count && num_pois_ > 0) {
    out.push_back(1 + static_cast<int64_t>(rng.UniformInt(
                          static_cast<uint64_t>(num_pois_))));
  }
  return out;
}

KnnNegativeSampler::KnnNegativeSampler(const data::Dataset& dataset,
                                       int64_t neighborhood)
    : num_pois_(dataset.num_pois()) {
  STISAN_CHECK_GT(neighborhood, 0);
  const geo::SpatialGridIndex index(std::vector<geo::GeoPoint>(
      dataset.poi_coords.begin() + 1, dataset.poi_coords.end()));
  width_ = std::min(neighborhood, std::max<int64_t>(0, num_pois_ - 1));
  neighbors_.assign(static_cast<size_t>((num_pois_ + 1) * width_), 0);

  // POIs are handed out one at a time to one scratch slot per pool thread.
  // Each list depends only on the index and its POI, and each row is
  // written by exactly one task, so the lists are identical at any pool
  // size (inline at one thread or inside a pool task).
  struct Slot {
    geo::SpatialGridIndex::QueryScratch scratch;
    std::vector<int64_t> ids;
  };
  // Sized here, on the calling thread, so workers allocate nothing
  // (DESIGN.md §2).
  ThreadPool& pool = GlobalPool();
  std::vector<Slot> slots(static_cast<size_t>(pool.num_threads()));
  for (Slot& slot : slots) {
    slot.scratch.heap.reserve(static_cast<size_t>(width_));
    slot.ids.reserve(static_cast<size_t>(width_));
  }
  std::atomic<int64_t> next_poi{1};
  ParallelFor(pool, static_cast<int64_t>(slots.size()), [&](int64_t s) {
    Slot& slot = slots[static_cast<size_t>(s)];
    for (int64_t p = next_poi.fetch_add(1, std::memory_order_relaxed);
         p <= num_pois_;
         p = next_poi.fetch_add(1, std::memory_order_relaxed)) {
      index.KNearestInto(dataset.poi_location(p), width_,
                         [p](int64_t id) { return id + 1 != p; },
                         &slot.scratch, &slot.ids);
      STISAN_CHECK_EQ(static_cast<int64_t>(slot.ids.size()), width_);
      int64_t* row = neighbors_.data() + p * width_;
      for (int64_t id : slot.ids) *row++ = id + 1;
    }
  });
}

std::span<const int64_t> KnnNegativeSampler::neighbors(int64_t poi) const {
  STISAN_CHECK_GE(poi, 1);
  STISAN_CHECK_LE(poi, num_pois_);
  return {neighbors_.data() + poi * width_, static_cast<size_t>(width_)};
}

std::vector<int64_t> KnnNegativeSampler::Sample(
    int64_t target_poi, int64_t count,
    const std::unordered_set<int64_t>& exclude, Rng& rng) const {
  const std::span<const int64_t> pool = neighbors(target_poi);
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(count));
  if (pool.empty()) {
    // No neighbours (single-POI degenerate dataset): fall back to uniform.
    UniformNegativeSampler fallback(num_pois_);
    return fallback.Sample(target_poi, count, exclude, rng);
  }
  int64_t attempts = 0;
  const int64_t max_attempts = count * 50 + 100;
  while (static_cast<int64_t>(out.size()) < count &&
         attempts++ < max_attempts) {
    const int64_t p = pool[rng.UniformInt(
        static_cast<uint64_t>(pool.size()))];
    if (!exclude.contains(p)) out.push_back(p);
  }
  while (static_cast<int64_t>(out.size()) < count) {
    out.push_back(pool[rng.UniformInt(static_cast<uint64_t>(pool.size()))]);
  }
  return out;
}

}  // namespace stisan::train
