// Stage one of the two-stage full-catalog ranker (DESIGN.md §17): a
// geo-pruned candidate generator over the sparse SpatialGridIndex.
//
// For each query location it retrieves a candidate pool — the pool_size
// nearest accepted points (default), or every accepted point within
// radius_km — that stage two (eval::BatchScorer) then re-ranks. Batches of
// queries are partitioned into contiguous ranges across a caller-supplied
// thread pool (the evaluators pass the kernel backend's global pool); each
// range reuses one QueryScratch and the caller's output vectors, so the
// per-query hot path performs no allocations at steady state.
//
// Determinism: each pool is a pure function of (index, query, accept), and
// every output slot is written by exactly one worker, so results are
// identical at any thread count.

#pragma once

#include <concepts>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "geo/spatial_index.h"
#include "util/thread_pool.h"

namespace stisan::geo {

struct CandidatePoolOptions {
  /// k-nearest mode (the default): each pool holds the pool_size nearest
  /// accepted points, ascending by distance.
  int64_t pool_size = 500;
  /// > 0 switches to radius mode: each pool holds every accepted point
  /// within radius_km (unsorted, unbounded size).
  double radius_km = 0.0;
};

class CandidateGenerator {
 public:
  /// The index must outlive the generator.
  CandidateGenerator(const SpatialGridIndex& index,
                     CandidatePoolOptions options);

  /// Fills `out` with the pool for one query. `accept` is any callable
  /// bool(int64_t point id), bound statically. `scratch` (and `out`) are
  /// caller-owned and reused across calls — the allocation-free path.
  template <typename Accept>
    requires std::predicate<const Accept&, int64_t>
  void Generate(const GeoPoint& query, const Accept& accept,
                SpatialGridIndex::QueryScratch* scratch,
                std::vector<int64_t>* out) const {
    if (options_.radius_km > 0.0) {
      index_.WithinRadiusInto(query, options_.radius_km, out);
      std::erase_if(*out, [&accept](int64_t id) { return !accept(id); });
      return;
    }
    index_.KNearestInto(query, options_.pool_size, accept, scratch, out);
  }

  /// Batched stage one: fills (*pools)[i] with the pool for queries[i],
  /// keeping the points for which accept(i, id) is true, thread-pooled over
  /// contiguous query ranges of `pool` (pass GlobalPool(); nullptr runs
  /// serially). Safe to call from inside a task of `pool`, where the ranges
  /// run inline. `pools` is resized to the batch; existing vector capacity
  /// is reused. Not reentrant: concurrent GenerateBatch calls on the same
  /// generator must be externally serialised (the per-range scratch
  /// buffers are shared state).
  template <typename BatchAccept>
    requires std::predicate<const BatchAccept&, int64_t, int64_t>
  void GenerateBatch(const std::vector<GeoPoint>& queries,
                     const BatchAccept& accept, ThreadPool* pool,
                     std::vector<std::vector<int64_t>>* pools) const {
    pools->resize(queries.size());
    ForEachQuery(static_cast<int64_t>(queries.size()), pool,
                 [&](int64_t i, SpatialGridIndex::QueryScratch* scratch) {
                   Generate(queries[static_cast<size_t>(i)],
                            [&accept, i](int64_t id) { return accept(i, id); },
                            scratch, &(*pools)[static_cast<size_t>(i)]);
                 });
  }

  const SpatialGridIndex& index() const { return index_; }
  const CandidatePoolOptions& options() const { return options_; }

 private:
  /// Runs query(i, scratch) for every i in [0, n), over contiguous ranges
  /// of `pool` with one scratch per range, through ParallelFor (serially
  /// when `pool` is null or the caller is a task of a pool).
  void ForEachQuery(
      int64_t n, ThreadPool* pool,
      const std::function<void(int64_t, SpatialGridIndex::QueryScratch*)>&
          query) const;

  const SpatialGridIndex& index_;
  CandidatePoolOptions options_;
  /// One scratch per worker range, grown lazily and reused across batches.
  mutable std::vector<std::unique_ptr<SpatialGridIndex::QueryScratch>>
      scratch_;
};

}  // namespace stisan::geo
