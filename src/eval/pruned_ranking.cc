#include "eval/pruned_ranking.h"

#include <algorithm>
#include <unordered_set>

#include "eval/ranking_core.h"
#include "obs/metrics.h"
#include "tensor/kernels.h"
#include "util/check.h"

namespace stisan::eval {

geo::SpatialGridIndex BuildCatalogIndex(const data::Dataset& dataset,
                                        double cell_km) {
  // Index id = poi - 1 (skips the padding POI 0).
  return geo::SpatialGridIndex(
      {dataset.poi_coords.begin() + 1, dataset.poi_coords.end()}, cell_km);
}

PrunedRankingResult PrunedRankingEvaluate(
    BatchScorer& scorer, const std::vector<data::EvalInstance>& test,
    const data::Dataset& dataset, const geo::CandidateGenerator& candidates,
    const PrunedRankingOptions& options) {
  STISAN_CHECK_GE(options.chunk_size, 1);
  STISAN_CHECK_EQ(candidates.index().size(), dataset.num_pois());
  OBS_SCOPED_TIMER("eval/pruned_ranking");
  static obs::Counter& instances_counter =
      obs::GetCounter("ranking/pruned_instances");
  static obs::Counter& hits_counter = obs::GetCounter("ranking/pool_hits");
  static obs::Counter& misses_counter =
      obs::GetCounter("ranking/pool_misses");
  static obs::Histogram& pool_size_hist =
      obs::GetHistogram("ranking/pool_size", obs::CountBounds());

  PrunedRankingResult result{MetricAccumulator(options.cutoffs), {}, 0, 0,
                             0.0};
  if (options.top_k_out != nullptr) options.top_k_out->clear();

  int64_t total = static_cast<int64_t>(test.size());
  if (options.max_instances > 0) {
    total = std::min(total, options.max_instances);
  }
  result.target_in_pool.reserve(static_cast<size_t>(total));
  const int64_t batch_size = std::max<int64_t>(1, options.batch_size);
  ThreadPool& pool = kernels::GlobalPool();
  double pool_size_sum = 0.0;

  std::vector<geo::GeoPoint> queries;
  std::vector<std::vector<int64_t>> pools;
  for (int64_t begin = 0; begin < total; begin += batch_size) {
    const int64_t size = std::min(batch_size, total - begin);
    instances_counter.Inc(static_cast<uint64_t>(size));

    // Stage one: pool of unvisited POIs (plus the target, which stays
    // eligible even on a revisit) around each user's most recent check-in.
    std::vector<const data::EvalInstance*> batch(static_cast<size_t>(size));
    std::vector<std::unordered_set<int64_t>> visited(
        static_cast<size_t>(size));
    std::vector<uint8_t> has_query(static_cast<size_t>(size), 0);
    queries.assign(static_cast<size_t>(size), geo::GeoPoint{});
    for (int64_t i = 0; i < size; ++i) {
      const auto& instance = test[static_cast<size_t>(begin + i)];
      batch[static_cast<size_t>(i)] = &instance;
      visited[static_cast<size_t>(i)].insert(instance.visited.begin(),
                                             instance.visited.end());
      const int64_t last_poi =
          instance.poi.empty() ? data::kPaddingPoi : instance.poi.back();
      if (last_poi != data::kPaddingPoi) {
        has_query[static_cast<size_t>(i)] = 1;
        queries[static_cast<size_t>(i)] = dataset.poi_location(last_poi);
      }
    }
    const auto accept =
        [&](int64_t i, int64_t id) {
          if (has_query[static_cast<size_t>(i)] == 0) return false;
          const int64_t poi = id + 1;
          return poi == batch[static_cast<size_t>(i)]->target ||
                 !visited[static_cast<size_t>(i)].contains(poi);
        };
    {
      OBS_SCOPED_TIMER("ranking/stage1");
      candidates.GenerateBatch(queries, accept, &pool, &pools);
    }

    // Pool bookkeeping: shift ids to POIs, pull the target out (it is
    // scored separately; leaving it in would tie against itself).
    std::vector<uint8_t> in_pool(static_cast<size_t>(size), 0);
    for (int64_t i = 0; i < size; ++i) {
      auto& p = pools[static_cast<size_t>(i)];
      pool_size_hist.Observe(static_cast<double>(p.size()));
      pool_size_sum += static_cast<double>(p.size());
      const int64_t target = batch[static_cast<size_t>(i)]->target;
      for (auto& id : p) id += 1;
      const auto it = std::remove(p.begin(), p.end(), target);
      in_pool[static_cast<size_t>(i)] = it != p.end() ? 1 : 0;
      p.erase(it, p.end());
      if (in_pool[static_cast<size_t>(i)] != 0) {
        hits_counter.Inc();
      } else {
        misses_counter.Inc();
      }
    }

    // Stage two: chunked re-rank of each pool against the target.
    std::vector<int64_t> cursor(static_cast<size_t>(size), 0);
    const auto next_chunk = [&](int64_t item, std::vector<int64_t>* chunk) {
      const auto& p = pools[static_cast<size_t>(item)];
      int64_t& at = cursor[static_cast<size_t>(item)];
      const int64_t end = std::min(
          static_cast<int64_t>(p.size()), at + options.chunk_size);
      chunk->insert(chunk->end(), p.begin() + at, p.begin() + end);
      at = end;
    };
    internal::StreamRankOptions stream_options;
    stream_options.track_top_k = options.track_top_k;
    stream_options.target_in_candidates = &in_pool;
    internal::StreamRankResult ranked;
    {
      OBS_SCOPED_TIMER("ranking/stage2");
      ranked = internal::StreamRankBatch(scorer, batch, next_chunk,
                                         stream_options);
    }

    MetricAccumulator shard(options.cutoffs);
    for (int64_t i = 0; i < size; ++i) {
      // A stage-one miss can never be recommended: score it as ranked
      // behind the whole catalog rather than trusting the in-pool count.
      const int64_t rank = in_pool[static_cast<size_t>(i)] != 0
                               ? ranked.ranks[static_cast<size_t>(i)]
                               : dataset.num_pois();
      shard.Add(rank);
      result.target_in_pool.push_back(in_pool[static_cast<size_t>(i)]);
      result.pool_hits += in_pool[static_cast<size_t>(i)] != 0 ? 1 : 0;
    }
    result.metrics.Merge(shard);
    result.instances += size;
    if (options.top_k_out != nullptr && options.track_top_k > 0) {
      options.top_k_out->insert(options.top_k_out->end(),
                                ranked.top_k.begin(), ranked.top_k.end());
    }
  }
  result.mean_pool_size =
      result.instances > 0
          ? pool_size_sum / static_cast<double>(result.instances)
          : 0.0;
  return result;
}

}  // namespace stisan::eval
