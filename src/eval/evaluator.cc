#include "eval/evaluator.h"

#include <sys/mman.h>

#include <algorithm>
#include <limits>

#include "obs/metrics.h"
#include "tensor/kernels.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace stisan::eval {
namespace {

std::vector<geo::GeoPoint> RealPoiCoords(const data::Dataset& dataset) {
  // Index id = poi - 1 (skips the padding POI 0).
  return {dataset.poi_coords.begin() + 1, dataset.poi_coords.end()};
}

// Per-thread scratch keeps Candidates allocation-free at steady state: the
// k-NN heap, its result buffer and the excluded index ids (visited POIs and
// the target, poi - 1), sorted.
struct CandidateScratch {
  geo::SpatialGridIndex::QueryScratch query;
  std::vector<int64_t> excluded;
  std::vector<int64_t> nearest;
};

CandidateScratch& ThreadScratch() {
  thread_local CandidateScratch scratch;
  return scratch;
}

/// Adapts a single-instance Scorer to the batched interface.
class ScorerAdapter : public BatchScorer {
 public:
  explicit ScorerAdapter(const Scorer& scorer) : scorer_(scorer) {}

  std::vector<std::vector<float>> ScoreBatch(
      const std::vector<const data::EvalInstance*>& instances,
      const std::vector<std::vector<int64_t>>& candidates) override {
    std::vector<std::vector<float>> out(instances.size());
    for (size_t i = 0; i < instances.size(); ++i) {
      out[i] = scorer_(*instances[i], candidates[i]);
    }
    return out;
  }

 private:
  const Scorer& scorer_;
};

}  // namespace

CandidateGenerator::CandidateGenerator(const data::Dataset& dataset)
    : dataset_(dataset),
      index_(RealPoiCoords(dataset)),
      row_length_(std::min(kRowLength, index_.size())) {
  const int64_t num_pois = index_.size();
  STISAN_CHECK_LE(num_pois, std::numeric_limits<int32_t>::max());
  if (num_pois == 0) return;
  row_slots_ = std::make_unique<RowSlot[]>(static_cast<size_t>(num_pois));
  // Room for a row per POI, reserved but not committed: only the pages the
  // packed rows reach are ever touched, and they are unmapped (not kept by
  // malloc) when the generator goes away.
  const size_t bytes =
      static_cast<size_t>(num_pois * row_length_) * sizeof(int32_t);
  void* rows = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  STISAN_CHECK_MSG(rows != MAP_FAILED,
                   "cannot map " << bytes << " bytes of candidate rows");
  rows_ = std::unique_ptr<int32_t, Unmap>(static_cast<int32_t*>(rows),
                                          Unmap{bytes});
}

void CandidateGenerator::Unmap::operator()(int32_t* rows) const {
  munmap(rows, bytes);
}

std::span<const int32_t> CandidateGenerator::Row(int64_t target) const {
  RowSlot& entry = row_slots_[static_cast<size_t>(target - 1)];
  std::call_once(entry.once, [&] {
    CandidateScratch& scratch = ThreadScratch();
    index_.KNearestInto(dataset_.poi_location(target), row_length_,
                        geo::AcceptAll{}, &scratch.query, &scratch.nearest);
    entry.slot = rows_used_.fetch_add(1, std::memory_order_relaxed);
    std::copy(scratch.nearest.begin(), scratch.nearest.end(),
              rows_.get() + entry.slot * row_length_);
  });
  return {rows_.get() + entry.slot * row_length_,
          static_cast<size_t>(row_length_)};
}

std::vector<int64_t> CandidateGenerator::Candidates(
    const data::EvalInstance& instance, int64_t num_negatives) const {
  const int64_t target = instance.target;
  STISAN_CHECK_MSG(target >= 1 && target <= index_.size(),
                   "target POI " << target << " is outside [1, "
                                 << index_.size() << "]");
  CandidateScratch& scratch = ThreadScratch();
  std::vector<int64_t>& excluded = scratch.excluded;
  excluded.clear();
  for (int64_t poi : instance.visited) excluded.push_back(poi - 1);
  excluded.push_back(target - 1);
  std::sort(excluded.begin(), excluded.end());
  const geo::RejectSortedIds accept{excluded};

  // The row is a prefix of every POI in (HaversineKm, id) order, and the
  // answer is the first accepted ids in that order: when the row holds
  // enough of them they are exactly the filtered ring search's result.
  const size_t want =
      1 + static_cast<size_t>(std::max<int64_t>(0, num_negatives));
  std::vector<int64_t> out;
  out.reserve(std::min(want, static_cast<size_t>(row_length_) + 1));
  out.push_back(target);
  if (want == 1) return out;
  for (int32_t id : Row(target)) {
    if (!accept(id)) continue;
    out.push_back(id + 1);
    if (out.size() == want) return out;
  }
  // A row holding every POI has already said all there is to say;
  // otherwise the exclusions (or num_negatives > kRowLength) ran past its
  // end, and the ring search answers.
  if (row_length_ == index_.size()) return out;
  index_.KNearestInto(dataset_.poi_location(target), num_negatives, accept,
                      &scratch.query, &scratch.nearest);
  out.resize(1);
  for (int64_t id : scratch.nearest) out.push_back(id + 1);
  return out;
}

MetricAccumulator Evaluate(BatchScorer& scorer,
                           const std::vector<data::EvalInstance>& test,
                           const CandidateGenerator& candidates,
                           const EvalOptions& options) {
  OBS_SCOPED_TIMER("eval/run");
  MetricAccumulator acc(options.cutoffs);
  const int64_t total = static_cast<int64_t>(test.size());
  const int64_t batch_size = std::max<int64_t>(1, options.batch_size);
  ThreadPool& pool = kernels::GlobalPool();
  static obs::Counter& instances = obs::GetCounter("eval/instances");
  static obs::Counter& batches = obs::GetCounter("eval/batches");

  for (int64_t begin = 0; begin < total; begin += batch_size) {
    const int64_t size = std::min(batch_size, total - begin);
    instances.Inc(static_cast<uint64_t>(size));
    batches.Inc();

    // Candidate generation is pure per instance, so each worker fills its
    // own slot and the scorer sees the same lists at any thread count.
    std::vector<std::vector<int64_t>> cand(static_cast<size_t>(size));
    {
      OBS_SCOPED_TIMER("eval/candidate_gen");
      ParallelFor(pool, size, [&](int64_t i) {
        cand[static_cast<size_t>(i)] =
            candidates.Candidates(test[static_cast<size_t>(begin + i)],
                                  options.num_negatives);
      });
    }

    std::vector<const data::EvalInstance*> batch(static_cast<size_t>(size));
    for (int64_t i = 0; i < size; ++i) {
      batch[static_cast<size_t>(i)] = &test[static_cast<size_t>(begin + i)];
    }
    std::vector<std::vector<float>> scores;
    {
      OBS_SCOPED_TIMER("eval/score_batch");
      scores = scorer.ScoreBatch(batch, cand);
    }
    STISAN_CHECK_EQ(static_cast<int64_t>(scores.size()), size);

    // Per-shard accumulation in instance order; Merge replays ranks, so the
    // final accumulator state is independent of the batch partitioning.
    MetricAccumulator shard(options.cutoffs);
    for (int64_t i = 0; i < size; ++i) {
      STISAN_CHECK_EQ(scores[static_cast<size_t>(i)].size(),
                      cand[static_cast<size_t>(i)].size());
      shard.Add(RankOfTarget(scores[static_cast<size_t>(i)],
                             /*target_index=*/0));
    }
    acc.Merge(shard);
  }
  return acc;
}

MetricAccumulator Evaluate(const Scorer& scorer,
                           const std::vector<data::EvalInstance>& test,
                           const CandidateGenerator& candidates,
                           const EvalOptions& options) {
  ScorerAdapter adapter(scorer);
  return Evaluate(adapter, test, candidates, options);
}

}  // namespace stisan::eval
