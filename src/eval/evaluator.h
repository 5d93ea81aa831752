// Evaluation harness implementing the paper's protocol (§IV-C): for each
// test instance, rank the target POI against its 100 nearest previously
// unvisited POIs and accumulate HR@k / NDCG@k.
//
// The pipeline is batched and parallel: candidate lists are generated
// concurrently on the kernel thread pool and instances are streamed through
// a BatchScorer in fixed-size batches. Metrics are accumulated in instance
// order, so the result is bit-identical to a sequential evaluation at any
// thread count and batch size.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "data/types.h"
#include "eval/batch_scorer.h"
#include "eval/metrics.h"
#include "geo/spatial_index.h"

namespace stisan::eval {

/// Builds candidate lists: target first, then the num_negatives nearest
/// previously-unvisited POIs around the target.
///
/// Each target's kRowLength nearest POIs are memoised on its first request
/// (DESIGN.md §9), so a repeated target costs a walk over its row instead
/// of a ring search. The answer is the same either way.
class CandidateGenerator {
 public:
  explicit CandidateGenerator(const data::Dataset& dataset);

  /// Returns [target, neg_1, ..., neg_m] with m <= num_negatives (fewer on
  /// tiny POI sets). Negatives exclude the target and every POI in
  /// instance.visited. The target must be a POI in [1, P]. Thread-safe:
  /// safe to call concurrently, and the result depends only on the
  /// arguments.
  std::vector<int64_t> Candidates(const data::EvalInstance& instance,
                                  int64_t num_negatives) const;

  const geo::SpatialGridIndex& index() const { return index_; }

 private:
  /// Length of a memoised row. A serve_stream request needs at most 134
  /// to find 99 unvisited negatives, so no request there falls back to the
  /// ring search (DESIGN.md §9).
  static constexpr int64_t kRowLength = 160;

  /// Unmaps the row storage.
  struct Unmap {
    size_t bytes;
    void operator()(int32_t* rows) const;
  };
  /// A target's row slot, assigned under `once` on its first request.
  struct RowSlot {
    std::once_flag once;
    int32_t slot = 0;
  };

  /// The target's row: its min(kRowLength, P) nearest POIs (index ids) in
  /// ascending (HaversineKm, id) order, built on first use.
  std::span<const int32_t> Row(int64_t target) const;

  const data::Dataset& dataset_;
  geo::SpatialGridIndex index_;  // over POIs 1..P at index id poi-1
  int64_t row_length_;           // min(kRowLength, P)
  /// Slots by index id; rows are packed in first-use order into an
  /// anonymous mapping that goes back to the OS with the generator.
  std::unique_ptr<RowSlot[]> row_slots_;
  std::unique_ptr<int32_t, Unmap> rows_;
  mutable std::atomic<int32_t> rows_used_{0};
};

struct EvalOptions {
  int64_t num_negatives = 100;
  std::vector<int64_t> cutoffs = {5, 10};
  /// Instances scored per BatchScorer call (>= 1). Does not affect results.
  int64_t batch_size = 32;
};

/// A scoring function: given a test instance and its candidate list,
/// returns one score per candidate (higher = more likely next POI).
using Scorer = std::function<std::vector<float>(
    const data::EvalInstance&, const std::vector<int64_t>&)>;

/// Runs the full protocol through the batched pipeline and returns the
/// accumulated metrics (in test order).
MetricAccumulator Evaluate(BatchScorer& scorer,
                           const std::vector<data::EvalInstance>& test,
                           const CandidateGenerator& candidates,
                           const EvalOptions& options = {});

/// Single-instance scorer convenience: wraps `scorer` in a per-instance
/// BatchScorer adapter and runs the same pipeline. Results are identical.
MetricAccumulator Evaluate(const Scorer& scorer,
                           const std::vector<data::EvalInstance>& test,
                           const CandidateGenerator& candidates,
                           const EvalOptions& options = {});

}  // namespace stisan::eval
