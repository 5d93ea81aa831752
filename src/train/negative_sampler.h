// Negative sampling strategies for model training.
//
// The paper (following GeoSAN [23]) draws L = 15 negatives for each target
// from the target's nearest 2000 POIs, which the weighted loss then
// re-weights by informativeness. A uniform sampler is provided for the
// baselines whose original papers use it (SASRec, BPR, ...), and for
// ablations.

#pragma once

#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "data/types.h"
#include "geo/spatial_index.h"
#include "util/rng.h"

namespace stisan::train {

/// Interface: produce `count` negative POI ids for a given target POI,
/// avoiding ids in `exclude` (typically the target itself).
class NegativeSampler {
 public:
  virtual ~NegativeSampler() = default;
  virtual std::vector<int64_t> Sample(
      int64_t target_poi, int64_t count,
      const std::unordered_set<int64_t>& exclude, Rng& rng) const = 0;
};

/// Uniform over all POIs 1..P.
class UniformNegativeSampler : public NegativeSampler {
 public:
  explicit UniformNegativeSampler(int64_t num_pois) : num_pois_(num_pois) {}

  std::vector<int64_t> Sample(int64_t target_poi, int64_t count,
                              const std::unordered_set<int64_t>& exclude,
                              Rng& rng) const override;

 private:
  int64_t num_pois_;
};

/// Draws negatives uniformly from the target's `neighborhood` nearest POIs
/// (GeoSAN's importance-based sampling, paper §III-H). Neighbour lists are
/// precomputed once per dataset, one POI per task on the process pool; the
/// lists are identical at any pool size.
class KnnNegativeSampler : public NegativeSampler {
 public:
  /// `neighborhood` = how many nearest POIs form the candidate pool
  /// (paper: 2000; scaled datasets use less).
  KnnNegativeSampler(const data::Dataset& dataset, int64_t neighborhood);

  std::vector<int64_t> Sample(int64_t target_poi, int64_t count,
                              const std::unordered_set<int64_t>& exclude,
                              Rng& rng) const override;

  /// The nearest min(neighborhood, P - 1) other POIs of `poi` in 1..P,
  /// ascending by (distance, id).
  std::span<const int64_t> neighbors(int64_t poi) const;

 private:
  int64_t num_pois_;
  /// Every POI has the same number of neighbours, so the lists are rows of
  /// one flat array: row p holds POI p's list (row 0, the padding POI, is
  /// unused).
  int64_t width_ = 0;
  std::vector<int64_t> neighbors_;
};

}  // namespace stisan::train
