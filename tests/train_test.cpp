#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>
#include <vector>

#include "data/synthetic.h"
#include "geo/geo.h"
#include "train/loss.h"
#include "train/negative_sampler.h"
#include "util/thread_pool.h"

namespace stisan::train {
namespace {

// ---- Losses ------------------------------------------------------------------

TEST(WeightedBceTest, PerfectScoresGiveLowLoss) {
  Tensor pos = Tensor::Full({4}, 10.0f);
  Tensor neg = Tensor::Full({4, 3}, -10.0f);
  Tensor loss = WeightedBceLoss(pos, neg, 1.0f);
  EXPECT_LT(loss.data()[0], 1e-3f);
}

TEST(WeightedBceTest, WrongScoresGiveHighLoss) {
  Tensor pos = Tensor::Full({4}, -10.0f);
  Tensor neg = Tensor::Full({4, 3}, 10.0f);
  EXPECT_GT(WeightedBceLoss(pos, neg, 1.0f).data()[0], 5.0f);
}

TEST(WeightedBceTest, HardNegativesDominateAtLowTemperature) {
  // One hard negative (high score) among easy ones. At T -> 0 the weight
  // concentrates on the hard negative; at huge T weights become uniform, so
  // the low-T loss must exceed the high-T loss.
  Tensor pos = Tensor::Full({1}, 2.0f);
  Tensor neg = Tensor::FromVector({1, 3}, {3.0f, -5.0f, -5.0f});
  const float low_t = WeightedBceLoss(pos, neg, 0.1f).data()[0];
  const float high_t = WeightedBceLoss(pos, neg, 1000.0f).data()[0];
  EXPECT_GT(low_t, high_t);
}

TEST(WeightedBceTest, GradientsFlowToLogitsNotWeights) {
  Tensor pos = Tensor::Zeros({2}, true);
  Tensor neg = Tensor::Zeros({2, 3}, true);
  Tensor loss = WeightedBceLoss(pos, neg, 1.0f);
  loss.Backward();
  EXPECT_TRUE(pos.has_grad());
  EXPECT_TRUE(neg.has_grad());
  // Positive logit gradient is -sigmoid(-y)/m = -0.5/2.
  EXPECT_NEAR(pos.grad_data()[0], -0.25f, 1e-5f);
}

TEST(BceTest, SymmetricAtZero) {
  Tensor pos = Tensor::Zeros({3});
  Tensor neg = Tensor::Zeros({3, 1});
  // -log(0.5) * 2 per step.
  EXPECT_NEAR(BceLoss(pos, neg).data()[0], 2.0f * std::log(2.0f), 1e-5f);
}

TEST(BprTest, OrderingDrivesLoss) {
  Tensor pos = Tensor::Full({4}, 2.0f);
  Tensor neg = Tensor::Full({4}, -2.0f);
  EXPECT_LT(BprLoss(pos, neg).data()[0], BprLoss(neg, pos).data()[0]);
}

// ---- Samplers ----------------------------------------------------------------

TEST(UniformSamplerTest, ProducesValidIdsAvoidingExcluded) {
  UniformNegativeSampler sampler(50);
  Rng rng(5);
  std::unordered_set<int64_t> exclude = {7, 8, 9};
  for (int trial = 0; trial < 20; ++trial) {
    auto ids = sampler.Sample(7, 10, exclude, rng);
    EXPECT_EQ(ids.size(), 10u);
    for (int64_t id : ids) {
      EXPECT_GE(id, 1);
      EXPECT_LE(id, 50);
      EXPECT_FALSE(exclude.contains(id));
    }
  }
}

TEST(UniformSamplerTest, CoversTheRange) {
  UniformNegativeSampler sampler(20);
  Rng rng(6);
  std::unordered_set<int64_t> seen;
  for (int i = 0; i < 100; ++i) {
    for (int64_t id : sampler.Sample(1, 5, {}, rng)) seen.insert(id);
  }
  EXPECT_GT(seen.size(), 15u);
}

TEST(KnnSamplerTest, NegativesComeFromNeighborhood) {
  auto ds = data::GenerateSynthetic(data::GowallaLikeConfig(0.1));
  const int64_t k_neighborhood = 30;
  KnnNegativeSampler sampler(ds, k_neighborhood);
  Rng rng(7);
  const int64_t target = 5;
  const auto& target_loc = ds.poi_location(target);

  // Radius of the 30-NN ball around the target (brute force).
  std::vector<double> dists;
  for (int64_t p = 1; p <= ds.num_pois(); ++p) {
    if (p != target) {
      dists.push_back(geo::HaversineKm(target_loc, ds.poi_location(p)));
    }
  }
  std::sort(dists.begin(), dists.end());
  const double radius = dists[k_neighborhood - 1] + 1e-9;

  for (int trial = 0; trial < 10; ++trial) {
    auto ids = sampler.Sample(target, 8, {target}, rng);
    EXPECT_EQ(ids.size(), 8u);
    for (int64_t id : ids) {
      EXPECT_NE(id, target);
      EXPECT_LE(geo::HaversineKm(target_loc, ds.poi_location(id)), radius);
    }
  }
}

TEST(KnnSamplerTest, NeighborListsIdenticalAtAnyPoolSize) {
  // The lists are built one POI per task on the process pool. They must not
  // depend on the pool size, and building inside a pool task (where
  // ParallelFor runs inline) must neither deadlock nor change them.
  const auto ds = data::GenerateSynthetic(data::GowallaLikeConfig(0.2));
  const int64_t k = 40;
  const auto lists_of = [&ds](const KnnNegativeSampler& sampler) {
    std::vector<std::vector<int64_t>> lists;
    for (int64_t p = 1; p <= ds.num_pois(); ++p) {
      const auto row = sampler.neighbors(p);
      lists.emplace_back(row.begin(), row.end());
    }
    return lists;
  };
  const int64_t original = NumThreads();
  SetNumThreads(1);
  const auto reference = lists_of(KnnNegativeSampler(ds, k));
  for (int64_t threads : {2, 4}) {
    SetNumThreads(threads);
    EXPECT_EQ(lists_of(KnnNegativeSampler(ds, k)), reference)
        << "threads=" << threads;
  }
  std::vector<std::vector<std::vector<int64_t>>> nested(2);
  ParallelFor(GlobalPool(), 2, [&](int64_t i) {
    nested[static_cast<size_t>(i)] = lists_of(KnnNegativeSampler(ds, k));
  });
  SetNumThreads(original);
  for (const auto& lists : nested) EXPECT_EQ(lists, reference);

  // Each list is the k other POIs nearest by (distance, id), id for id.
  for (int64_t p : {int64_t{1}, ds.num_pois() / 2, ds.num_pois()}) {
    std::vector<std::pair<double, int64_t>> all;
    for (int64_t q = 1; q <= ds.num_pois(); ++q) {
      if (q == p) continue;
      all.emplace_back(
          geo::HaversineKm(ds.poi_location(p), ds.poi_location(q)), q);
    }
    std::sort(all.begin(), all.end());
    std::vector<int64_t> expected;
    for (int64_t i = 0; i < k; ++i) {
      expected.push_back(all[static_cast<size_t>(i)].second);
    }
    EXPECT_EQ(reference[static_cast<size_t>(p - 1)], expected) << "poi " << p;
  }
}

TEST(KnnSamplerTest, DifferentTargetsDifferentPools) {
  auto ds = data::GenerateSynthetic(data::GowallaLikeConfig(0.1));
  KnnNegativeSampler sampler(ds, 10);
  Rng rng(8);
  // Two distant targets should yield disjoint-ish negative pools.
  int64_t a = 1;
  int64_t b = a;
  double best = 0;
  for (int64_t p = 2; p <= ds.num_pois(); ++p) {
    const double d =
        geo::HaversineKm(ds.poi_location(a), ds.poi_location(p));
    if (d > best) {
      best = d;
      b = p;
    }
  }
  std::unordered_set<int64_t> pool_a, pool_b;
  for (int i = 0; i < 30; ++i) {
    for (int64_t id : sampler.Sample(a, 5, {a}, rng)) pool_a.insert(id);
    for (int64_t id : sampler.Sample(b, 5, {b}, rng)) pool_b.insert(id);
  }
  int64_t overlap = 0;
  for (int64_t id : pool_a) {
    if (pool_b.contains(id)) ++overlap;
  }
  EXPECT_LT(overlap, 3);
}

}  // namespace
}  // namespace stisan::train
