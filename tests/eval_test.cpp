#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_set>
#include <utility>

#include "data/preprocess.h"
#include "util/rng.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "eval/metrics.h"
#include "util/thread_pool.h"

namespace stisan::eval {
namespace {

TEST(RankTest, TargetFirst) {
  EXPECT_EQ(RankOfTarget({5.0f, 1.0f, 2.0f}, 0), 0);
}

TEST(RankTest, TargetLast) {
  EXPECT_EQ(RankOfTarget({0.5f, 1.0f, 2.0f}, 0), 2);
}

TEST(RankTest, TiesArePessimistic) {
  // Everything equal: target ranks behind all others.
  EXPECT_EQ(RankOfTarget({1.0f, 1.0f, 1.0f}, 0), 2);
}

TEST(RankTest, TargetNotAtIndexZero) {
  EXPECT_EQ(RankOfTarget({1.0f, 9.0f, 2.0f}, 1), 0);
}

TEST(RankTest, NanCandidatesRankAsNegativeInfinity) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // A NaN candidate compares false against everything; pre-fix the `>=`
  // test silently skipped it, which happened to be right, but the contract
  // is now explicit: NaN candidates never outrank the target.
  EXPECT_EQ(RankOfTarget({1.0f, nan, nan}, 0), 0);
  EXPECT_EQ(RankOfTarget({nan, 2.0f, 1.0f, nan}, 1), 0);
  // Finite candidates around the NaN still count normally.
  EXPECT_EQ(RankOfTarget({1.0f, nan, 5.0f}, 0), 1);
}

TEST(RankDeathTest, NonFiniteTargetScoreAborts) {
  // A NaN target would compare false against every candidate and claim a
  // spurious perfect rank 0 — it must hard-fail instead.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_DEATH(RankOfTarget({nan, 1.0f}, 0), "target score must be finite");
  EXPECT_DEATH(RankOfTarget({1.0f, inf}, 1), "target score must be finite");
}

// ---- Bootstrap quantiles -------------------------------------------------------

TEST(QuantileTest, NearestRankRoundsInsteadOfTruncating) {
  // n=21, q=0.975: q*(n-1) = 19.5 — truncation picked 19 and dragged the
  // upper CI endpoint low; nearest-rank rounds to 20.
  EXPECT_EQ(QuantileNearestRankIndex(21, 0.975), 20u);
  EXPECT_EQ(QuantileNearestRankIndex(21, 0.025), 1u);  // 0.5 rounds up
  EXPECT_EQ(QuantileNearestRankIndex(1000, 0.975), 974u);
  EXPECT_EQ(QuantileNearestRankIndex(1000, 0.025), 25u);
}

TEST(QuantileTest, EndpointsClampToValidIndices) {
  EXPECT_EQ(QuantileNearestRankIndex(1, 0.5), 0u);
  EXPECT_EQ(QuantileNearestRankIndex(10, 0.0), 0u);
  EXPECT_EQ(QuantileNearestRankIndex(10, 1.0), 9u);
}

TEST(BootstrapTest, DegenerateRankVectorsPinCi) {
  // Every resample of an all-hit vector has HR = 1, so both nearest-rank
  // endpoints are exactly 1 (and symmetrically 0 for all-miss).
  Rng rng(123);
  auto all_hit =
      BootstrapHitRateCi(std::vector<int64_t>(50, 0), 10, 0.95, rng);
  EXPECT_EQ(all_hit.lo, 1.0);
  EXPECT_EQ(all_hit.hi, 1.0);
  auto all_miss =
      BootstrapHitRateCi(std::vector<int64_t>(50, 99), 10, 0.95, rng);
  EXPECT_EQ(all_miss.lo, 0.0);
  EXPECT_EQ(all_miss.hi, 0.0);
}

TEST(BootstrapTest, MixedRanksCiBracketsSampleMean) {
  // 30 hits, 10 misses at k=10: sample HR = 0.75. A 95% percentile CI over
  // 1000 resamples must straddle the point estimate strictly.
  std::vector<int64_t> ranks(30, 3);
  ranks.insert(ranks.end(), 10, 42);
  Rng rng(7);
  auto ci = BootstrapHitRateCi(ranks, 10, 0.95, rng);
  EXPECT_LT(ci.lo, 0.75);
  EXPECT_GT(ci.hi, 0.75);
  EXPECT_GE(ci.lo, 0.0);
  EXPECT_LE(ci.hi, 1.0);
  EXPECT_LT(ci.hi - ci.lo, 0.5);  // n=40 is small but not that small
}

TEST(MetricTest, HitRate) {
  EXPECT_EQ(HitRateAtK(2, 5), 1.0);
  EXPECT_EQ(HitRateAtK(5, 5), 0.0);
  EXPECT_EQ(HitRateAtK(0, 1), 1.0);
}

TEST(MetricTest, NdcgValues) {
  EXPECT_DOUBLE_EQ(NdcgAtK(0, 5), 1.0);
  EXPECT_DOUBLE_EQ(NdcgAtK(1, 5), 1.0 / std::log2(3.0));
  EXPECT_DOUBLE_EQ(NdcgAtK(5, 5), 0.0);
}

TEST(MetricTest, NdcgNeverExceedsHr) {
  for (int64_t rank = 0; rank < 12; ++rank) {
    EXPECT_LE(NdcgAtK(rank, 10), HitRateAtK(rank, 10));
  }
}

TEST(AccumulatorTest, MeansOverInstances) {
  MetricAccumulator acc({5, 10});
  acc.Add(0);   // hit both
  acc.Add(7);   // hit @10 only
  acc.Add(20);  // miss both
  EXPECT_EQ(acc.count(), 3);
  EXPECT_NEAR(acc.HitRate(5), 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(acc.HitRate(10), 2.0 / 3.0, 1e-9);
  auto means = acc.Means();
  EXPECT_NEAR(means.at("HR@5"), 1.0 / 3.0, 1e-9);
  EXPECT_GT(means.at("NDCG@10"), 0.0);
  EXPECT_LT(means.at("NDCG@10"), means.at("HR@10"));
}

// ---- Merge ---------------------------------------------------------------------

TEST(AccumulatorMergeTest, EmptyIntoEmpty) {
  MetricAccumulator a({5, 10});
  MetricAccumulator b({5, 10});
  a.Merge(b);
  EXPECT_EQ(a.count(), 0);
  EXPECT_TRUE(a.ranks().empty());
  EXPECT_EQ(a.HitRate(5), 0.0);
}

TEST(AccumulatorMergeTest, EmptyIsIdentityOnBothSides) {
  MetricAccumulator filled({5, 10});
  filled.Add(0);
  filled.Add(7);
  MetricAccumulator empty({5, 10});

  MetricAccumulator left = filled;
  left.Merge(empty);
  EXPECT_EQ(left.count(), 2);
  EXPECT_EQ(left.Means(), filled.Means());
  EXPECT_EQ(left.ranks(), filled.ranks());

  MetricAccumulator right({5, 10});
  right.Merge(filled);
  EXPECT_EQ(right.count(), 2);
  EXPECT_EQ(right.Means(), filled.Means());
  EXPECT_EQ(right.ranks(), filled.ranks());
}

TEST(AccumulatorMergeTest, DisjointShardsMatchSequentialBitwise) {
  // Merging per-shard accumulators in instance order must reproduce the
  // sequential accumulation exactly (same double sums, same rank order).
  const std::vector<int64_t> ranks = {0, 3, 7, 12, 1, 99, 4, 6, 2, 10, 5};
  MetricAccumulator sequential({5, 10});
  for (int64_t r : ranks) sequential.Add(r);

  for (size_t shard_size : {1u, 3u, 4u, 100u}) {
    MetricAccumulator merged({5, 10});
    for (size_t begin = 0; begin < ranks.size(); begin += shard_size) {
      MetricAccumulator shard({5, 10});
      for (size_t i = begin; i < std::min(begin + shard_size, ranks.size());
           ++i) {
        shard.Add(ranks[i]);
      }
      merged.Merge(shard);
    }
    EXPECT_EQ(merged.count(), sequential.count());
    EXPECT_EQ(merged.ranks(), sequential.ranks());
    // Bit-exact double comparison, not EXPECT_NEAR: the merge contract.
    const auto lhs = merged.Means();
    const auto rhs = sequential.Means();
    ASSERT_EQ(lhs.size(), rhs.size());
    for (const auto& [key, value] : lhs) EXPECT_EQ(value, rhs.at(key)) << key;
    EXPECT_EQ(merged.MeanReciprocalRank(), sequential.MeanReciprocalRank());
  }
}

TEST(AccumulatorMergeDeathTest, MismatchedCutoffsAbort) {
  MetricAccumulator a({5, 10});
  MetricAccumulator b({5, 20});  // overlaps at 5 but differs at the tail
  b.Add(1);
  EXPECT_DEATH(a.Merge(b), "cutoffs");
}

// ---- Candidate generation -----------------------------------------------------

class CandidateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = data::GenerateSynthetic(data::GowallaLikeConfig(0.1));
    split_ = data::TrainTestSplit(ds_, {.max_seq_len = 10});
    gen_ = std::make_unique<CandidateGenerator>(ds_);
  }
  data::Dataset ds_;
  data::Split split_;
  std::unique_ptr<CandidateGenerator> gen_;
};

TEST_F(CandidateTest, TargetFirstAndExcluded) {
  ASSERT_FALSE(split_.test.empty());
  for (size_t k = 0; k < std::min<size_t>(10, split_.test.size()); ++k) {
    const auto& inst = split_.test[k];
    auto cands = gen_->Candidates(inst, 100);
    ASSERT_FALSE(cands.empty());
    EXPECT_EQ(cands[0], inst.target);
    std::unordered_set<int64_t> visited(inst.visited.begin(),
                                        inst.visited.end());
    for (size_t i = 1; i < cands.size(); ++i) {
      EXPECT_NE(cands[i], inst.target);
      EXPECT_FALSE(visited.contains(cands[i]))
          << "candidate " << cands[i] << " was previously visited";
    }
  }
}

TEST_F(CandidateTest, NegativesAreNearTarget) {
  const auto& inst = split_.test[0];
  auto cands = gen_->Candidates(inst, 20);
  const auto& target_loc = ds_.poi_location(inst.target);
  // All negatives within the distance of the 300th nearest POI overall.
  double max_neg = 0;
  for (size_t i = 1; i < cands.size(); ++i) {
    max_neg = std::max(
        max_neg, geo::HaversineKm(target_loc, ds_.poi_location(cands[i])));
  }
  // Count how many POIs are closer than the farthest negative; should be
  // roughly the number of candidates (plus visited exclusions).
  int64_t closer = 0;
  for (int64_t p = 1; p <= ds_.num_pois(); ++p) {
    if (geo::HaversineKm(target_loc, ds_.poi_location(p)) < max_neg) ++closer;
  }
  EXPECT_LE(closer, 20 + static_cast<int64_t>(inst.visited.size()) + 1);
}

TEST_F(CandidateTest, NoDuplicatesAndRespectsBudget) {
  for (size_t k = 0; k < std::min<size_t>(20, split_.test.size()); ++k) {
    const auto& inst = split_.test[k];
    for (int64_t budget : {1, 7, 100}) {
      auto cands = gen_->Candidates(inst, budget);
      EXPECT_LE(static_cast<int64_t>(cands.size()), budget + 1);
      std::unordered_set<int64_t> seen(cands.begin(), cands.end());
      EXPECT_EQ(seen.size(), cands.size()) << "duplicate candidate";
      for (int64_t c : cands) {
        EXPECT_GE(c, 1);
        EXPECT_LE(c, ds_.num_pois());
      }
    }
  }
}

TEST(CandidateTinyPoiSetTest, FewerNegativesThanRequested) {
  // Five POIs, two of them visited: at most 2 negatives can exist
  // (5 - target - 2 visited), however many are requested.
  data::Dataset ds;
  ds.name = "tiny";
  ds.poi_coords.resize(6);  // entry 0 = padding
  for (int64_t p = 1; p <= 5; ++p) {
    ds.poi_coords[static_cast<size_t>(p)] = {40.0 + 0.01 * double(p), -74.0};
  }
  ds.user_seqs = {{{1, 0.0}, {2, 3600.0}}};

  data::EvalInstance inst;
  inst.user = 0;
  inst.poi = {1, 2};
  inst.t = {0.0, 3600.0};
  inst.target = 3;
  inst.visited = {1, 2};

  CandidateGenerator gen(ds);
  auto cands = gen.Candidates(inst, 100);
  ASSERT_FALSE(cands.empty());
  EXPECT_EQ(cands[0], inst.target);
  EXPECT_EQ(cands.size(), 3u);  // target + the 2 unvisited POIs {4, 5}
  std::unordered_set<int64_t> seen(cands.begin(), cands.end());
  EXPECT_EQ(seen, (std::unordered_set<int64_t>{3, 4, 5}));

  // A budget below the available pool is honoured exactly.
  auto one = gen.Candidates(inst, 1);
  EXPECT_EQ(one.size(), 2u);
  EXPECT_EQ(one[0], inst.target);
}

TEST_F(CandidateTest, EvaluatePerfectAndWorstScorers) {
  // A scorer that always puts the target on top -> HR@5 = 1.
  Scorer perfect = [](const data::EvalInstance&,
                      const std::vector<int64_t>& cands) {
    std::vector<float> s(cands.size(), 0.0f);
    s[0] = 1.0f;
    return s;
  };
  auto acc = Evaluate(perfect, split_.test, *gen_, {});
  EXPECT_EQ(acc.HitRate(5), 1.0);
  EXPECT_EQ(acc.Ndcg(10), 1.0);

  // A constant scorer: pessimistic tie-breaking ranks the target last.
  Scorer constant = [](const data::EvalInstance&,
                       const std::vector<int64_t>& cands) {
    return std::vector<float>(cands.size(), 0.5f);
  };
  auto worst = Evaluate(constant, split_.test, *gen_, {});
  EXPECT_EQ(worst.HitRate(10), 0.0);
}

TEST_F(CandidateTest, RandomScorerNearChance) {
  Rng rng(123);
  Scorer random = [&rng](const data::EvalInstance&,
                         const std::vector<int64_t>& cands) {
    std::vector<float> s(cands.size());
    for (auto& v : s) v = rng.UniformFloat(0, 1);
    return s;
  };
  auto acc = Evaluate(random, split_.test, *gen_, {});
  // With 101 candidates, HR@10 under chance is ~0.099.
  EXPECT_NEAR(acc.HitRate(10), 0.099, 0.08);
}

// ---- Nearest-POI row memo ------------------------------------------------------
//
// Candidates answers from a memoised row of the target's 160 nearest POIs
// and falls back to the filtered ring search when the row runs out. Both
// oracles below skip the memo: the direct filtered KNearestInto and brute
// force over (HaversineKm, poi) order.

// [target, the k nearest non-excluded POIs by (HaversineKm, poi)].
std::vector<int64_t> BruteCandidates(const data::Dataset& ds,
                                     const data::EvalInstance& inst,
                                     int64_t k) {
  const std::unordered_set<int64_t> excluded(inst.visited.begin(),
                                             inst.visited.end());
  const geo::GeoPoint& q = ds.poi_location(inst.target);
  std::vector<std::pair<double, int64_t>> all;
  for (int64_t p = 1; p <= ds.num_pois(); ++p) {
    if (p == inst.target || excluded.contains(p)) continue;
    all.emplace_back(geo::HaversineKm(q, ds.poi_location(p)), p);
  }
  std::sort(all.begin(), all.end());
  std::vector<int64_t> out = {inst.target};
  for (int64_t i = 0; i < k && i < static_cast<int64_t>(all.size()); ++i) {
    out.push_back(all[static_cast<size_t>(i)].second);
  }
  return out;
}

// The same list from one filtered ring search, as Candidates computed it
// before rows were memoised.
std::vector<int64_t> DirectCandidates(const CandidateGenerator& gen,
                                      const data::Dataset& ds,
                                      const data::EvalInstance& inst,
                                      int64_t k) {
  std::vector<int64_t> excluded = {inst.target - 1};
  for (int64_t poi : inst.visited) excluded.push_back(poi - 1);
  std::sort(excluded.begin(), excluded.end());
  geo::SpatialGridIndex::QueryScratch scratch;
  std::vector<int64_t> nearest;
  gen.index().KNearestInto(ds.poi_location(inst.target), k,
                           geo::RejectSortedIds{excluded}, &scratch,
                           &nearest);
  std::vector<int64_t> out = {inst.target};
  for (int64_t id : nearest) out.push_back(id + 1);
  return out;
}

constexpr int64_t kMemoBudgets[] = {0, 1, 99, 160, 210};

// Every budget, each asked twice (the second call reads the memo), against
// both oracles.
void ExpectMatchesOracles(const CandidateGenerator& gen,
                          const data::Dataset& ds,
                          const data::EvalInstance& inst,
                          const std::string& context) {
  for (int64_t k : kMemoBudgets) {
    const auto brute = BruteCandidates(ds, inst, k);
    EXPECT_EQ(DirectCandidates(gen, ds, inst, k), brute)
        << context << " k=" << k;
    EXPECT_EQ(gen.Candidates(inst, k), brute) << context << " k=" << k;
    EXPECT_EQ(gen.Candidates(inst, k), brute)
        << context << " k=" << k << " (repeat)";
  }
}

// Every prefix of the first users' sequences: targets recur within and
// across users, with growing visited sets.
std::vector<data::EvalInstance> PrefixInstances(const data::Dataset& ds,
                                                size_t users) {
  std::vector<data::EvalInstance> out;
  for (size_t u = 0; u < std::min(users, ds.user_seqs.size()); ++u) {
    const auto& seq = ds.user_seqs[u];
    data::EvalInstance inst;
    for (size_t j = 0; j + 1 < seq.size(); ++j) {
      inst.visited.push_back(seq[j].poi);
      inst.target = seq[j + 1].poi;
      out.push_back(inst);
    }
  }
  return out;
}

TEST_F(CandidateTest, MemoMatchesOraclesOnRepeatedTargets) {
  const auto instances = PrefixInstances(ds_, 6);
  std::unordered_set<int64_t> targets;
  for (const auto& inst : instances) targets.insert(inst.target);
  ASSERT_LT(targets.size(), instances.size()) << "no target repeats";
  for (size_t i = 0; i < instances.size(); ++i) {
    ExpectMatchesOracles(*gen_, ds_, instances[i],
                         "instance " + std::to_string(i));
  }
}

TEST_F(CandidateTest, MemoFallsBackWhenExclusionsExhaustTheRow) {
  // Visit the target's nearest 150 POIs: its 160-long row then holds at
  // most 9 acceptable ids, fewer than 99, so the ring search answers.
  for (int64_t target : {int64_t{1}, int64_t{17}, ds_.num_pois()}) {
    data::EvalInstance inst;
    inst.target = target;
    const auto nearest = BruteCandidates(ds_, inst, 150);
    inst.visited.assign(nearest.begin() + 1, nearest.end());
    ExpectMatchesOracles(*gen_, ds_, inst,
                         "exhausted target " + std::to_string(target));
    // And the same target without exclusions still reads its row.
    inst.visited.clear();
    ExpectMatchesOracles(*gen_, ds_, inst,
                         "plain target " + std::to_string(target));
  }
}

// A dataset of `n` POIs (entry 0 is the padding POI) and no users.
data::Dataset PoiOnlyDataset(std::vector<geo::GeoPoint> pois) {
  data::Dataset ds;
  ds.name = "pois";
  ds.poi_coords.push_back({0.0, 0.0});
  ds.poi_coords.insert(ds.poi_coords.end(), pois.begin(), pois.end());
  return ds;
}

TEST(CandidateMemoTest, PoiSetSmallerThanTheRow) {
  Rng rng(7);
  std::vector<geo::GeoPoint> pois;
  for (int i = 0; i < 50; ++i) {
    pois.push_back(geo::OffsetKm({40.7, -74.0}, rng.Normal(0, 2.0),
                                 rng.Normal(0, 2.0)));
  }
  const data::Dataset ds = PoiOnlyDataset(pois);
  const CandidateGenerator gen(ds);
  for (int64_t target = 1; target <= ds.num_pois(); ++target) {
    data::EvalInstance inst;
    inst.target = target;
    inst.visited = {target % 50 + 1, (target * 7) % 50 + 1};
    ExpectMatchesOracles(gen, ds, inst, "target " + std::to_string(target));
  }
}

TEST(CandidateMemoTest, EquidistantTiesBreakByPoi) {
  // Four copies of every point of a dyadic lattice mirrored across the
  // query meridian: distances tie exactly in groups, and the 160-long row
  // ends inside a tie group.
  const double step = 1.0 / 256.0;
  std::vector<geo::GeoPoint> pois;
  for (int copy = 0; copy < 4; ++copy) {
    for (int i = -3; i <= 3; ++i) {
      for (int j = 0; j <= 5; ++j) {
        pois.push_back({10.0 + step * i, step * j});
        if (j > 0) pois.push_back({10.0 + step * i, -step * j});
      }
    }
  }
  ASSERT_GT(pois.size(), 160u);
  const data::Dataset ds = PoiOnlyDataset(pois);
  const CandidateGenerator gen(ds);
  for (int64_t target : {int64_t{1}, int64_t{4}, int64_t{45}, int64_t{200}}) {
    data::EvalInstance inst;
    inst.target = target;
    ExpectMatchesOracles(gen, ds, inst, "target " + std::to_string(target));
    inst.visited = {target + 1, target + 2, 3, 90};
    ExpectMatchesOracles(gen, ds, inst,
                         "visited target " + std::to_string(target));
  }
}

TEST_F(CandidateTest, MemoConcurrentRepeatedTargetsAtAnyPoolSize) {
  // Each instance appears eight times, interleaved, so concurrent calls
  // race to build the same rows; every list must equal the serial answer.
  const auto base = PrefixInstances(ds_, 3);
  std::vector<data::EvalInstance> instances;
  for (int rep = 0; rep < 8; ++rep) {
    instances.insert(instances.end(), base.begin(), base.end());
  }
  std::vector<std::vector<int64_t>> serial;
  for (const auto& inst : instances) {
    serial.push_back(DirectCandidates(*gen_, ds_, inst, 99));
  }
  for (int64_t threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    const CandidateGenerator gen(ds_);
    std::vector<std::vector<int64_t>> out(instances.size());
    ParallelFor(pool, static_cast<int64_t>(instances.size()),
                [&](int64_t i) {
                  out[static_cast<size_t>(i)] =
                      gen.Candidates(instances[static_cast<size_t>(i)], 99);
                });
    EXPECT_EQ(out, serial) << "threads=" << threads;
  }
}

TEST(CandidateMemoDeathTest, TargetOutsidePoiRangeAborts) {
  const data::Dataset ds = PoiOnlyDataset(
      {{40.0, -74.0}, {40.01, -74.0}, {40.02, -74.0}});
  const CandidateGenerator gen(ds);
  data::EvalInstance inst;
  for (int64_t target : {int64_t{0}, int64_t{-2}, int64_t{4}}) {
    inst.target = target;
    EXPECT_DEATH(gen.Candidates(inst, 2), "outside \\[1, 3\\]")
        << "target=" << target;
  }
}

}  // namespace
}  // namespace stisan::eval
