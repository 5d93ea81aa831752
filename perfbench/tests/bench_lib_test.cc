// Unit tests of the benchmark's own rules: the percentile rule, span
// self-time arithmetic, the capacity ladder search and the arrival schedule.
//
//   cmake --build .bench_build --target perfbench_test
//   .bench_build/perfbench_test

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "bench_lib.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> OneToN(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileRule, ThousandSamplesGiveP99) {
  const Summary s = Summarize(OneToN(1000));
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.tail_pct, 99.0);
  EXPECT_DOUBLE_EQ(s.tail, 990.0);  // exactly 10 samples beyond it
  EXPECT_DOUBLE_EQ(s.p50, 500.0);
}

TEST(PercentileRule, TwoHundredSamplesGiveP95) {
  const Summary s = Summarize(OneToN(200));
  EXPECT_DOUBLE_EQ(s.tail_pct, 95.0);
  EXPECT_DOUBLE_EQ(s.tail, 190.0);
}

TEST(PercentileRule, LadderBoundaries) {
  EXPECT_DOUBLE_EQ(TailPercentile(999), 95.0);
  EXPECT_DOUBLE_EQ(TailPercentile(10000), 99.9);
  EXPECT_DOUBLE_EQ(TailPercentile(100), 90.0);
  EXPECT_DOUBLE_EQ(TailPercentile(40), 75.0);
  EXPECT_DOUBLE_EQ(TailPercentile(5), 50.0);
}

TEST(PercentileRule, UnsortedInputAndInfinity) {
  std::vector<double> v = OneToN(1000);
  std::reverse(v.begin(), v.end());
  v[0] = std::numeric_limits<double>::infinity();  // a failed request
  const Summary s = Summarize(v);
  EXPECT_DOUBLE_EQ(s.tail, 990.0);
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

Span MakeSpan(int64_t id, int64_t parent, double start, double end) {
  Span s;
  s.name = "layer" + std::to_string(id) + ".x";
  s.id = id;
  s.parent = parent;
  s.start = start;
  s.end = end;
  return s;
}

TEST(SelfTime, NestedSpans) {
  // root [0, 10] with children [1, 4] and [3, 6] (overlapping -> union
  // [1, 6]) and a grandchild [2, 3] inside the first child.
  const std::vector<Span> spans = {MakeSpan(1, 0, 0, 10), MakeSpan(2, 1, 1, 4),
                                   MakeSpan(3, 1, 3, 6), MakeSpan(4, 2, 2, 3)};
  const std::vector<double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 5.0);  // 10 - |[1, 6]|
  EXPECT_DOUBLE_EQ(self[1], 2.0);  // 3 - 1
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 1.0);
}

TEST(SelfTime, ChildrenClippedToParent) {
  const std::vector<Span> spans = {MakeSpan(1, 0, 0, 4), MakeSpan(2, 1, 3, 9)};
  const std::vector<double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 3.0);
  EXPECT_DOUBLE_EQ(self[1], 6.0);
  const auto layers = LayerSelfTimes(spans);
  EXPECT_DOUBLE_EQ(layers.at("layer1"), 3.0);
  EXPECT_DOUBLE_EQ(layers.at("layer2"), 6.0);
}

TEST(SelfTime, TracerNestsOpenSpansAndDisabledRecordsNothing) {
  Tracer on(true);
  {
    ScopedSpan outer(on, "a.outer");
    ScopedSpan inner(on, "b.inner", 7);
  }
  const auto spans = on.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].request, 7);
  EXPECT_GE(spans[0].end, spans[1].end);
  Tracer off(false);
  { ScopedSpan s(off, "a.x"); }
  EXPECT_TRUE(off.spans().empty());
  EXPECT_NE(ChromeTraceJson(spans).find("\"ph\": \"X\""), std::string::npos);
}

// Stub latency model: an M/M/1-like queue with service rate mu. Tail
// latency grows as 1 / (mu - rate) and goodput collapses past mu.
ProbeResult Stub(double rate, double mu) {
  ProbeResult p;
  if (rate >= mu) {
    p.tail_ms = 1e6;
    p.goodput_ratio = mu / rate;
  } else {
    p.tail_ms = 1e3 * 4.6 / (mu - rate);  // p99 of an exponential sojourn
    p.goodput_ratio = 1.0;
  }
  return p;
}

TEST(LadderSearch, FindsHighestPassingRungAndInterpolates) {
  const std::vector<double> ladder = GeometricLadder(50, 6400, 4);
  ASSERT_EQ(ladder.front(), 50.0);
  ASSERT_EQ(ladder.back(), 6400.0);
  int calls = 0;
  // Limit 10 ms with mu = 1000 passes below 540 req/s.
  const LadderResult r = SearchMaxRate(
      ladder, [&](double rate) { ++calls; return Stub(rate, 1000.0); }, 10.0,
      0.98);
  EXPECT_EQ(r.probes, calls);
  EXPECT_LE(calls, 6);  // ~log2(29 rungs)
  EXPECT_EQ(r.highest_passing_rung, 476.0);
  EXPECT_GT(r.max_rate, 476.0);
  EXPECT_LT(r.max_rate, 566.0);  // the next rung
  for (double rung : ladder) {
    if (rung <= r.highest_passing_rung) {
      EXPECT_LE(Stub(rung, 1000.0).tail_ms, 10.0);
    }
  }
}

TEST(LadderSearch, GoodputCriterionAndEdges) {
  const std::vector<double> ladder = {100, 200, 400, 800};
  // Latency always fine, goodput fails from 400 on.
  auto goodput_only = [](double rate) {
    return ProbeResult{1.0, rate >= 400 ? 0.5 : 1.0};
  };
  LadderResult r = SearchMaxRate(ladder, goodput_only, 10.0, 0.98);
  EXPECT_EQ(r.highest_passing_rung, 200.0);
  EXPECT_NEAR(r.max_rate, 200.0 + 200.0 * (0.02 / 0.5), 1e-9);
  // Everything passes: the top rung, no interpolation.
  r = SearchMaxRate(ladder, [](double) { return ProbeResult{1.0, 1.0}; }, 10.0,
                    0.98);
  EXPECT_EQ(r.max_rate, 800.0);
  // Nothing passes.
  r = SearchMaxRate(ladder, [](double) { return ProbeResult{50.0, 1.0}; }, 10.0,
                    0.98);
  EXPECT_EQ(r.max_rate, 0.0);
}

TEST(PoissonSchedule, DeterministicPerSeed) {
  const auto a = PoissonSchedule(500.0, 2000, 42);
  const auto b = PoissonSchedule(500.0, 2000, 42);
  const auto c = PoissonSchedule(500.0, 2000, 43);
  ASSERT_EQ(a.size(), 2000u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  for (size_t i = 1; i < a.size(); ++i) EXPECT_GT(a[i], a[i - 1]);
  // Mean gap 1/rate within a few standard errors (sd of the mean ~2.2%).
  const double mean_gap = a.back() / static_cast<double>(a.size());
  EXPECT_NEAR(mean_gap, 1.0 / 500.0, 0.1 / 500.0);
}

}  // namespace
}  // namespace perfbench
