#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace stisan {
namespace {

// ---- Status / Result ---------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad dim");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad dim");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad dim");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kIoError, StatusCode::kUnimplemented,
        StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(c), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseMacros(int x, int* out) {
  STISAN_ASSIGN_OR_RETURN(int half, HalveEven(x));
  *out = half;
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseMacros(8, &out).ok());
  EXPECT_EQ(out, 4);
  EXPECT_FALSE(UseMacros(7, &out).ok());
}

// ---- Rng ---------------------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.NextU64() == b.NextU64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(uint64_t{10}));
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 9u);
}

TEST(RngTest, SignedUniformIntBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(int64_t{-5}, int64_t{5});
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  const int n = 50000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(19);
  std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) counts[rng.Categorical(w)]++;
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2] / 20000.0, 0.75, 0.02);
}

TEST(RngTest, ZipfIsSkewed) {
  Rng rng(23);
  int first = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i)
    if (rng.Zipf(100, 1.2) == 0) ++first;
  // Rank 0 must dominate a uniform draw (~1%).
  EXPECT_GT(first, n / 20);
}

TEST(RngTest, CategoricalWithTotalMatchesSummingOverload) {
  // Seeded random weight vectors, some with zeros, some with a single
  // positive weight: the precomputed-total overload must draw the same
  // index sequence as Categorical(weights).
  Rng gen(37);
  for (int trial = 0; trial < 60; ++trial) {
    const size_t n = 1 + gen.UniformInt(uint64_t{40});
    std::vector<double> w(n);
    for (auto& x : w) x = gen.Bernoulli(0.3) ? 0.0 : 10.0 * gen.Uniform();
    if (trial % 4 == 0) {
      std::fill(w.begin(), w.end(), 0.0);
      w[gen.UniformInt(static_cast<uint64_t>(n))] = 0.1 + gen.Uniform();
    }
    double total = 0.0;
    for (double x : w) total += x;
    if (total == 0.0) continue;  // both overloads require a positive weight
    Rng a(100 + static_cast<uint64_t>(trial));
    Rng b(100 + static_cast<uint64_t>(trial));
    for (int i = 0; i < 200; ++i) {
      ASSERT_EQ(a.Categorical(w), b.Categorical(w, total))
          << "trial=" << trial << " draw=" << i;
    }
  }
}

TEST(RngTest, ZipfAtMostUnitAlphaAboveTableSizeTerminates) {
  // Rejection sampling needs alpha > 1: for alpha < 1 every candidate falls
  // below 1 and for alpha = 1 the exponent is -inf, so Zipf(5000, alpha)
  // used to spin forever. It now draws from the exact weight table.
  const size_t n = 5000;
  EXPECT_FALSE(Rng::ZipfDrawsFromTable(n, 1.2));
  for (double alpha : {0.8, 1.0}) {
    ASSERT_TRUE(Rng::ZipfDrawsFromTable(n, alpha));
    const auto table = Rng::ZipfWeights(n, alpha);
    Rng a(41), b(41);
    int first = 0;
    const int draws = 2000;
    for (int i = 0; i < draws; ++i) {
      const size_t z = a.Zipf(n, alpha);
      ASSERT_LT(z, n);
      ASSERT_EQ(z, b.Categorical(table)) << "alpha=" << alpha;
      first += z == 0;
    }
    // Rank 0 must dominate a uniform draw (1 / 5000).
    EXPECT_GT(first, draws / 100) << "alpha=" << alpha;
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(29);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ForkIndependent) {
  Rng a(31);
  Rng b = a.Fork();
  EXPECT_NE(a.NextU64(), b.NextU64());
}

// ---- Strings -----------------------------------------------------------------

TEST(StringTest, SplitBasic) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringTest, SplitEmpty) {
  auto parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringTest, Trim) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringTest, ParseDouble) {
  auto r = ParseDouble(" 3.5 ");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value(), 3.5);
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("1.2x").ok());
}

TEST(StringTest, ParseInt64) {
  auto r = ParseInt64("-42");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), -42);
  EXPECT_FALSE(ParseInt64("12.5").ok());
}

TEST(StringTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
}

// ---- ParallelFor chunking ----------------------------------------------------

TEST(ParallelForTest, ZeroIterationsNeverTouchesPool) {
  ThreadPool pool(2);
  bool called = false;
  ParallelFor(pool, 0, [&called](int64_t) { called = true; });
  EXPECT_FALSE(called);
  ParallelFor(pool, -5, [&called](int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, SingleIterationRunsInline) {
  // n=1 collapses to one chunk; it must execute on the calling thread, not
  // through the queue (avoids wakeup latency and, for a one-thread pool
  // driven from a worker, deadlock).
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  ParallelFor(pool, 1, [&ran_on](int64_t) {
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, caller);
}

TEST(ParallelForTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int64_t> sum{0};
  bool off_thread = false;
  ParallelFor(pool, 100, [&](int64_t i) {
    if (std::this_thread::get_id() != caller) off_thread = true;
    sum += i;
  });
  EXPECT_FALSE(off_thread);
  EXPECT_EQ(sum.load(), 100 * 99 / 2);
}

TEST(ParallelForTest, CoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  // Sizes around chunk boundaries: chunks = min(n, threads*4) = min(n, 16).
  for (int64_t n : {1, 2, 15, 16, 17, 257}) {
    std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
    for (auto& h : hits) h = 0;
    ParallelFor(pool, n, [&hits](int64_t i) { hits[i]++; });
    for (int64_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

// ---- Exception safety --------------------------------------------------------

TEST(ThreadPoolTest, WaitRethrowsTaskException) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("boom"); });
  try {
    pool.Wait();
    FAIL() << "expected Wait() to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  // The exception slot is cleared and in_flight_ drained back to zero: the
  // pool stays usable and a second Wait() neither deadlocks nor rethrows.
  pool.Wait();
  std::atomic<int> ran{0};
  pool.Submit([&ran] { ran++; });
  pool.Wait();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolTest, AllTasksRunEvenWhenEveryOneThrows) {
  ThreadPool pool(4);
  std::atomic<int> started{0};
  for (int i = 0; i < 32; ++i) {
    pool.Submit([&started] {
      started++;
      throw std::runtime_error("boom");
    });
  }
  // Only the first exception survives; the in-flight count must still reach
  // zero (pre-fix, the decrement was skipped on throw and Wait() hung).
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  EXPECT_EQ(started.load(), 32);
  pool.Wait();  // drained and cleared
}

TEST(ThreadPoolTest, TaskCountersTrackSubmissions) {
  ThreadPool pool(2);
  const uint64_t submitted0 = pool.tasks_submitted();
  const uint64_t completed0 = pool.tasks_completed();
  for (int i = 0; i < 8; ++i) pool.Submit([] {});
  pool.Wait();
  EXPECT_EQ(pool.tasks_submitted() - submitted0, 8u);
  EXPECT_EQ(pool.tasks_completed() - completed0, 8u);
}

TEST(ParallelForTest, BodyExceptionRethrownOnCallingThread) {
  ThreadPool pool(4);
  // Throw at the last index of the last chunk so every index still runs;
  // other chunks are never cancelled.
  std::atomic<int64_t> visited{0};
  try {
    ParallelFor(pool, 64, [&visited](int64_t i) {
      visited++;
      if (i == 63) throw std::invalid_argument("bad index");
    });
    FAIL() << "expected ParallelFor to rethrow";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "bad index");
  }
  EXPECT_EQ(visited.load(), 64);
  // Pool reusable afterwards.
  std::atomic<int64_t> sum{0};
  ParallelFor(pool, 10, [&sum](int64_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ParallelForTest, InlineChunkExceptionPropagatesDirectly) {
  // n=1 collapses to the inline path (no pool involvement): the exception
  // must still reach the caller.
  ThreadPool pool(2);
  EXPECT_THROW(
      ParallelFor(pool, 1, [](int64_t) { throw std::runtime_error("x"); }),
      std::runtime_error);
}

// ---- Nesting and the process-wide pool ---------------------------------------

TEST(ParallelForTest, NestedOnSamePoolRunsInlineInsteadOfDeadlocking) {
  // Wait() counts the calling task as in flight, so an inner ParallelFor
  // that submitted to its own pool from a worker would never return.
  ThreadPool pool(4);
  EXPECT_FALSE(InPoolTask());
  std::vector<std::atomic<int64_t>> sums(8);
  std::atomic<int> off_task_thread{0};
  ParallelFor(pool, 8, [&](int64_t outer) {
    EXPECT_TRUE(InPoolTask());
    const std::thread::id task_thread = std::this_thread::get_id();
    ParallelFor(pool, 100, [&](int64_t inner) {
      if (std::this_thread::get_id() != task_thread) off_task_thread++;
      sums[static_cast<size_t>(outer)] += inner;
    });
  });
  for (const auto& sum : sums) EXPECT_EQ(sum.load(), 100 * 99 / 2);
  EXPECT_EQ(off_task_thread.load(), 0);
  EXPECT_FALSE(InPoolTask());
}

TEST(GlobalPoolTest, SetNumThreadsResizesAndStatsFollowTheLivePool) {
  const int64_t original = NumThreads();
  SetNumThreads(3);
  EXPECT_EQ(NumThreads(), 3);
  EXPECT_EQ(&GlobalPool(), &GlobalPool());
  std::atomic<int64_t> sum{0};
  ParallelFor(GlobalPool(), 30, [&sum](int64_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 30 * 29 / 2);
  const GlobalPoolStats stats = ReadGlobalPoolStats();
  EXPECT_EQ(stats.num_threads, 3);
  EXPECT_EQ(stats.tasks_submitted, stats.tasks_completed);
  EXPECT_GT(stats.tasks_submitted, 0u);
  // A fresh pool starts its lifetime totals at zero.
  SetNumThreads(2);
  EXPECT_EQ(ReadGlobalPoolStats().num_threads, 2);
  EXPECT_EQ(ReadGlobalPoolStats().tasks_submitted, 0u);
  SetNumThreads(original);
}

}  // namespace
}  // namespace stisan
