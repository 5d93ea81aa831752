// Pure helpers of the repository benchmark: percentile rule, open-loop
// arrival schedule, capacity ladder search and small JSON/IO utilities.
// Nothing here depends on the STiSAN libraries, so tests/bench_lib_test.cc
// can pin every rule without building a model.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// A timing summary: the median plus the highest percentile of a fixed
/// ladder (99.9, 99, 95, 90, 75, 50) that has at least 10 samples beyond
/// it, with the sample count.
struct Summary {
  size_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;  // which percentile `tail` is (0 when empty)
};

/// Nearest-rank percentile of an ascending-sorted sample:
/// sorted[ceil(pct / 100 * n) - 1]. `pct` in (0, 100].
double NearestRank(const std::vector<double>& sorted, double pct);

/// The highest ladder percentile with at least 10 samples beyond it, or 50
/// for samples too small for any (n < 20). 1000 samples give 99, 200 give 95.
double TailPercentile(size_t n);

/// Sorts a copy and applies the rules above.
Summary Summarize(std::vector<double> values);

/// Median of a sample (mean of the middle pair for even sizes).
double Median(std::vector<double> values);

/// Deterministic Poisson arrival schedule: `count` due offsets in seconds
/// from the start, exponential gaps of mean 1/rate drawn from a seeded
/// mt19937_64. Same (rate, count, seed) gives the same schedule on every
/// platform.
std::vector<double> PoissonSchedule(double rate, size_t count, uint64_t seed);

/// One load level of an open-loop run, as the ladder search needs it.
struct ProbeResult {
  double tail_ms = 0.0;  // latency at the tail percentile, due -> ready
  double goodput_ratio = 0.0;  // succeeded per second over offered rate
};

struct LadderResult {
  /// Highest passing rung, refined by linear interpolation towards the
  /// first failing rung (where the limit would be crossed); 0 when even
  /// the lowest rung fails.
  double max_rate = 0.0;
  double highest_passing_rung = 0.0;
  int probes = 0;
};

/// Finds the highest rate of an ascending `ladder` at which the probe's
/// tail latency stays within `limit_ms` and goodput stays at or above
/// `min_goodput` of offered. Assumes the pass region is a prefix of the
/// ladder and binary-searches it, so it costs about log2(ladder size)
/// probes.
LadderResult SearchMaxRate(
    const std::vector<double>& ladder,
    const std::function<ProbeResult(double rate)>& probe, double limit_ms,
    double min_goodput);

/// Geometric ladder from `lo` to at most `hi` with `steps_per_doubling`
/// rungs per factor two.
std::vector<double> GeometricLadder(double lo, double hi,
                                    int steps_per_doubling);

/// Peak resident set size of this process in MiB (getrusage).
double PeakRssMb();

/// Seconds on the steady clock since an arbitrary fixed origin.
double NowSeconds();

/// JSON string literal with escapes.
std::string JsonString(const std::string& s);

/// Shortest round-trip decimal for a double ("%.17g"), finite only.
std::string JsonNumber(double v);

}  // namespace perfbench
