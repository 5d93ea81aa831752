#include "bench_lib.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <random>

namespace perfbench {

double NearestRank(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  // The epsilon keeps e.g. 0.99 * 1000 = 990 from rounding up to 991.
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double TailPercentile(size_t n) {
  for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    // Samples strictly beyond the nearest-rank position.
    const double beyond =
        static_cast<double>(n) -
        std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
    if (beyond >= 10.0) return pct;
  }
  return 50.0;
}

Summary Summarize(std::vector<double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.p50 = NearestRank(values, 50.0);
  s.tail_pct = TailPercentile(values.size());
  s.tail = NearestRank(values, s.tail_pct);
  return s;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<double> PoissonSchedule(double rate, size_t count, uint64_t seed) {
  std::vector<double> due;
  if (rate <= 0.0) return due;
  due.reserve(count);
  std::mt19937_64 gen(seed);
  double t = 0.0;
  for (size_t i = 0; i < count; ++i) {
    // 53-bit uniform in [0, 1); -log(1 - u) is exponential with mean 1.
    const double u =
        static_cast<double>(gen() >> 11) * (1.0 / 9007199254740992.0);
    t += -std::log1p(-u) / rate;
    due.push_back(t);
  }
  return due;
}

LadderResult SearchMaxRate(
    const std::vector<double>& ladder,
    const std::function<ProbeResult(double rate)>& probe, double limit_ms,
    double min_goodput) {
  LadderResult result;
  std::map<int64_t, ProbeResult> seen;
  auto passes = [&](const ProbeResult& r) {
    return r.tail_ms <= limit_ms && r.goodput_ratio >= min_goodput;
  };
  int64_t lo = -1;                                   // highest known pass
  int64_t hi = static_cast<int64_t>(ladder.size());  // lowest known fail
  while (hi - lo > 1) {
    const int64_t mid = lo + (hi - lo) / 2;
    const ProbeResult r = probe(ladder[static_cast<size_t>(mid)]);
    ++result.probes;
    seen[mid] = r;
    if (passes(r)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  if (lo < 0) return result;
  const double r_lo = ladder[static_cast<size_t>(lo)];
  result.highest_passing_rung = r_lo;
  result.max_rate = r_lo;
  if (hi < static_cast<int64_t>(ladder.size())) {
    // Both neighbours were probed: place the crossing linearly between
    // them on whichever criterion failed first.
    const ProbeResult& p = seen.at(lo);
    const ProbeResult& f = seen.at(hi);
    double frac = 1.0;
    if (f.tail_ms > limit_ms && f.tail_ms > p.tail_ms) {
      frac = std::min(frac, (limit_ms - p.tail_ms) / (f.tail_ms - p.tail_ms));
    }
    if (f.goodput_ratio < min_goodput && p.goodput_ratio > f.goodput_ratio) {
      frac = std::min(frac, (p.goodput_ratio - min_goodput) /
                                (p.goodput_ratio - f.goodput_ratio));
    }
    frac = std::clamp(frac, 0.0, 1.0);
    result.max_rate = r_lo + frac * (ladder[static_cast<size_t>(hi)] - r_lo);
  }
  return result;
}

std::vector<double> GeometricLadder(double lo, double hi,
                                    int steps_per_doubling) {
  std::vector<double> ladder;
  const double step = std::pow(2.0, 1.0 / steps_per_doubling);
  for (double r = lo; r <= hi * (1.0 + 1e-9); r *= step) {
    ladder.push_back(std::round(r));
  }
  return ladder;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
