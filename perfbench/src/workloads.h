// The three benchmark workloads and what they share.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "trace.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;  // where the traced run writes its Chrome trace
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct WorkloadResult {
  /// Operations sent and operations that did not succeed (any non-OK
  /// util::Status), over every measured phase.
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, int64_t> failed_by_code;
  /// Output checks that did not hold (empty = correct).
  std::vector<std::string> check_failures;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Reported end-to-end figures too unsteady to gate (printed on every
  /// run, and part of the traced run's metrics).
  std::map<std::string, Metric> ungated;
  /// Traced run only: every span, and end-to-end values measured with
  /// tracing off and on in the same process (for the overhead report).
  std::vector<Span> spans;
  std::map<std::string, double> overhead_untraced;
  std::map<std::string, double> overhead_traced;

  void Check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

WorkloadResult RunOfflinePaper(const RunConfig& config, Tracer& tracer);
WorkloadResult RunServeStream(const RunConfig& config, Tracer& tracer);
WorkloadResult RunCatalogCity(const RunConfig& config, Tracer& tracer);

/// Number of set-ups each run performs; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

/// Difference of two registry snapshots: counters, plus callback gauges
/// (which poll cumulative subsystem counters such as the arena, the thread
/// pool and the relation/TAPE caches).
class ObsDelta {
 public:
  ObsDelta() : before_(stisan::obs::TakeSnapshot()) {}
  /// Counter or gauge delta since construction (0 when never registered).
  double Get(const std::string& name) const;
  /// Histogram count and sum since construction.
  uint64_t Count(const std::string& histogram) const;
  double Sum(const std::string& histogram) const;
  /// Median and p99 read from the histogram's bucket bounds (upper bound
  /// of the bucket holding the quantile), since construction.
  double Quantile(const std::string& histogram, double q) const;

  void Finish() { after_ = stisan::obs::TakeSnapshot(); }

 private:
  stisan::obs::Snapshot before_;
  stisan::obs::Snapshot after_;
};

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace perfbench
