#include "obs/metrics.h"

#include <algorithm>
#include <map>
#include <mutex>

#include "util/check.h"
#include "util/io_env.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace stisan::obs {

namespace {

// Leaked singleton (see RelationCache()): instrument sites hold references
// from static initialisers and callback gauges fire during late shutdown
// paths, so the registry must outlive every other static.
struct RegistryState {
  std::mutex mutex;
  // node-based maps: references handed out stay valid across inserts.
  std::map<std::string, Counter> counters;
  std::map<std::string, Gauge> gauges;
  std::map<std::string, Histogram> histograms;
  std::map<std::string, std::function<double()>> callback_gauges;
};

RegistryState& State() {
  static auto* state = [] {
    auto* st = new RegistryState;
    // The process-wide pool sits below obs (util/thread_pool.h), so the
    // registry polls it; SetNumThreads can swap the pool, so every read
    // goes through ReadGlobalPoolStats.
    st->callback_gauges["threadpool/tasks_submitted"] = [] {
      return double(ReadGlobalPoolStats().tasks_submitted);
    };
    st->callback_gauges["threadpool/tasks_completed"] = [] {
      return double(ReadGlobalPoolStats().tasks_completed);
    };
    st->callback_gauges["threadpool/num_threads"] = [] {
      return double(ReadGlobalPoolStats().num_threads);
    };
    return st;
  }();
  return *state;
}

void AtomicAddDouble(std::atomic<double>& target, double delta) {
  double expected = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(expected, expected + delta,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  for (size_t i = 1; i < bounds_.size(); ++i) {
    STISAN_CHECK_MSG(bounds_[i - 1] < bounds_[i],
                     "histogram bounds must be strictly increasing");
  }
}

void Histogram::Observe(double v) {
  // First bucket whose (inclusive) upper bound admits v; everything above
  // the last bound lands in the implicit +inf bucket.
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(sum_, v);
}

uint64_t Histogram::BucketCount(size_t i) const {
  STISAN_CHECK_LT(i, buckets_.size());
  return buckets_[i].load(std::memory_order_relaxed);
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> LatencyBounds() {
  return {1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0};
}

std::vector<double> CountBounds() {
  std::vector<double> bounds;
  for (double b = 1.0; b <= 4096.0; b *= 2.0) bounds.push_back(b);
  return bounds;
}

Counter& GetCounter(const std::string& name) {
  RegistryState& st = State();
  std::lock_guard<std::mutex> lock(st.mutex);
  return st.counters[name];
}

Gauge& GetGauge(const std::string& name) {
  RegistryState& st = State();
  std::lock_guard<std::mutex> lock(st.mutex);
  return st.gauges[name];
}

Histogram& GetHistogram(const std::string& name,
                        const std::vector<double>& bounds) {
  RegistryState& st = State();
  std::lock_guard<std::mutex> lock(st.mutex);
  // try_emplace constructs the Histogram in place: atomics are not movable.
  return st.histograms.try_emplace(name, bounds).first->second;
}

void RegisterCallbackGauge(const std::string& name,
                           std::function<double()> fn) {
  RegistryState& st = State();
  std::lock_guard<std::mutex> lock(st.mutex);
  st.callback_gauges[name] = std::move(fn);
}

Histogram& TimerHistogram(const std::string& name) {
  return GetHistogram("time/" + name, LatencyBounds());
}

Snapshot TakeSnapshot() {
  RegistryState& st = State();
  Snapshot snap;
  // Callbacks run outside the registry lock: they read other subsystems'
  // state (caches, pools) whose accessors may take their own locks, and
  // must be free to call GetCounter etc. themselves.
  std::vector<std::pair<std::string, std::function<double()>>> callbacks;
  {
    std::lock_guard<std::mutex> lock(st.mutex);
    for (const auto& [name, counter] : st.counters) {
      snap.counters.emplace_back(name, counter.Get());
    }
    for (const auto& [name, gauge] : st.gauges) {
      snap.gauges.emplace_back(name, gauge.Get());
    }
    for (const auto& [name, hist] : st.histograms) {
      Snapshot::HistogramEntry entry;
      entry.name = name;
      entry.bounds = hist.bounds();
      entry.bucket_counts.reserve(entry.bounds.size() + 1);
      for (size_t i = 0; i <= entry.bounds.size(); ++i) {
        entry.bucket_counts.push_back(hist.BucketCount(i));
      }
      entry.count = hist.TotalCount();
      entry.sum = hist.Sum();
      snap.histograms.push_back(std::move(entry));
    }
    for (const auto& [name, fn] : st.callback_gauges) {
      callbacks.emplace_back(name, fn);
    }
  }
  for (const auto& [name, fn] : callbacks) {
    snap.gauges.emplace_back(name, fn());
  }
  std::sort(snap.gauges.begin(), snap.gauges.end());
  return snap;
}

namespace {

std::string JsonDouble(double v) {
  // %.17g round-trips doubles exactly, matching the golden-metrics
  // convention; non-finite values are not valid JSON numbers.
  if (v != v) return "\"nan\"";
  if (v > 1.7976931348623157e308) return "\"inf\"";
  if (v < -1.7976931348623157e308) return "\"-inf\"";
  return StrFormat("%.17g", v);
}

}  // namespace

std::string ToJson(const Snapshot& snapshot) {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += StrFormat("    \"%s\": %llu", name.c_str(),
                     static_cast<unsigned long long>(value));
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += StrFormat("    \"%s\": %s", name.c_str(), JsonDouble(value).c_str());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& hist : snapshot.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += StrFormat("    \"%s\": {\"count\": %llu, \"sum\": %s, ",
                     hist.name.c_str(),
                     static_cast<unsigned long long>(hist.count),
                     JsonDouble(hist.sum).c_str());
    out += "\"bounds\": [";
    for (size_t i = 0; i < hist.bounds.size(); ++i) {
      if (i > 0) out += ", ";
      out += JsonDouble(hist.bounds[i]);
    }
    out += "], \"buckets\": [";
    for (size_t i = 0; i < hist.bucket_counts.size(); ++i) {
      if (i > 0) out += ", ";
      out += StrFormat("%llu",
                       static_cast<unsigned long long>(hist.bucket_counts[i]));
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

Status WriteJsonAtomic(Env* env, const std::string& path) {
  if (env == nullptr) env = Env::Default();
  return WriteFileAtomic(env, path, ToJson(TakeSnapshot()));
}

std::string SummaryLine(const Snapshot& snapshot) {
  std::string out = StrFormat(
      "obs: %zu counters, %zu gauges, %zu histograms",
      snapshot.counters.size(), snapshot.gauges.size(),
      snapshot.histograms.size());
  for (const auto& [name, value] : snapshot.counters) {
    out += StrFormat(" | %s=%llu", name.c_str(),
                     static_cast<unsigned long long>(value));
  }
  for (const auto& hist : snapshot.histograms) {
    if (hist.count == 0) continue;
    out += StrFormat(" | %s: n=%llu mean=%.3gs", hist.name.c_str(),
                     static_cast<unsigned long long>(hist.count),
                     hist.sum / double(hist.count));
  }
  return out;
}

void ResetAllForTesting() {
  RegistryState& st = State();
  std::lock_guard<std::mutex> lock(st.mutex);
  for (auto& [name, counter] : st.counters) counter.Reset();
  for (auto& [name, gauge] : st.gauges) gauge.Reset();
  for (auto& [name, hist] : st.histograms) hist.Reset();
}

}  // namespace stisan::obs
