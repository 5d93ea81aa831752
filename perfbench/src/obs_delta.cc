#include "workloads.h"

namespace perfbench {
namespace {

double Scalar(const stisan::obs::Snapshot& s, const std::string& name) {
  for (const auto& [n, v] : s.counters) {
    if (n == name) return static_cast<double>(v);
  }
  for (const auto& [n, v] : s.gauges) {
    if (n == name) return v;
  }
  return 0.0;
}

const stisan::obs::Snapshot::HistogramEntry* Find(const stisan::obs::Snapshot& s,
                                          const std::string& name) {
  for (const auto& h : s.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

}  // namespace

double ObsDelta::Get(const std::string& name) const {
  return Scalar(after_, name) - Scalar(before_, name);
}

uint64_t ObsDelta::Count(const std::string& histogram) const {
  const auto* a = Find(after_, histogram);
  const auto* b = Find(before_, histogram);
  return (a ? a->count : 0) - (b ? b->count : 0);
}

double ObsDelta::Sum(const std::string& histogram) const {
  const auto* a = Find(after_, histogram);
  const auto* b = Find(before_, histogram);
  return (a ? a->sum : 0.0) - (b ? b->sum : 0.0);
}

double ObsDelta::Quantile(const std::string& histogram, double q) const {
  const auto* a = Find(after_, histogram);
  if (a == nullptr) return 0.0;
  const auto* b = Find(before_, histogram);
  std::vector<uint64_t> counts = a->bucket_counts;
  if (b != nullptr) {
    for (size_t i = 0; i < counts.size(); ++i) counts[i] -= b->bucket_counts[i];
  }
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  const double want = q * static_cast<double>(total);
  uint64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (static_cast<double>(seen) >= want) {
      // The +inf bucket reports the last finite bound.
      return a->bounds[std::min(i, a->bounds.size() - 1)];
    }
  }
  return a->bounds.back();
}

}  // namespace perfbench
