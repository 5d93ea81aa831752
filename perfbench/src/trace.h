// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded only from the benchmark's own code, around calls into
// the program's public API; the program itself is untouched. A disabled
// tracer (the untraced run) records nothing and costs one branch per span.
// Spans are kept in memory and written once, at the end of the run, as
// Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev).

#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;  // "<layer>.<what>", e.g. "train.fit"
  double start = 0.0;  // seconds, steady clock
  double end = 0.0;
  int64_t id = 0;      // 1-based
  int64_t parent = 0;  // 0 = no parent
  int64_t request = -1;  // request id for per-request spans, else -1
  int thread = 0;      // small per-thread index
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Records a finished span; returns its id (0 when disabled).
  int64_t Record(const std::string& name, double start, double end,
                 int64_t parent, int64_t request = -1);

  /// Opens a span now on the calling thread (its parent is the thread's
  /// innermost open span); Close ends it. Returns 0 when disabled.
  int64_t Open(const std::string& name, int64_t request = -1);
  void Close(int64_t id);

  /// Innermost open span of the calling thread (0 if none).
  int64_t Current() const;

  std::vector<Span> spans() const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII wrapper over Tracer::Open / Close.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, int64_t request = -1)
      : tracer_(tracer), id_(tracer.Open(name, request)) {}
  ~ScopedSpan() { tracer_.Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  const int64_t id_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children clipped to
/// the parent). Indexed like `spans`.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// Sums self times by layer (the span name up to the first '.').
std::map<std::string, double> LayerSelfTimes(const std::vector<Span>& spans);

/// Chrome trace-event JSON ("X" complete events, microseconds relative to
/// the earliest span) with id / parent / request in args.
std::string ChromeTraceJson(const std::vector<Span>& spans);

}  // namespace perfbench
