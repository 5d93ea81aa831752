#include "trace.h"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <unordered_map>

#include "bench_lib.h"

namespace perfbench {
namespace {

int ThreadIndex() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

// Open spans of the calling thread, innermost last.
thread_local std::vector<int64_t> open_stack;

}  // namespace

int64_t Tracer::Record(const std::string& name, double start, double end,
                       int64_t parent, int64_t request) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.id = static_cast<int64_t>(spans_.size()) + 1;
  s.parent = parent;
  s.request = request;
  s.thread = ThreadIndex();
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

int64_t Tracer::Open(const std::string& name, int64_t request) {
  if (!enabled_) return 0;
  const double now = NowSeconds();
  const int64_t id = Record(name, now, now, Current(), request);
  open_stack.push_back(id);
  return id;
}

void Tracer::Close(int64_t id) {
  if (!enabled_ || id == 0) return;
  const double now = NowSeconds();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id - 1)].end = now;
  }
  if (!open_stack.empty() && open_stack.back() == id) open_stack.pop_back();
}

int64_t Tracer::Current() const {
  return open_stack.empty() ? 0 : open_stack.back();
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<int64_t, size_t> index_of;
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> child_intervals(
      spans.size());
  for (const Span& s : spans) {
    auto it = index_of.find(s.parent);
    if (s.parent == 0 || it == index_of.end()) continue;
    const Span& p = spans[it->second];
    const double a = std::max(s.start, p.start);
    const double b = std::min(s.end, p.end);
    if (b > a) child_intervals[it->second].push_back({a, b});
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = child_intervals[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_a = 0.0, cur_b = 0.0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    self[i] = std::max(0.0, (spans[i].end - spans[i].start) - covered);
  }
  return self;
}

std::map<std::string, double> LayerSelfTimes(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimes(spans);
  std::map<std::string, double> layers;
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string& name = spans[i].name;
    layers[name.substr(0, name.find('.'))] += self[i];
  }
  return layers;
}

std::string ChromeTraceJson(const std::vector<Span>& spans) {
  double origin = spans.empty() ? 0.0 : spans.front().start;
  for (const Span& s : spans) origin = std::min(origin, s.start);
  std::ostringstream out;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"name\": " << JsonString(s.name)
        << ", \"cat\": " << JsonString(s.name.substr(0, s.name.find('.')))
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
        << ", \"ts\": " << JsonNumber((s.start - origin) * 1e6)
        << ", \"dur\": " << JsonNumber((s.end - s.start) * 1e6)
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return out.str();
}

}  // namespace perfbench
