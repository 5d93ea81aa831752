// perfbench — the repository benchmark program.
//
//   perfbench --workload offline_paper|serve_stream|catalog_city
//             --seed N --seconds S --trace 0|1
//             [--commit ID] [--trace-dir DIR]
//
// Prints a context line, per-phase lines, and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1 (which also
// writes a Chrome trace and prints a layer table of self times). Exits 1
// when an output check fails, 2 on bad arguments.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "bench_lib.h"
#include "tensor/kernels.h"
#include "trace.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// Every per-layer metric, in BENCHMARK.json order, with its unit. A layer a
// workload leaves idle reports 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"data.generate_s", "s"},
      {"data.split_s", "s"},
      {"train.epoch_s", "s"},
      {"train.step_ms", "ms"},
      {"tensor.dispatches_per_window", "count"},
      {"tensor.dispatches_per_request", "count"},
      {"util.pool_tasks_per_window", "count"},
      {"util.pool_tasks_per_request", "count"},
      {"tensor.arena_hit_ratio", "ratio"},
      {"plan.replay_ratio", "ratio"},
      {"core.relation_cache_hit_ratio", "ratio"},
      {"core.tape_cache_hit_ratio", "ratio"},
      {"models.score_batch_ms", "ms"},
      {"eval.candidate_gen_s", "s"},
      {"eval.self_s", "s"},
      {"eval.instances_per_s", "1/s"},
      {"geo.knn_us", "us"},
      {"geo.pool_us", "us"},
      {"geo.pool_size", "count"},
      {"geo.next_poi_in_pool_ratio", "ratio"},
      {"core.sync_us", "us"},
      {"core.score_us", "us"},
      {"core.rebuilds_per_sync", "count"},
      {"serve.admit_us", "us"},
      {"serve.queue_wait_ms.p50", "ms"},
      {"serve.queue_wait_ms.p99", "ms"},
      {"serve.batch_size", "count"},
      {"serve.service_ms", "ms"},
      {"serve.incremental_ratio", "ratio"},
      {"serve.cold_build_ratio", "ratio"},
      {"serve.evictions", "count"},
      {"serve.generator_lag_ms", "ms"},
      {"e2e.throughput_per_s", "1/s"},
      {"e2e.p50_ms.light", "ms"},
      {"e2e.p50_ms.busy", "ms"},
      {"e2e.tail_ms.light", "ms"},
      {"e2e.tail_ms.busy", "ms"},
      {"e2e.max_rate_rps", "1/s"},
      {"trace.unattributed_s", "s"},
      {"trace.overhead_ms", "ms"},
  };
  return metrics;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "offline_paper|serve_stream|catalog_city --seed N --seconds S "
               "--trace 0|1 [--commit ID] [--trace-dir DIR]\n",
               why);
  return 2;
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
           JsonNumber(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
    first = false;
  }
  return out + "}";
}

void PrintLayerTable(const WorkloadResult& r, double wall_s) {
  const std::map<std::string, double> layers = LayerSelfTimes(r.spans);
  std::printf("  layer self times (spans from the benchmark around public "
              "calls; serve.request spans overlap, so they may exceed wall):\n");
  for (const auto& [layer, s] : layers) {
    std::printf("    %-8s %10.4f s\n", layer.c_str(), s);
  }
  std::printf("    %-8s %10.4f s (wall of the traced run)\n", "wall", wall_s);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  std::string commit = "unknown";
  config.trace_dir = ".bench_build/traces";
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* v = argv[++i];
    if (arg == "--workload") config.workload = v;
    else if (arg == "--seed") { config.seed = std::strtoull(v, nullptr, 10); have_seed = true; }
    else if (arg == "--seconds") config.seconds = std::atof(v);
    else if (arg == "--trace") trace = std::atoi(v);
    else if (arg == "--commit") commit = v;
    else if (arg == "--trace-dir") config.trace_dir = v;
    else return Usage(("unknown argument " + arg).c_str());
  }
  if (!have_seed || trace < 0 || trace > 1 || config.seconds <= 0.0) {
    return Usage("--seed, --seconds > 0 and --trace 0|1 are required");
  }
  config.trace = trace == 1;

  WorkloadResult (*run)(const RunConfig&, Tracer&) = nullptr;
  if (config.workload == "offline_paper") run = RunOfflinePaper;
  else if (config.workload == "serve_stream") run = RunServeStream;
  else if (config.workload == "catalog_city") run = RunCatalogCity;
  else return Usage(("unknown workload '" + config.workload + "'").c_str());

  std::printf(
      "context: {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %u, \"kernel_threads\": %lld, "
      "\"simd\": %s, \"build_type\": %s, \"commit\": %s, "
      "\"clock\": \"steady_clock wall time\"}\n",
      JsonString(config.workload).c_str(),
      static_cast<unsigned long long>(config.seed), config.seconds, trace,
      std::thread::hardware_concurrency(),
      static_cast<long long>(stisan::kernels::NumThreads()),
      JsonString(stisan::kernels::SimdBackendName()).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(), JsonString(commit).c_str());
  std::fflush(stdout);

  Tracer tracer(config.trace);
  const double t0 = NowSeconds();
  WorkloadResult r = run(config, tracer);
  const double wall_s = NowSeconds() - t0;
  r.end_to_end["peak_rss_mb"] = {PeakRssMb(), "MB"};

  std::printf("  ops: %lld attempted, %lld failed", static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (const auto& [code, n] : r.failed_by_code) {
    std::printf(", %s %lld", code.c_str(), static_cast<long long>(n));
  }
  std::printf("\n");
  for (const std::string& f : r.check_failures) {
    std::printf("  CHECK FAILED: %s\n", f.c_str());
  }

  for (const auto& [name, m] : r.ungated) {
    std::printf("  %-32s %14.6g %s (reported, not gated)\n", name.c_str(),
                m.value, m.unit.c_str());
    r.per_layer["e2e." + name] = m;
  }
  std::map<std::string, Metric> reported = r.end_to_end;
  if (config.trace) {
    r.spans = tracer.spans();
    const std::vector<double> self = SelfTimes(r.spans);
    double unattributed = 0.0;
    for (size_t i = 0; i < r.spans.size(); ++i) {
      if (r.spans[i].parent == 0) unattributed += self[i];
    }
    r.per_layer["trace.unattributed_s"] = {unattributed, "s"};
    for (const auto& [name, untraced] : r.overhead_untraced) {
      const double traced = r.overhead_traced[name];
      r.per_layer["trace.overhead_ms"] = {traced - untraced, "ms"};
      std::printf("  tracing overhead on %s: %.4f ms traced - %.4f ms untraced "
                  "= %+.4f ms\n",
                  name.c_str(), traced, untraced, traced - untraced);
    }
    PrintLayerTable(r, wall_s);
    std::printf("  unattributed (root spans' self time): %.4f s\n", unattributed);
    for (const auto& [name, unit] : PerLayerMetrics()) {
      if (!r.per_layer.count(name)) r.per_layer[name] = {0.0, unit};
    }
    ::mkdir(config.trace_dir.c_str(), 0755);
    const std::string path = config.trace_dir + "/" + config.workload + "_seed" +
                             std::to_string(config.seed) + ".trace.json";
    std::ofstream(path) << ChromeTraceJson(r.spans);
    std::printf("  chrome trace: %s (%zu spans)\n", path.c_str(), r.spans.size());
    reported = r.per_layer;
  }
  for (const auto& [name, m] : reported) {
    std::printf("  %-32s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }

  const bool correct = r.check_failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed), MetricsJson(reported).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
