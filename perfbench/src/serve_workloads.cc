// serve_stream and catalog_city: open-loop load against a long-lived
// serve::RecommendService over a frozen TAPE-on STiSAN model.
//
// One producer thread sends requests on a seeded Poisson schedule and never
// waits for answers; one collector thread waits on the futures in send
// order and stamps when each became ready. Latency runs from a request's
// *due* time to its future being ready, so a stall also charges the
// requests queued behind it. Each run measures two fixed rates (light and
// busy, set once from the max_rate of the commit the benchmark was written
// against) and then searches the rate ladder for the highest rate that
// meets the latency limit.
//
// The served world is fixed: the preset's dataset, its check-in stream and
// a model that keeps its initial weights (serving cost does not depend on
// weight values). The seed drives the arrival schedule and the sampled
// checks. hr_at_10 / ndcg_at_10 here pin the scoring
// numerics of the served answers rather than model quality.

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "bench_lib.h"
#include "core/incremental.h"
#include "core/stisan.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "eval/metrics.h"
#include "geo/candidate_gen.h"
#include "serve/service.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace stisan;

// ---- Workload parameters ---------------------------------------------------

struct Params {
  const char* name;
  double light_rps;       // ~40% of max_rate_rps at calibration
  double busy_rps;        // ~80%
  double limit_ms;        // p99 limit for max_rate_rps
  double ladder_lo, ladder_hi;
  size_t probe_requests;  // requests per ladder probe
  double phase_share;     // share of --seconds for each fixed-rate phase
};

constexpr Params kServeStream = {"serve_stream", 190.0, 380.0, 10.0,
                                 100.0, 6400.0, 1000, 0.6};
constexpr Params kCatalogCity = {"catalog_city", 200.0, 400.0, 25.0,
                                 100.0, 3200.0, 1000, 0.6};

constexpr double kMinGoodput = 0.98;
// A phase whose generator ran later than this at its tail is invalid.
constexpr double kMaxLagMs = 25.0;
constexpr int64_t kCandidates = 100;   // serve_stream candidates per request
constexpr int64_t kTopK = 10;          // catalog_city results per request
constexpr size_t kRanksPerAppend = 4;  // catalog_city: rank requests per append
constexpr int64_t kWarmVisits = 5;     // history each user starts with
constexpr int kCheckSamples = 24;      // requests re-scored cold per run
constexpr int64_t kReplaySamples = 300;  // in-thread layer replay size
constexpr std::chrono::seconds kResolveTimeout{60};

// ---- Requests --------------------------------------------------------------

// One open-loop operation: an optional Append, then a score (serve_stream)
// or catalog-rank request for the same user.
struct Request {
  int64_t user = 0;
  bool append = false;
  int64_t poi = 0;
  double timestamp = 0.0;
  int64_t history_len = 0;  // user's history length when the request runs
  std::vector<int64_t> candidates;  // serve_stream only
  int64_t target = 0;  // the user's real next check-in (0 = none)
};

struct World {
  data::Dataset dataset;
  std::unique_ptr<core::StisanModel> model;
  std::vector<Request> requests;
  std::unique_ptr<serve::RecommendService> service;
};

core::StisanOptions FrozenOptions() {
  core::StisanOptions options;  // TAPE + IAAB + TAAD
  options.knn_negatives = false;  // never trained: skip the sampler build
  return options;
}

struct Event {
  int64_t user;
  size_t k;  // index of the check-in in the user's sequence
};

// Every check-in after each user's warm prefix, in global timestamp order.
std::vector<Event> CheckInStream(const data::Dataset& ds) {
  std::vector<Event> events;
  for (size_t u = 0; u < ds.user_seqs.size(); ++u) {
    for (size_t k = kWarmVisits; k < ds.user_seqs[u].size(); ++k) {
      events.push_back({static_cast<int64_t>(u), k});
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [&ds](const Event& a, const Event& b) {
                     return ds.user_seqs[static_cast<size_t>(a.user)][a.k]
                                .timestamp <
                            ds.user_seqs[static_cast<size_t>(b.user)][b.k]
                                .timestamp;
                   });
  return events;
}

// The user's next check-in after the first `len` visits (0 = none).
int64_t NextPoi(const data::Dataset& ds, int64_t user, int64_t len) {
  const auto& seq = ds.user_seqs[static_cast<size_t>(user)];
  return len < static_cast<int64_t>(seq.size())
             ? seq[static_cast<size_t>(len)].poi
             : 0;
}

// serve_stream: each check-in of the stream that has a successor is
// appended and followed by a score of [next check-in, its 99 nearest
// unvisited POIs].
std::vector<Request> StreamRequests(const data::Dataset& ds, size_t max_count) {
  const eval::CandidateGenerator gen(ds);
  std::vector<Request> out;
  for (const Event& ev : CheckInStream(ds)) {
    if (out.size() == max_count) break;
    const auto& seq = ds.user_seqs[static_cast<size_t>(ev.user)];
    if (ev.k + 1 == seq.size()) continue;
    Request r;
    r.user = ev.user;
    r.append = true;
    r.poi = seq[ev.k].poi;
    r.timestamp = seq[ev.k].timestamp;
    r.history_len = static_cast<int64_t>(ev.k) + 1;
    r.target = NextPoi(ds, r.user, r.history_len);
    data::EvalInstance inst;
    inst.target = r.target;
    for (size_t j = 0; j <= ev.k; ++j) inst.visited.push_back(seq[j].poi);
    r.candidates = gen.Candidates(inst, kCandidates - 1);
    out.push_back(std::move(r));
  }
  return out;
}

// catalog_city: each check-in of the stream is appended and followed by a
// rank request for its user and for the users of the kRanksPerAppend - 1
// check-ins before it (recently active users asking again).
std::vector<Request> CatalogRequests(const data::Dataset& ds, size_t count) {
  const std::vector<Event> events = CheckInStream(ds);
  std::vector<int64_t> len(ds.user_seqs.size());
  for (size_t u = 0; u < len.size(); ++u) {
    len[u] = std::min<int64_t>(kWarmVisits,
                               static_cast<int64_t>(ds.user_seqs[u].size()));
  }
  std::vector<Request> out;
  out.reserve(count);
  for (size_t i = 0; i < events.size(); ++i) {
    for (size_t j = 0; j < kRanksPerAppend && j <= i; ++j) {
      if (out.size() == count) return out;
      const Event& ev = events[i - j];
      Request r;
      r.user = ev.user;
      if (j == 0) {
        const auto& visit = ds.user_seqs[static_cast<size_t>(ev.user)][ev.k];
        r.append = true;
        r.poi = visit.poi;
        r.timestamp = visit.timestamp;
        ++len[static_cast<size_t>(ev.user)];
      }
      r.history_len = len[static_cast<size_t>(ev.user)];
      r.target = NextPoi(ds, r.user, r.history_len);
      out.push_back(std::move(r));
    }
  }
  return out;
}

// ---- Open loop -------------------------------------------------------------

struct Phase {
  std::string name;
  size_t first = 0;  // index of the first request in World::requests
  std::vector<double> due;  // offsets from start, seconds
  double start = 0.0;
  std::vector<double> send, admitted, ready;  // absolute, seconds
  std::vector<serve::ScoreResult> results;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t unresolved = 0;  // futures not ready within kResolveTimeout
  std::map<std::string, int64_t> failed_by_code;

  std::vector<double> LatenciesMs() const {
    std::vector<double> out(due.size());
    for (size_t i = 0; i < due.size(); ++i) {
      out[i] = results[i].ok() ? (ready[i] - start - due[i]) * 1e3
                               : std::numeric_limits<double>::infinity();
    }
    return out;
  }
  std::vector<double> LagMs() const {
    std::vector<double> out(due.size());
    for (size_t i = 0; i < due.size(); ++i) {
      out[i] = (send[i] - start - due[i]) * 1e3;
    }
    return out;
  }
  ProbeResult Probe() const {
    ProbeResult p;
    p.tail_ms = Summarize(LatenciesMs()).tail;
    int64_t ok = 0;
    for (const auto& r : results) ok += r.ok() ? 1 : 0;
    const double span = due.empty() ? 0.0 : due.back();
    const double done =
        ready.empty() ? 0.0 : *std::max_element(ready.begin(), ready.end()) -
                                  start;
    p.goodput_ratio =
        Ratio(static_cast<double>(ok) / std::max(span, done),
              static_cast<double>(due.size()) / span);
    return p;
  }
};

void CountFailure(Phase& ph, const Status& status) {
  ++ph.failed;
  ++ph.failed_by_code[StatusCodeName(status.code())];
}

Phase RunPhase(World& w, bool catalog, const std::string& name, double rate,
               size_t first, size_t count, uint64_t seed) {
  Phase ph;
  ph.name = name;
  ph.first = first;
  ph.due = PoissonSchedule(rate, count, seed);
  const size_t n = ph.due.size();
  ph.send.resize(n);
  ph.admitted.resize(n);
  ph.ready.resize(n);
  ph.results.resize(n);
  std::vector<std::future<serve::ScoreResult>> futures(n);
  std::mutex mu;
  std::condition_variable cv;
  size_t published = 0;  // guarded by mu

  std::thread collector([&] {
    for (size_t i = 0; i < n; ++i) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return published > i; });
      }
      if (futures[i].wait_for(kResolveTimeout) != std::future_status::ready) {
        ph.ready[i] = NowSeconds();
        ++ph.unresolved;
        ph.results[i].status = Status::Internal("future did not resolve");
        continue;
      }
      ph.ready[i] = NowSeconds();
      ph.results[i] = futures[i].get();
    }
  });

  ph.start = NowSeconds();
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double>(ph.due[i])));
    const Request& r = w.requests[first + i];
    ph.send[i] = NowSeconds();
    if (r.append) {
      ++ph.attempted;
      const Status s = w.service->Append(r.user, r.poi, r.timestamp);
      if (!s.ok()) CountFailure(ph, s);
    }
    ++ph.attempted;
    futures[i] = catalog ? w.service->RankCatalogAsync(r.user, kTopK)
                         : w.service->ScoreAsync(r.user, r.candidates);
    ph.admitted[i] = NowSeconds();
    {
      std::lock_guard<std::mutex> lock(mu);
      published = i + 1;
    }
    cv.notify_one();
  }
  collector.join();
  // A stuck op would block Drain too; the destructor resolves it instead.
  if (ph.unresolved == 0) w.service->Drain();
  for (const auto& res : ph.results) {
    if (!res.ok()) CountFailure(ph, res.status);
  }
  return ph;
}

// Records the phase's per-request spans after the fact: serve.request
// (due -> ready) with serve.admit (send -> enqueue returned) inside it.
void RecordPhaseSpans(const Phase& ph, Tracer& tracer, int64_t parent) {
  if (!tracer.enabled()) return;
  const double end = *std::max_element(ph.ready.begin(), ph.ready.end());
  const int64_t phase_id =
      tracer.Record("bench.phase_" + ph.name, ph.start, end, parent);
  for (size_t i = 0; i < ph.due.size(); ++i) {
    const int64_t req = static_cast<int64_t>(ph.first + i);
    const int64_t id = tracer.Record("serve.request", ph.start + ph.due[i],
                                     ph.ready[i], phase_id, req);
    tracer.Record("serve.admit", ph.send[i], ph.admitted[i], id, req);
  }
}

int64_t RankOf(const std::vector<int64_t>& pois, int64_t target) {
  for (size_t i = 0; i < pois.size(); ++i) {
    if (pois[i] == target) return static_cast<int64_t>(i);
  }
  return std::numeric_limits<int64_t>::max();
}

data::EvalInstance HistoryOf(const data::Dataset& ds, int64_t user,
                             int64_t len) {
  const auto& seq = ds.user_seqs[static_cast<size_t>(user)];
  data::EvalInstance inst;
  inst.user = user;
  for (int64_t j = 0; j < len; ++j) {
    inst.poi.push_back(seq[static_cast<size_t>(j)].poi);
    inst.t.push_back(seq[static_cast<size_t>(j)].timestamp);
  }
  return inst;
}

// The catalog re-rank by hand: pool around the last check-in, cold
// model->Score, descending score with ties by ascending id, top k.
std::pair<std::vector<int64_t>, std::vector<float>> HandRank(
    World& w, const geo::CandidateGenerator& gen, const data::EvalInstance& h) {
  const std::unordered_set<int64_t> visited(h.poi.begin(), h.poi.end());
  geo::SpatialGridIndex::QueryScratch scratch;
  std::vector<int64_t> pool;
  gen.Generate(w.dataset.poi_location(h.poi.back()),
               [&visited](int64_t id) { return !visited.contains(id + 1); },
               &scratch, &pool);
  for (int64_t& id : pool) id += 1;
  const std::vector<float> scores = w.model->Score(h, pool);
  std::vector<size_t> order(pool.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return scores[a] != scores[b] ? scores[a] > scores[b] : pool[a] < pool[b];
  });
  order.resize(std::min<size_t>(order.size(), kTopK));
  std::pair<std::vector<int64_t>, std::vector<float>> out;
  for (size_t i : order) {
    out.first.push_back(pool[i]);
    out.second.push_back(scores[i]);
  }
  return out;
}

// ---- The workload ----------------------------------------------------------

WorkloadResult RunServing(const Params& P, bool catalog,
                          const RunConfig& config, Tracer& tracer) {
  WorkloadResult r;
  ScopedSpan root(tracer, std::string("bench.") + P.name);
  const size_t light_n = static_cast<size_t>(P.light_rps * config.seconds *
                                             P.phase_share);
  const size_t busy_n =
      static_cast<size_t>(P.busy_rps * config.seconds * P.phase_share);
  // Requests the run may use: both phases, the traced run's repeat of the
  // busy phase, and up to ten ladder probes.
  const size_t budget = light_n + 2 * busy_n + 10 * P.probe_requests;

  std::vector<double> setup_s, generate_s;
  std::unique_ptr<World> w;
  for (int k = 0; k < kSetupRepeats; ++k) {
    w.reset();
    ScopedSpan span(tracer, "bench.setup");
    const double t = NowSeconds();
    w = std::make_unique<World>();
    {
      ScopedSpan g(tracer, "data.generate");
      w->dataset = data::GenerateSynthetic(catalog ? data::MetroScaleConfig(1.0)
                                                   : data::GowallaLikeConfig(1.0));
    }
    generate_s.push_back(NowSeconds() - t);
    {
      ScopedSpan m(tracer, "core.model_init");
      w->model = std::make_unique<core::StisanModel>(w->dataset,
                                                     FrozenOptions());
    }
    {
      ScopedSpan q(tracer, "bench.requests");
      w->requests = catalog ? CatalogRequests(w->dataset, budget)
                            : StreamRequests(w->dataset, budget);
    }
    serve::ServeOptions so;
    so.num_pois = w->dataset.num_pois();
    if (catalog) {
      so.poi_coords = &w->dataset.poi_coords;
    } else {
      // Below the 400 active users: LRU evictions and cold rebuilds occur.
      so.max_sessions = 200;
    }
    {
      ScopedSpan s(tracer, "serve.start");
      w->service = std::make_unique<serve::RecommendService>(w->model.get(), so);
      // Warm histories: every user's first visits, and for the catalog a
      // synchronous rank per user so sessions are resident before timing.
      for (size_t u = 0; u < w->dataset.user_seqs.size(); ++u) {
        const auto& seq = w->dataset.user_seqs[u];
        for (size_t j = 0; j < seq.size() && j < kWarmVisits; ++j) {
          (void)w->service->Append(static_cast<int64_t>(u), seq[j].poi,
                                   seq[j].timestamp);
        }
        if (catalog && !seq.empty()) {
          (void)w->service->RankCatalog(static_cast<int64_t>(u), kTopK);
        }
      }
      w->service->Drain();
    }
    setup_s.push_back(NowSeconds() - t);
  }
  const size_t available = w->requests.size();
  std::printf("%s: %s, %zu requests prepared\n", P.name,
              w->dataset.Stats().ToString().c_str(), available);

  size_t cursor = 0;
  int64_t unresolved = 0;
  auto run = [&](const std::string& name, double rate, size_t count,
                 uint64_t salt) {
    count = std::min(count, available - cursor);
    Phase ph = RunPhase(*w, catalog, name, rate, cursor, count,
                        config.seed * 1000003 + salt);
    cursor += count;
    r.attempted += ph.attempted;
    r.failed += ph.failed;
    unresolved += ph.unresolved;
    for (const auto& [code, n] : ph.failed_by_code) r.failed_by_code[code] += n;
    return ph;
  };

  // ---- Fixed-rate phases ----
  Phase light = run("light", P.light_rps, light_n, 1);
  ObsDelta busy_obs;
  Phase busy = run("busy", P.busy_rps, busy_n, 2);
  busy_obs.Finish();
  RecordPhaseSpans(light, tracer, tracer.Current());

  // ---- Capacity: highest ladder rate meeting the limit ----
  const int64_t ladder_span = tracer.Open("bench.ladder");
  const std::vector<double> ladder = GeometricLadder(P.ladder_lo, P.ladder_hi, 4);
  uint64_t probe_salt = 10;
  const LadderResult cap = SearchMaxRate(
      ladder,
      [&](double rate) {
        const Phase ph = run("probe", rate, P.probe_requests, probe_salt++);
        const ProbeResult p = ph.Probe();
        std::printf("  probe %7.0f req/s: p%g %.3f ms, goodput %.3f of offered\n",
                    rate, TailPercentile(ph.due.size()), p.tail_ms,
                    p.goodput_ratio);
        return p;
      },
      P.limit_ms, kMinGoodput);
  tracer.Close(ladder_span);

  const Summary light_lat = Summarize(light.LatenciesMs());
  const Summary busy_lat = Summarize(busy.LatenciesMs());
  const Summary light_lag = Summarize(light.LagMs());
  const Summary busy_lag = Summarize(busy.LagMs());

  // ---- Quality of the served answers (light + busy, deterministic) ----
  eval::MetricAccumulator quality({10});
  for (const Phase* ph : {&light, &busy}) {
    for (size_t i = 0; i < ph->results.size(); ++i) {
      const Request& q = w->requests[ph->first + i];
      const serve::ScoreResult& res = ph->results[i];
      if (q.target == 0 || !res.ok()) continue;
      if (catalog) {
        quality.Add(std::min<int64_t>(RankOf(res.pois, q.target), 1 << 30));
      } else {
        quality.Add(eval::RankOfTarget(res.scores, 0));
      }
    }
  }

  int64_t busy_ok = 0;
  for (const auto& res : busy.results) busy_ok += res.ok() ? 1 : 0;
  const double busy_done =
      *std::max_element(busy.ready.begin(), busy.ready.end()) - busy.start;
  auto& e = r.end_to_end;
  e["setup_s"] = {Median(setup_s), "s"};
  e["hr_at_10"] = {quality.HitRate(10), "ratio"};
  e["ndcg_at_10"] = {quality.Ndcg(10), "ratio"};
  // Timings swing by more than any allowed bound from run to run under the
  // default kernel thread count, so they are reported here and in the
  // traced run but not gated.
  r.ungated["throughput_per_s"] = {static_cast<double>(busy_ok) / busy_done,
                                   "1/s"};
  r.ungated["p50_ms.light"] = {light_lat.p50, "ms"};
  r.ungated["p50_ms.busy"] = {busy_lat.p50, "ms"};
  r.ungated["tail_ms.light"] = {light_lat.tail, "ms"};
  r.ungated["tail_ms.busy"] = {busy_lat.tail, "ms"};
  r.ungated["max_rate_rps"] = {cap.max_rate, "1/s"};
  std::printf(
      "  light %5.0f req/s: p50 %.3f ms, p%g %.3f ms over %zu requests "
      "(generator lag p%g %.3f ms)\n"
      "  busy  %5.0f req/s: p50 %.3f ms, p%g %.3f ms over %zu requests "
      "(generator lag p%g %.3f ms)\n"
      "  busy goodput %.1f req/s; max_rate_rps %.1f (highest passing rung "
      "%.0f, %d probes, limit %.0f ms)\n"
      "  served quality over %lld answers: HR@10 %.4f NDCG@10 %.4f\n",
      P.light_rps, light_lat.p50, light_lat.tail_pct, light_lat.tail,
      light_lat.count, light_lag.tail_pct, light_lag.tail, P.busy_rps,
      busy_lat.p50, busy_lat.tail_pct, busy_lat.tail, busy_lat.count,
      busy_lag.tail_pct, busy_lag.tail, r.ungated["throughput_per_s"].value,
      cap.max_rate, cap.highest_passing_rung,
      cap.probes, P.limit_ms, static_cast<long long>(quality.count()),
      quality.HitRate(10), quality.Ndcg(10));

  // ---- Output checks (outside every timed window) ----
  r.Check(light_lag.tail <= kMaxLagMs && busy_lag.tail <= kMaxLagMs,
          "generator lag within bound (run invalid otherwise)");
  r.Check(light.due.size() == light_n && busy.due.size() == busy_n,
          "request budget covers both fixed-rate phases");
  r.Check(unresolved == 0, "every future resolves");
  const int64_t checks_span = tracer.Open("bench.checks");
  std::mt19937_64 pick(config.seed + 99);
  std::unique_ptr<geo::SpatialGridIndex> index;
  std::unique_ptr<geo::CandidateGenerator> gen;
  if (catalog) {
    index = std::make_unique<geo::SpatialGridIndex>(
        std::vector<geo::GeoPoint>(w->dataset.poi_coords.begin() + 1,
                                   w->dataset.poi_coords.end()),
        w->service->options().catalog_cell_km);
    gen = std::make_unique<geo::CandidateGenerator>(
        *index,
        geo::CandidatePoolOptions{.pool_size =
                                      w->service->options().catalog_pool_size});
  }
  int mismatches = 0;
  for (const Phase* ph : {&light, &busy}) {
    for (size_t i = 0; i < ph->results.size(); ++i) {
      const Request& q = w->requests[ph->first + i];
      const serve::ScoreResult& res = ph->results[i];
      if (!res.ok()) continue;
      if (catalog) {
        // Distinct, unvisited, descending.
        const data::EvalInstance h = HistoryOf(w->dataset, q.user, q.history_len);
        const std::unordered_set<int64_t> seen(h.poi.begin(), h.poi.end());
        std::unordered_set<int64_t> distinct;
        bool ok = res.pois.size() == res.scores.size() &&
                  static_cast<int64_t>(res.pois.size()) <= kTopK;
        for (size_t j = 0; ok && j < res.pois.size(); ++j) {
          ok = distinct.insert(res.pois[j]).second && !seen.contains(res.pois[j]) &&
               (j == 0 || res.scores[j - 1] >= res.scores[j]);
        }
        if (!ok) ++mismatches;
      }
    }
  }
  r.Check(mismatches == 0, "every top-k list is distinct, unvisited, descending");
  int sample_mismatch = 0;
  for (int k = 0; k < kCheckSamples; ++k) {
    const Phase& ph = (k % 2 == 0) ? light : busy;
    const size_t i = pick() % ph.results.size();
    const Request& q = w->requests[ph.first + i];
    const serve::ScoreResult& res = ph.results[i];
    if (!res.ok()) continue;
    const data::EvalInstance h = HistoryOf(w->dataset, q.user, q.history_len);
    if (catalog) {
      const auto [pois, scores] = HandRank(*w, *gen, h);
      if (pois != res.pois || scores != res.scores) ++sample_mismatch;
    } else if (w->model->Score(h, q.candidates) != res.scores) {
      ++sample_mismatch;
    }
  }
  r.Check(sample_mismatch == 0,
          catalog ? "sampled top-k equal a hand-run CandidateGenerator + Score"
                  : "sampled scores bit-identical to a cold model->Score");
  tracer.Close(checks_span);

  if (config.trace) {
    auto& l = r.per_layer;
    const double nb = static_cast<double>(busy.due.size());
    l["data.generate_s"] = {Median(generate_s), "s"};
    l["tensor.dispatches_per_request"] = {
        Ratio(busy_obs.Get("kernels/dispatches"), nb), "count"};
    l["util.pool_tasks_per_request"] = {
        Ratio(busy_obs.Get("threadpool/tasks_submitted"), nb), "count"};
    const double rh = busy_obs.Get("relation/cache_hits");
    const double rm = busy_obs.Get("relation/cache_misses");
    l["core.relation_cache_hit_ratio"] = {Ratio(rh, rh + rm), "ratio"};
    const double th = busy_obs.Get("tape/cache_hits");
    const double tm = busy_obs.Get("tape/cache_misses");
    l["core.tape_cache_hit_ratio"] = {Ratio(th, th + tm), "ratio"};
    std::vector<double> admit_us, service_ms;
    for (size_t i = 0; i < busy.due.size(); ++i) {
      admit_us.push_back((busy.admitted[i] - busy.send[i]) * 1e6);
      if (busy.results[i].ok()) service_ms.push_back(busy.results[i].latency_s * 1e3);
    }
    l["serve.admit_us"] = {Median(admit_us), "us"};
    l["serve.service_ms"] = {Median(service_ms), "ms"};
    l["serve.queue_wait_ms.p50"] = {busy_obs.Quantile("serve/queue_wait", 0.5) * 1e3,
                                    "ms"};
    l["serve.queue_wait_ms.p99"] = {
        busy_obs.Quantile("serve/queue_wait", 0.99) * 1e3, "ms"};
    l["serve.batch_size"] = {Ratio(busy_obs.Sum("serve/batch_size"),
                                   static_cast<double>(busy_obs.Count("serve/batch_size"))),
                             "count"};
    const double reqs = busy_obs.Get("serve/requests");
    l["serve.incremental_ratio"] = {
        Ratio(busy_obs.Get("serve/incremental_scored"), reqs), "ratio"};
    l["serve.cold_build_ratio"] = {Ratio(busy_obs.Get("serve/cold_builds"), reqs),
                                   "ratio"};
    l["serve.evictions"] = {busy_obs.Get("serve/evictions"), "count"};
    l["serve.generator_lag_ms"] = {busy_lag.tail, "ms"};

    // In-thread replay of the busy stream's first requests through the
    // layers the service calls: stage one (catalog) and the incremental
    // scorer, one state per user.
    core::IncrementalScorer scorer(w->model.get(),
                                   w->service->options().max_seq_len);
    std::unordered_map<int64_t, std::unique_ptr<core::IncrementalState>> states;
    std::vector<double> pool_us, pool_size, sync_us, score_us;
    double rebuilds = 0.0, in_pool = 0.0, with_target = 0.0;
    const int64_t replay_root = tracer.Open("bench.layer_replay");
    for (int64_t i = 0; i < kReplaySamples &&
                        static_cast<size_t>(i) < busy.due.size();
         ++i) {
      const Request& q = w->requests[busy.first + static_cast<size_t>(i)];
      const data::EvalInstance h = HistoryOf(w->dataset, q.user, q.history_len);
      if (h.poi.empty()) continue;
      std::vector<int64_t> cands = q.candidates;
      if (catalog) {
        const std::unordered_set<int64_t> visited(h.poi.begin(), h.poi.end());
        geo::SpatialGridIndex::QueryScratch scratch;
        std::vector<int64_t> pool;
        const double t = NowSeconds();
        {
          ScopedSpan s(tracer, "geo.pool", static_cast<int64_t>(busy.first) + i);
          gen->Generate(w->dataset.poi_location(h.poi.back()),
                        [&visited](int64_t id) { return !visited.contains(id + 1); },
                        &scratch, &pool);
        }
        pool_us.push_back((NowSeconds() - t) * 1e6);
        pool_size.push_back(static_cast<double>(pool.size()));
        cands.clear();
        for (int64_t id : pool) cands.push_back(id + 1);
        if (q.target != 0) {
          with_target += 1.0;
          if (std::find(cands.begin(), cands.end(), q.target) != cands.end()) {
            in_pool += 1.0;
          }
        }
      }
      auto& st = states[q.user];
      if (!st) st = scorer.NewState();
      double t = NowSeconds();
      {
        ScopedSpan s(tracer, "core.sync", static_cast<int64_t>(busy.first) + i);
        rebuilds += static_cast<double>(scorer.Sync(*st, h.poi, h.t));
      }
      sync_us.push_back((NowSeconds() - t) * 1e6);
      t = NowSeconds();
      {
        ScopedSpan s(tracer, "core.score", static_cast<int64_t>(busy.first) + i);
        (void)scorer.Score(*st, h.poi, h.t, cands);
      }
      score_us.push_back((NowSeconds() - t) * 1e6);
    }
    tracer.Close(replay_root);
    l["core.sync_us"] = {Median(sync_us), "us"};
    l["core.score_us"] = {Median(score_us), "us"};
    l["core.rebuilds_per_sync"] = {
        Ratio(rebuilds, static_cast<double>(sync_us.size())), "count"};
    if (catalog) {
      l["geo.pool_us"] = {Median(pool_us), "us"};
      l["geo.pool_size"] = {Median(pool_size), "count"};
      l["geo.next_poi_in_pool_ratio"] = {Ratio(in_pool, with_target), "ratio"};
    }

    // Tracing overhead: the busy phase again with its spans recorded.
    Phase traced = run("busy_traced", P.busy_rps, busy_n, 2);
    RecordPhaseSpans(busy, tracer, tracer.Current());
    RecordPhaseSpans(traced, tracer, tracer.Current());
    r.overhead_untraced["p50_ms.busy"] = busy_lat.p50;
    r.overhead_traced["p50_ms.busy"] = Summarize(traced.LatenciesMs()).p50;
  }
  return r;
}

}  // namespace

WorkloadResult RunServeStream(const RunConfig& config, Tracer& tracer) {
  return RunServing(kServeStream, /*catalog=*/false, config, tracer);
}

WorkloadResult RunCatalogCity(const RunConfig& config, Tracer& tracer) {
  return RunServing(kCatalogCity, /*catalog=*/true, config, tracer);
}

}  // namespace perfbench
