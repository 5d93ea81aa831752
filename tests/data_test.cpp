#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>

#include "data/csv_loader.h"
#include "data/preprocess.h"
#include "data/synthetic.h"
#include "data/types.h"
#include "geo/geo.h"
#include "util/crc32.h"
#include "util/thread_pool.h"

namespace stisan::data {
namespace {

Dataset TinyDataset() {
  // 3 users, 4 POIs; user 2 has a single visit.
  Dataset ds;
  ds.name = "tiny";
  ds.poi_coords = {{}, {43.88, 125.35}, {43.89, 125.36}, {43.90, 125.37},
                   {43.95, 125.40}};
  ds.user_seqs = {
      {{1, 1000}, {2, 2000}, {3, 3000}, {1, 4000}, {2, 5000}},
      {{2, 1500}, {3, 2500}, {4, 3500}, {4, 4500}},
      {{1, 9000}},
  };
  return ds;
}

TEST(TypesTest, CountsAndStats) {
  Dataset ds = TinyDataset();
  EXPECT_EQ(ds.num_users(), 3);
  EXPECT_EQ(ds.num_pois(), 4);
  EXPECT_EQ(ds.num_checkins(), 10);
  auto stats = ds.Stats();
  EXPECT_EQ(stats.num_checkins, 10);
  EXPECT_NEAR(stats.avg_seq_length, 10.0 / 3.0, 1e-9);
  // Unique user-POI pairs: user 0 -> {1,2,3}, user 1 -> {2,3,4},
  // user 2 -> {1}: 7 of 3*4 cells.
  EXPECT_NEAR(stats.sparsity, 1.0 - 7.0 / 12.0, 1e-9);
  EXPECT_FALSE(stats.ToString().empty());
}

// ---- PadHead -----------------------------------------------------------------

TEST(PadHeadTest, PadsAtHeadWithFirstTimestamp) {
  std::vector<Visit> visits = {{5, 100.0}, {7, 200.0}};
  std::vector<int64_t> poi;
  std::vector<double> t;
  int64_t first_real = PadHead(visits, 5, &poi, &t);
  EXPECT_EQ(first_real, 3);
  EXPECT_EQ(poi, (std::vector<int64_t>{0, 0, 0, 5, 7}));
  EXPECT_EQ(t, (std::vector<double>{100, 100, 100, 100, 200}));
}

TEST(PadHeadTest, ExactLengthNoPadding) {
  std::vector<Visit> visits = {{1, 10.0}, {2, 20.0}};
  std::vector<int64_t> poi;
  std::vector<double> t;
  EXPECT_EQ(PadHead(visits, 2, &poi, &t), 0);
  EXPECT_EQ(poi, (std::vector<int64_t>{1, 2}));
}

// ---- FilterCold -----------------------------------------------------------------

TEST(FilterColdTest, RemovesColdUsersAndPois) {
  Dataset ds = TinyDataset();
  FilterOptions opts{.min_user_checkins = 4, .min_poi_checkins = 2};
  Dataset out = FilterCold(ds, opts);
  // User 2 (1 visit) goes; POI 4 visited twice but only by user 1 -> stays
  // iff count >= 2 among surviving users.
  EXPECT_EQ(out.num_users(), 2);
  for (const auto& seq : out.user_seqs) {
    EXPECT_GE(seq.size(), 4u);
  }
  // Ids are compacted to 1..P.
  for (const auto& seq : out.user_seqs) {
    for (const auto& v : seq) {
      EXPECT_GE(v.poi, 1);
      EXPECT_LE(v.poi, out.num_pois());
    }
  }
}

TEST(FilterColdTest, NoOpWhenThresholdsLow) {
  Dataset ds = TinyDataset();
  Dataset out = FilterCold(ds, {.min_user_checkins = 1, .min_poi_checkins = 1});
  EXPECT_EQ(out.num_checkins(), ds.num_checkins());
}

TEST(FilterColdTest, IteratesToFixedPoint) {
  // POI 4 is only visited by user 1; removing user 1 must cool POI 4 too.
  Dataset ds;
  ds.poi_coords = {{}, {1, 1}, {2, 2}, {3, 3}, {4, 4}};
  ds.user_seqs = {
      {{4, 1}, {4, 2}},                                // only user of POI 4
      {{1, 1}, {2, 2}, {3, 3}, {1, 4}, {2, 5}, {3, 6}},
      {{1, 1}, {2, 2}, {3, 3}, {1, 4}, {2, 5}, {3, 6}},
  };
  Dataset out = FilterCold(ds, {.min_user_checkins = 3, .min_poi_checkins = 3});
  EXPECT_EQ(out.num_users(), 2);
  EXPECT_EQ(out.num_pois(), 3);
}

// ---- Split ------------------------------------------------------------------------

TEST(SplitTest, TargetIsMostRecentUnvisited) {
  Dataset ds = TinyDataset();
  Split split = TrainTestSplit(ds, {.max_seq_len = 4});
  // User 0 sequence: 1,2,3,1,2 -> last previously-unvisited is POI 3 at
  // index 2.
  ASSERT_GE(split.test.size(), 1u);
  const auto& inst = split.test[0];
  EXPECT_EQ(inst.user, 0);
  EXPECT_EQ(inst.target, 3);
  // Source = the two visits before index 2, padded to length 4.
  EXPECT_EQ(inst.poi, (std::vector<int64_t>{0, 0, 1, 2}));
  EXPECT_EQ(inst.first_real, 2);
  // Visited set covers everything before the target.
  EXPECT_EQ(std::set<int64_t>(inst.visited.begin(), inst.visited.end()),
            (std::set<int64_t>{1, 2}));
}

TEST(SplitTest, TrainWindowsHaveLengthNPlusOne) {
  Dataset ds = TinyDataset();
  Split split = TrainTestSplit(ds, {.max_seq_len = 3});
  for (const auto& w : split.train) {
    EXPECT_EQ(w.poi.size(), 4u);
    EXPECT_EQ(w.t.size(), 4u);
    // At least two real entries so there is a (source, target) pair.
    EXPECT_LE(w.first_real, 2);
  }
}

TEST(SplitTest, WindowTimestampsMonotone) {
  auto ds = GenerateSynthetic(GowallaLikeConfig(0.1));
  Split split = TrainTestSplit(ds, {.max_seq_len = 10});
  for (const auto& w : split.train) {
    for (size_t i = 1; i < w.t.size(); ++i) {
      EXPECT_LE(w.t[i - 1], w.t[i]);
    }
  }
}

TEST(SplitTest, LongSequencesSplitFromEnd) {
  Dataset ds;
  ds.poi_coords.assign(12, geo::GeoPoint{});
  std::vector<Visit> seq;
  for (int i = 0; i < 23; ++i) seq.push_back({(i % 10) + 1, double(i * 100)});
  ds.user_seqs.push_back(seq);
  Split split = TrainTestSplit(ds, {.max_seq_len = 5});
  ASSERT_EQ(split.test.size(), 1u);
  // Train part is everything before the target; windows of length 6 sharing
  // one boundary visit cover it completely.
  int64_t real_total = 0;
  for (const auto& w : split.train) {
    for (int64_t p : w.poi) real_total += (p != kPaddingPoi) ? 1 : 0;
  }
  // Every real train visit is covered (boundary visits counted twice).
  EXPECT_GE(real_total, 10);
}

// ---- Synthetic ---------------------------------------------------------------------

// Users are generated in parallel on the process-wide pool; the output must
// not depend on its size. Runs `body` at each size, then restores the pool.
void ForEachPoolSize(const std::function<void(int64_t)>& body) {
  const int64_t original = NumThreads();
  for (int64_t threads : {1, 2, 4}) {
    SCOPED_TRACE("pool threads = " + std::to_string(threads));
    SetNumThreads(threads);
    body(threads);
  }
  SetNumThreads(original);
}

void ExpectSameDataset(const Dataset& a, const Dataset& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.poi_coords, b.poi_coords);
  EXPECT_EQ(a.user_seqs, b.user_seqs);
}

TEST(SyntheticTest, DeterministicForSeed) {
  const auto cfg = GowallaLikeConfig(0.05);
  Dataset serial;
  ForEachPoolSize([&](int64_t threads) {
    const Dataset a = GenerateSynthetic(cfg);
    const Dataset b = GenerateSynthetic(cfg);
    ExpectSameDataset(a, b);
    if (threads == 1) serial = a;
    ExpectSameDataset(a, serial);
  });
}

TEST(SyntheticTest, GeneratingInsideAPoolTaskMatchesTopLevel) {
  // Inside a pool task the generator's ParallelFor runs inline; it must
  // neither deadlock nor change the output.
  const auto cfg = MetroScaleConfig(0.2);
  const int64_t original = NumThreads();
  SetNumThreads(4);
  const Dataset top_level = GenerateSynthetic(cfg);
  std::vector<Dataset> nested(2);
  ParallelFor(GlobalPool(), 2, [&](int64_t i) {
    nested[static_cast<size_t>(i)] = GenerateSynthetic(cfg);
  });
  SetNumThreads(original);
  for (const Dataset& ds : nested) ExpectSameDataset(ds, top_level);
}

// CRC-32 over every POI coordinate and every (poi, timestamp) check-in.
uint32_t DatasetCrc(const Dataset& ds) {
  uint32_t crc = 0;
  for (const auto& p : ds.poi_coords) {
    crc = Crc32Extend(crc, &p.lat, sizeof(p.lat));
    crc = Crc32Extend(crc, &p.lon, sizeof(p.lon));
  }
  for (const auto& seq : ds.user_seqs) {
    for (const auto& v : seq) {
      crc = Crc32Extend(crc, &v.poi, sizeof(v.poi));
      crc = Crc32Extend(crc, &v.timestamp, sizeof(v.timestamp));
    }
  }
  return crc;
}

// The generator's output is a pinned artifact (DESIGN.md §2): golden metrics
// and benchmark quality metrics are computed on it, so any change to the
// generator must reproduce these datasets bit for bit, at any pool size.
TEST(SyntheticTest, OutputPinned) {
  const std::pair<SyntheticConfig, uint32_t> pinned[] = {
      {GowallaLikeConfig(1.0), 0x8dd4d288u},
      {BrightkiteLikeConfig(1.0), 0xbd1c8063u},
      {WeeplacesLikeConfig(1.0), 0x7c4ed1fau},
      {ChangchunLikeConfig(1.0), 0x7eb8adbbu},
      {MetroScaleConfig(0.2), 0x824db821u},
  };
  ForEachPoolSize([&](int64_t) {
    for (const auto& [cfg, crc] : pinned) {
      const Dataset ds = GenerateSynthetic(cfg);
      EXPECT_EQ(DatasetCrc(ds), crc)
          << cfg.name << ": " << ds.num_pois() << " POIs, "
          << ds.num_checkins() << " check-ins";
    }
  });
}

TEST(SyntheticTest, ChronologicalAndInRange) {
  auto ds = GenerateSynthetic(BrightkiteLikeConfig(0.1));
  for (const auto& seq : ds.user_seqs) {
    for (size_t i = 0; i < seq.size(); ++i) {
      EXPECT_GE(seq[i].poi, 1);
      EXPECT_LE(seq[i].poi, ds.num_pois());
      if (i > 0) {
        EXPECT_GE(seq[i].timestamp, seq[i - 1].timestamp);
      }
    }
  }
}

TEST(SyntheticTest, PresetsMatchPaperShape) {
  // Relative characteristics of Table II: Weeplaces has the longest
  // sequences, Changchun the smallest POI set and most users.
  auto gow = GenerateSynthetic(GowallaLikeConfig(0.2)).Stats();
  auto wee = GenerateSynthetic(WeeplacesLikeConfig(0.2)).Stats();
  auto cc = GenerateSynthetic(ChangchunLikeConfig(0.2)).Stats();
  EXPECT_GT(wee.avg_seq_length, 2.0 * gow.avg_seq_length);
  EXPECT_LT(cc.num_pois, gow.num_pois);
  EXPECT_GT(cc.num_users, gow.num_users);
}

TEST(SyntheticTest, ShortGapsMeanShortDistances) {
  // The planted spatio-temporal coupling: check-ins separated by < 1 h are
  // on average much closer than check-ins separated by > 24 h.
  auto ds = GenerateSynthetic(GowallaLikeConfig(0.25));
  double short_sum = 0, long_sum = 0;
  int64_t short_n = 0, long_n = 0;
  for (const auto& seq : ds.user_seqs) {
    for (size_t i = 1; i < seq.size(); ++i) {
      const double gap = seq[i].timestamp - seq[i - 1].timestamp;
      const double dist = geo::HaversineKm(ds.poi_location(seq[i].poi),
                                           ds.poi_location(seq[i - 1].poi));
      if (gap < 3600) {
        short_sum += dist;
        ++short_n;
      } else if (gap > 86400) {
        long_sum += dist;
        ++long_n;
      }
    }
  }
  ASSERT_GT(short_n, 50);
  ASSERT_GT(long_n, 50);
  EXPECT_LT(short_sum / short_n, 0.7 * (long_sum / long_n));
}

TEST(SyntheticTest, PopularitySkewed) {
  auto ds = GenerateSynthetic(GowallaLikeConfig(0.2));
  std::vector<int64_t> counts(static_cast<size_t>(ds.num_pois()) + 1, 0);
  for (const auto& seq : ds.user_seqs) {
    for (const auto& v : seq) counts[static_cast<size_t>(v.poi)]++;
  }
  std::sort(counts.rbegin(), counts.rend());
  const int64_t total = ds.num_checkins();
  int64_t top_decile = 0;
  for (size_t i = 0; i < counts.size() / 10; ++i) top_decile += counts[i];
  // Top 10% of POIs should hold well over 10% of the check-ins.
  EXPECT_GT(double(top_decile) / double(total), 0.3);
}

// ---- CSV round trip ------------------------------------------------------------------

TEST(CsvTest, RoundTrip) {
  auto ds = GenerateSynthetic(GowallaLikeConfig(0.03));
  const std::string path = "/tmp/stisan_csv_test.csv";
  ASSERT_TRUE(SaveCsv(ds, path).ok());
  auto loaded = LoadCsv(path, "reload");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_users(), ds.num_users());
  EXPECT_EQ(loaded->num_checkins(), ds.num_checkins());
  // Only POIs that appear in at least one check-in survive the round trip.
  std::unordered_set<int64_t> visited;
  for (const auto& seq : ds.user_seqs) {
    for (const auto& v : seq) visited.insert(v.poi);
  }
  EXPECT_EQ(loaded->num_pois(), static_cast<int64_t>(visited.size()));
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFile) {
  auto r = LoadCsv("/nonexistent/nope.csv", "x");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(CsvTest, MalformedRows) {
  const std::string path = "/tmp/stisan_csv_bad.csv";
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("u1,p1,43.8,125.3\n", f);  // 4 fields
    fclose(f);
  }
  EXPECT_FALSE(LoadCsv(path, "x").ok());
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("u1,p1,999.0,125.3,100\n", f);  // latitude out of range
    fclose(f);
  }
  EXPECT_FALSE(LoadCsv(path, "x").ok());
  std::remove(path.c_str());
}

// Each rejection must carry the offending line number and name the bad
// field, so a 10M-row ingest failure is actionable.
TEST(CsvTest, ErrorsNameFieldAndLineNumber) {
  const std::string path = "/tmp/stisan_csv_field.csv";
  auto write = [&](const char* contents) {
    FILE* f = fopen(path.c_str(), "w");
    fputs("u1,p1,43.8,125.3,100\n", f);  // valid line 1
    fputs(contents, f);                  // offending line 2
    fclose(f);
  };
  auto expect_rejected = [&](const char* needle) {
    auto r = LoadCsv(path, "x");
    ASSERT_FALSE(r.ok()) << "accepted row with " << needle;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find(":2:"), std::string::npos)
        << "missing line number in: " << r.status().message();
    EXPECT_NE(r.status().message().find(needle), std::string::npos)
        << "missing '" << needle << "' in: " << r.status().message();
  };

  write("u1,p1,43.8,125.3\n");  // truncated row
  expect_rejected("expected 5 fields");
  write("u1,p1,43.8,125.3,abc\n");
  expect_rejected("timestamp");
  write("u1,p1,4x.8,125.3,100\n");
  expect_rejected("latitude");
  write("u1,p1,43.8,12x.3,100\n");
  expect_rejected("longitude");
  write("u1,p1,91.0,125.3,100\n");
  expect_rejected("out of range");
  write("u1,p1,43.8,181.0,100\n");
  expect_rejected("out of range");
  write("u1,,43.8,125.3,100\n");
  expect_rejected("empty user or poi");
  std::remove(path.c_str());
}

// NaN compares false against range bounds, so it needs an explicit
// isfinite check to be caught.
TEST(CsvTest, NonFiniteValuesRejected) {
  const std::string path = "/tmp/stisan_csv_nonfinite.csv";
  auto rejects = [&](const char* row) {
    FILE* f = fopen(path.c_str(), "w");
    fputs(row, f);
    fclose(f);
    auto r = LoadCsv(path, "x");
    ASSERT_FALSE(r.ok()) << "accepted: " << row;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  };
  rejects("u1,p1,nan,125.3,100\n");
  rejects("u1,p1,43.8,nan,100\n");
  rejects("u1,p1,inf,125.3,100\n");
  rejects("u1,p1,43.8,125.3,nan\n");
  rejects("u1,p1,43.8,125.3,inf\n");
  std::remove(path.c_str());
}

TEST(CsvTest, HeaderSkippedAndSorted) {
  const std::string path = "/tmp/stisan_csv_header.csv";
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("user,poi,lat,lon,timestamp\n", f);
    fputs("u1,p1,43.8,125.3,2000\n", f);
    fputs("u1,p2,43.9,125.4,1000\n", f);  // out of order
    fclose(f);
  }
  auto r = LoadCsv(path, "x");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->user_seqs.size(), 1u);
  EXPECT_EQ(r->user_seqs[0][0].timestamp, 1000.0);
  EXPECT_EQ(r->user_seqs[0][1].timestamp, 2000.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace stisan::data
