// Core data types for sequential POI recommendation: check-ins, datasets,
// training windows and evaluation instances (paper §II).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geo/geo.h"

namespace stisan::data {

/// POI id 0 is reserved for the head-padding token everywhere.
inline constexpr int64_t kPaddingPoi = 0;

/// One visit in a user's chronological history (Definition 1, with the user
/// implicit in the containing sequence and the location stored per POI).
struct Visit {
  int64_t poi = kPaddingPoi;
  double timestamp = 0.0;  // seconds since epoch

  bool operator==(const Visit&) const = default;
};

/// Aggregate statistics matching the paper's Table II.
struct DatasetStats {
  int64_t num_users = 0;
  int64_t num_pois = 0;
  int64_t num_checkins = 0;
  double sparsity = 0.0;         // 1 - checkins / (users * pois)
  double avg_seq_length = 0.0;

  std::string ToString() const;
};

/// A check-in dataset: per-user chronological sequences plus POI locations.
struct Dataset {
  std::string name;
  /// Index = POI id; entry 0 is the padding POI (location unused).
  std::vector<geo::GeoPoint> poi_coords;
  /// Index = user id (0-based), chronologically sorted visits.
  std::vector<std::vector<Visit>> user_seqs;

  int64_t num_users() const { return static_cast<int64_t>(user_seqs.size()); }
  int64_t num_pois() const {
    return static_cast<int64_t>(poi_coords.size()) - 1;
  }
  int64_t num_checkins() const;
  const geo::GeoPoint& poi_location(int64_t poi) const {
    return poi_coords[static_cast<size_t>(poi)];
  }

  DatasetStats Stats() const;
};

/// A fixed-length training window of n+1 visits (head-padded with
/// kPaddingPoi): source = visits[0..n-1], target = visits[1..n]
/// (paper §III-A: predict the i+1-th POI at each step i).
struct TrainWindow {
  int64_t user = 0;
  std::vector<int64_t> poi;  // length n+1
  std::vector<double> t;     // length n+1; padding copies the first real time
  /// Index of the first non-padding entry in [0, n+1).
  int64_t first_real = 0;
};

/// A test instance: the user's most recent n visits as source and the held
/// out next POI as target (paper §IV-A).
struct EvalInstance {
  int64_t user = 0;
  std::vector<int64_t> poi;  // length n source (head-padded)
  std::vector<double> t;     // length n
  int64_t first_real = 0;
  int64_t target = 0;
  double target_time = 0.0;
  /// All POIs the user visited before the target (for "previously
  /// unvisited" candidate filtering).
  std::vector<int64_t> visited;
};

}  // namespace stisan::data
