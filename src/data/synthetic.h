// Synthetic LBSN check-in generator.
//
// The public dumps the paper uses (Gowalla, Brightkite, Weeplaces and the
// proprietary Changchun transportation log) are unavailable offline, so this
// generator produces check-in streams with the statistical structure those
// models exploit (see DESIGN.md §2):
//
//  * POIs clustered around activity centres (spatial clustering [24]-[26]);
//  * power-law POI popularity;
//  * each user anchored to a home region with a personal favourite set;
//  * movement coupled to time gaps: short gaps lead to spatially-near next
//    POIs, long (e.g. overnight) gaps lead back to the home region or to
//    globally popular POIs. This is exactly the Δt→Δd dependency that TAPE
//    and IAAB (and TiSASRec/STAN/GeoSAN) are designed to capture, so models
//    that use spatio-temporal intervals genuinely separate from order-only
//    baselines.
//
// Everything is driven by a seeded Rng: identical configs reproduce
// identical datasets bit-for-bit. The preset outputs are pinned by
// SyntheticTest.OutputPinned (DESIGN.md §2).

#pragma once

#include <cstdint>
#include <string>

#include "data/types.h"

namespace stisan::data {

struct SyntheticConfig {
  std::string name = "synthetic";
  uint64_t seed = 42;

  // ---- World ----
  int64_t num_users = 300;
  int64_t num_pois = 1500;
  int64_t num_clusters = 12;
  geo::GeoPoint city_center = {43.88, 125.35};
  double city_radius_km = 15.0;
  double cluster_radius_km = 1.2;
  double poi_zipf_alpha = 0.8;       // POI popularity skew
  double cluster_zipf_alpha = 1.1;   // cluster size skew
  /// Exponent applied to popularity inside movement choices; < 1 weakens
  /// the popularity shortcut so spatial signals carry real information.
  double popularity_weight = 0.5;

  // ---- Per-user behaviour ----
  int64_t min_checkins = 30;
  int64_t max_checkins = 120;
  int64_t favorites = 10;            // personal frequently-visited POIs
  /// Each user frequents this many anchor regions (home, work, leisure);
  /// after long gaps they re-appear near one of them. Recovering the anchor
  /// set requires attending spatially over the whole history — the signal
  /// behind the paper's Fig. 2 observation.
  int64_t anchors = 3;
  double anchor_radius_km = 2.5;     // POI pool radius around an anchor
  double nearby_radius_km = 4.0;     // "stay in the area" radius
  double p_nearby_after_short_gap = 0.85;
  double p_anchor_after_long_gap = 0.8;
  double p_favorite = 0.5;           // short-gap non-nearby: revisit habit
  /// Movement choices weight POIs by exp(-distance / distance_decay_km):
  /// sharply preferring closer POIs is the spatial-clustering signal
  /// geo-aware models exploit.
  double distance_decay_km = 0.4;
  double anchor_decay_km = 1.0;      // softer decay around anchors
  /// Direction persistence within a session: the next move is additionally
  /// weighted by exp(momentum * cos(angle to the previous move)). This is
  /// *second-order* structure — a first-order Markov model (FPMC) cannot
  /// represent it, sequence models can.
  double momentum = 1.5;
  /// After a long gap the user advances through their anchors in a fixed
  /// personal routine (home -> work -> leisure -> home ...) with this
  /// probability; otherwise an anchor is drawn by weight. The *session
  /// start* anchor is best inferred from the whole recent history.
  double p_cycle_anchor = 0.75;

  // ---- Temporal structure ----
  double p_long_gap = 0.3;           // overnight / multi-day break
  double short_gap_hours_mean = 2.5;
  double long_gap_hours_mean = 18.0;

  /// Approximate scale multiplier applied to num_users/num_pois (used by
  /// presets to shrink paper-scale datasets to CPU scale).
  double scale = 1.0;
};

/// Generates a dataset according to `config`.
Dataset GenerateSynthetic(const SyntheticConfig& config);

/// Presets that mirror the relative characteristics of the paper's four
/// datasets (Table II) at CPU scale: Gowalla (many users, many POIs, short
/// sequences), Brightkite (medium, longer sequences), Weeplaces (few users,
/// very long sequences), Changchun (huge user base, tiny POI set — a city
/// transportation network).
SyntheticConfig GowallaLikeConfig(double scale = 1.0);
SyntheticConfig BrightkiteLikeConfig(double scale = 1.0);
SyntheticConfig WeeplacesLikeConfig(double scale = 1.0);
SyntheticConfig ChangchunLikeConfig(double scale = 1.0);

/// Catalog-scale preset for the two-stage full-catalog ranker (DESIGN.md
/// §17): a metropolis-sized POI universe — 1e5 POIs at scale 1, 1e6 at
/// scale 10 — spread over many small clusters, with a deliberately modest
/// user sample (users grow as sqrt(scale)). The point is stressing
/// stage-one retrieval over a huge catalog, not training volume.
SyntheticConfig MetroScaleConfig(double scale = 1.0);

}  // namespace stisan::data
