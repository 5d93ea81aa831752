#include "data/synthetic.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "geo/spatial_index.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace stisan::data {
namespace {

constexpr double kHour = 3600.0;

// The world and each user's anchors cache every weight that does not change
// between draws. A cached weight is the same double the draw would compute,
// and a cached total is summed in the same index order as
// Rng::Categorical(weights), so the output is bit-identical to recomputing
// them per draw (SyntheticTest.OutputPinned, DESIGN.md §2).
struct World {
  std::vector<geo::GeoPoint> cluster_centers;
  /// popularity^popularity_weight of POI p at index p - 1, and its sum in
  /// index order: the weights of a popularity draw over all POIs.
  std::vector<double> poi_weight;
  double poi_weight_total = 0.0;
};

double Sum(const std::vector<double>& w) {
  double total = 0.0;
  for (double x : w) total += x;
  return total;
}

World BuildWorld(const SyntheticConfig& cfg, Rng& rng,
                 std::vector<geo::GeoPoint>* poi_coords) {
  World world;
  // Activity centres uniform in the city disk.
  for (int64_t c = 0; c < cfg.num_clusters; ++c) {
    const double r = cfg.city_radius_km * std::sqrt(rng.Uniform());
    const double theta = rng.Uniform() * 2.0 * M_PI;
    world.cluster_centers.push_back(geo::OffsetKm(
        cfg.city_center, r * std::sin(theta), r * std::cos(theta)));
  }
  // POIs: cluster chosen by a skewed distribution, position gaussian around
  // the centre, popularity Zipf over a random permutation (so popularity is
  // not correlated with id order).
  poi_coords->clear();
  poi_coords->push_back({});  // padding POI 0
  world.poi_weight.resize(static_cast<size_t>(cfg.num_pois));
  std::vector<int64_t> rank(static_cast<size_t>(cfg.num_pois));
  for (size_t i = 0; i < rank.size(); ++i) rank[i] = static_cast<int64_t>(i);
  rng.Shuffle(rank);
  const size_t num_clusters = static_cast<size_t>(cfg.num_clusters);
  const bool zipf_table =
      Rng::ZipfDrawsFromTable(num_clusters, cfg.cluster_zipf_alpha);
  const std::vector<double> cluster_weight =
      zipf_table ? Rng::ZipfWeights(num_clusters, cfg.cluster_zipf_alpha)
                 : std::vector<double>{};
  const double cluster_total = Sum(cluster_weight);
  for (int64_t p = 1; p <= cfg.num_pois; ++p) {
    const size_t cluster =
        zipf_table ? rng.Categorical(cluster_weight, cluster_total)
                   : rng.Zipf(num_clusters, cfg.cluster_zipf_alpha);
    const geo::GeoPoint center = world.cluster_centers[cluster];
    poi_coords->push_back(geo::OffsetKm(
        center, rng.Normal(0.0, cfg.cluster_radius_km),
        rng.Normal(0.0, cfg.cluster_radius_km)));
    const double popularity = std::pow(
        double(rank[static_cast<size_t>(p - 1)] + 1), -cfg.poi_zipf_alpha);
    world.poi_weight[static_cast<size_t>(p - 1)] =
        std::pow(popularity, cfg.popularity_weight);
  }
  world.poi_weight_total = Sum(world.poi_weight);
  return world;
}

// Samples a POI id from all POIs weighted by popularity^popularity_weight.
int64_t SampleByPopularity(const World& world, Rng& rng) {
  const size_t i = rng.Categorical(world.poi_weight, world.poi_weight_total);
  return static_cast<int64_t>(i) + 1;
}

// Fills `w` with the move weights of index candidates `ids` (POI id - 1) at
// distances `dist_km` from `origin`: popularity^popularity_weight x
// exp(-distance / decay_km), optionally x exp(momentum * cos(angle between
// the previous move direction and the move to the candidate)).
void MoveWeights(const World& world, const geo::SpatialGridIndex& index,
                 const std::vector<int64_t>& ids,
                 const std::vector<double>& dist_km,
                 const geo::GeoPoint& origin, double decay_km,
                 std::vector<double>* w,
                 const geo::GeoPoint* previous = nullptr,
                 double momentum = 0.0) {
  // Previous move direction (km offsets), if meaningful.
  const double cos_lat = std::cos(origin.lat * M_PI / 180.0);
  double dir_x = 0.0, dir_y = 0.0, dir_norm = 0.0;
  if (previous != nullptr && momentum > 0.0) {
    dir_y = origin.lat - previous->lat;
    dir_x = (origin.lon - previous->lon) * cos_lat;
    dir_norm = std::sqrt(dir_x * dir_x + dir_y * dir_y);
  }
  w->resize(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    double weight = world.poi_weight[static_cast<size_t>(ids[i])] *
                    std::exp(-dist_km[i] / decay_km);
    if (dir_norm > 1e-9) {
      const auto& c = index.point(ids[i]);
      double mx = (c.lon - origin.lon) * cos_lat;
      double my = c.lat - origin.lat;
      const double mnorm = std::sqrt(mx * mx + my * my);
      if (mnorm > 1e-9) {
        const double cosine =
            (mx * dir_x + my * dir_y) / (mnorm * dir_norm);
        weight *= std::exp(momentum * cosine);
      }
    }
    (*w)[i] = weight;
  }
}

// An anchor cluster's POI pool (index ids) with the move weights from the
// cluster centre, and their sum. It depends only on the cluster, so each
// distinct drawn cluster's pool is built once and shared read-only.
struct AnchorPool {
  std::vector<int64_t> ids;
  std::vector<double> weight;
  double total = 0.0;
};

// One pool thread's scratch. The calling thread allocates and reserves it
// to its exact upper bounds, so workers never allocate (DESIGN.md §2).
struct UserScratch {
  std::vector<const AnchorPool*> anchors;
  std::vector<int64_t> favorites;
  std::vector<int64_t> near_ids;
  std::vector<double> dist_km;
  std::vector<double> near_weight;
};

// Builds the pool through `scratch`, so the pool's own vectors are
// allocated once at their exact size.
AnchorPool BuildAnchorPool(const SyntheticConfig& cfg, const World& world,
                           const geo::SpatialGridIndex& index,
                           const geo::GeoPoint& center, UserScratch& scratch) {
  std::vector<int64_t>& ids = scratch.near_ids;
  std::vector<double>& dist_km = scratch.dist_km;
  index.WithinRadiusInto(center, cfg.anchor_radius_km, &ids, &dist_km);
  if (ids.empty()) {  // no POI near the centre: every POI
    for (int64_t id = 0; id < index.size(); ++id) {
      ids.push_back(id);
      dist_km.push_back(geo::HaversineKm(center, index.point(id)));
    }
  }
  AnchorPool pool;
  pool.ids = ids;
  MoveWeights(world, index, pool.ids, dist_km, center, cfg.anchor_decay_km,
              &pool.weight);
  pool.total = Sum(pool.weight);
  return pool;
}

// Generates one user's check-ins into `seq` from `rng`, the user's forked
// stream just past its anchor-cluster draws; scratch.anchors holds the
// pools of those clusters in draw order.
void GenerateUser(const SyntheticConfig& cfg, const World& world,
                  const geo::SpatialGridIndex& index,
                  const std::vector<geo::GeoPoint>& poi_coords,
                  const std::vector<double>& anchor_weights, Rng& rng,
                  UserScratch& scratch, std::vector<Visit>& seq) {
  const std::vector<const AnchorPool*>& anchors = scratch.anchors;
  // Samples a POI of anchor `a`'s pool by its move weight.
  const auto sample_anchor = [&](size_t a) {
    const AnchorPool& pool = *anchors[a];
    return pool.ids[rng.Categorical(pool.weight, pool.total)] + 1;
  };
  // Personal favourites: habitual POIs near the home anchor.
  std::vector<int64_t>& favorites = scratch.favorites;
  favorites.clear();
  for (int64_t f = 0; f < cfg.favorites; ++f) {
    favorites.push_back(sample_anchor(0));
  }

  const int64_t length = rng.UniformInt(cfg.min_checkins, cfg.max_checkins);

  // Day-session structure: each session starts near one of the user's
  // anchors (after an overnight/multi-day gap) and continues with a run
  // of short-gap moves that sharply prefer POIs close to the current one.
  // Session progress is readable from the PAST inter-check-in intervals,
  // so interval-aware models can anticipate whether the next move stays
  // local (mid-session) or jumps to an anchor (session boundary).
  double t = double(rng.UniformInt(int64_t{0}, int64_t{365})) * 24.0 * kHour +
             rng.Normal(9.0, 1.5) * kHour;
  int64_t current =
      favorites[rng.UniformInt(static_cast<uint64_t>(favorites.size()))];
  int64_t previous = 0;  // padding = no previous move yet
  size_t routine_position =
      rng.UniformInt(static_cast<uint64_t>(anchors.size()));
  seq.push_back({current, t});

  while (static_cast<int64_t>(seq.size()) < length) {
    // ---- Continue the current session with short-gap local moves. ----
    const int64_t session_moves = rng.UniformInt(int64_t{1}, int64_t{5});
    for (int64_t sidx = 0;
         sidx < session_moves && static_cast<int64_t>(seq.size()) < length;
         ++sidx) {
      t += std::max(0.05, rng.Exponential(1.0 / cfg.short_gap_hours_mean)) *
           kHour;
      int64_t next;
      if (rng.Bernoulli(cfg.p_nearby_after_short_gap)) {
        const auto& origin = poi_coords[static_cast<size_t>(current)];
        index.WithinRadiusInto(origin, cfg.nearby_radius_km,
                               &scratch.near_ids, &scratch.dist_km);
        if (scratch.near_ids.empty()) {
          next = SampleByPopularity(world, rng);
        } else {
          const geo::GeoPoint* prev_loc =
              previous != 0 ? &poi_coords[static_cast<size_t>(previous)]
                            : nullptr;
          MoveWeights(world, index, scratch.near_ids, scratch.dist_km,
                      origin, cfg.distance_decay_km, &scratch.near_weight,
                      prev_loc, cfg.momentum);
          next = scratch.near_ids[rng.Categorical(scratch.near_weight)] + 1;
        }
      } else if (rng.Bernoulli(cfg.p_favorite)) {
        next =
            favorites[rng.UniformInt(static_cast<uint64_t>(favorites.size()))];
      } else {
        next = SampleByPopularity(world, rng);
      }
      seq.push_back({next, t});
      previous = current;
      current = next;
    }
    if (static_cast<int64_t>(seq.size()) >= length) break;

    // ---- Session boundary: overnight (or multi-day) gap, then the user
    // re-appears near one of their anchor regions. ----
    t += (10.0 + rng.Exponential(1.0 / cfg.long_gap_hours_mean) *
                     cfg.long_gap_hours_mean) *
         kHour;
    int64_t next;
    if (rng.Bernoulli(cfg.p_anchor_after_long_gap)) {
      // Personal routine: usually the next anchor in the cycle, sometimes
      // a weight-sampled one.
      if (rng.Bernoulli(cfg.p_cycle_anchor)) {
        routine_position = (routine_position + 1) % anchors.size();
      } else {
        routine_position = rng.Categorical(anchor_weights);
      }
      next = sample_anchor(routine_position);
    } else {
      next = SampleByPopularity(world, rng);
    }
    seq.push_back({next, t});
    previous = 0;  // a long gap resets the movement direction
    current = next;
  }
}

}  // namespace

Dataset GenerateSynthetic(const SyntheticConfig& cfg) {
  STISAN_CHECK_GE(cfg.num_users, 1);
  STISAN_CHECK_GE(cfg.num_pois, 10);
  STISAN_CHECK_GE(cfg.num_clusters, 1);
  Rng rng(cfg.seed);

  Dataset ds;
  ds.name = cfg.name;
  const World world = BuildWorld(cfg, rng, &ds.poi_coords);

  // Spatial index over real POIs (ids shifted by 1: index id = poi - 1).
  std::vector<geo::GeoPoint> real_coords(ds.poi_coords.begin() + 1,
                                         ds.poi_coords.end());
  const geo::SpatialGridIndex index(real_coords, /*cell_km=*/2.0);

  // Anchor regions: a home cluster plus a few secondary clusters the user
  // frequents. Anchor weights decay geometrically (home dominates).
  const size_t num_users = static_cast<size_t>(cfg.num_users);
  const size_t num_anchors =
      static_cast<size_t>(std::min<int64_t>(cfg.anchors, cfg.num_clusters));
  std::vector<double> anchor_weights;
  for (size_t a = 0; a < num_anchors; ++a) {
    anchor_weights.push_back(std::pow(0.45, double(a)));
  }

  // Everything a worker writes is sized here, on the calling thread: the
  // output first, then the scratch and the pools, which are freed after
  // the parallel section and so sit above the output in the heap.
  ds.user_seqs.resize(num_users);
  for (auto& seq : ds.user_seqs) {
    seq.reserve(static_cast<size_t>(cfg.max_checkins));
  }
  ThreadPool& pool = GlobalPool();
  std::vector<UserScratch> slots(static_cast<size_t>(pool.num_threads()));
  for (UserScratch& slot : slots) {
    slot.anchors.reserve(num_anchors);
    slot.favorites.reserve(static_cast<size_t>(std::max<int64_t>(
        0, cfg.favorites)));
    slot.near_ids.reserve(static_cast<size_t>(index.size()));
    slot.dist_km.reserve(static_cast<size_t>(index.size()));
    slot.near_weight.reserve(static_cast<size_t>(index.size()));
  }

  // Serial pre-pass, in user order: fork each user's stream and make its
  // first draws, the anchor clusters, then build each distinct drawn
  // cluster's pool once. Everything after that is per-user.
  std::vector<Rng> user_rngs;
  user_rngs.reserve(num_users);
  std::vector<size_t> user_clusters(num_users * num_anchors);
  std::vector<AnchorPool> pools(static_cast<size_t>(cfg.num_clusters));
  for (size_t u = 0; u < num_users; ++u) {
    Rng& user_rng = user_rngs.emplace_back(rng.Fork());
    for (size_t a = 0; a < num_anchors; ++a) {
      const size_t cluster =
          user_rng.UniformInt(static_cast<uint64_t>(cfg.num_clusters));
      user_clusters[u * num_anchors + a] = cluster;
      if (pools[cluster].ids.empty()) {  // a built pool is never empty
        pools[cluster] = BuildAnchorPool(
            cfg, world, index, world.cluster_centers[cluster], slots[0]);
      }
    }
  }

  // Users run in parallel on the process pool, handed out one at a time to
  // one scratch slot per pool thread. Each draws only from its own stream,
  // so the output is bit-identical at any thread count. Workers must not
  // allocate (DESIGN.md §2).
  std::atomic<size_t> next_user{0};
  ParallelFor(pool, static_cast<int64_t>(slots.size()), [&](int64_t s) {
    UserScratch& slot = slots[static_cast<size_t>(s)];
    for (size_t u = next_user.fetch_add(1, std::memory_order_relaxed);
         u < num_users;
         u = next_user.fetch_add(1, std::memory_order_relaxed)) {
      slot.anchors.clear();
      for (size_t a = 0; a < num_anchors; ++a) {
        slot.anchors.push_back(&pools[user_clusters[u * num_anchors + a]]);
      }
      GenerateUser(cfg, world, index, ds.poi_coords, anchor_weights,
                   user_rngs[u], slot, ds.user_seqs[u]);
    }
  });

  // Hand the pools (about 3 MB at metro scale) and scratch back to the OS.
  // On free, glibc returns memory only from the top of the heap and only
  // above its trim threshold (128 MiB once the tape retention policy in
  // src/tensor/tensor.cc is installed); malloc_trim also releases free
  // pages inside the heap. Measured on the catalog_city benchmark (4-core
  // x86-64, seeds 11-13): peak RSS 42.3-43.1 MB without the trim and
  // 40.8-42.2 MB with it, against 40.6-41.3 MB for the serial generator.
  pools = {};
  slots = {};
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  return ds;
}

namespace {
// Scales a base count, clamped below so the evaluation protocol keeps a
// usable number of test users and a non-degenerate POI universe at small
// bench scales.
int64_t Scaled(int64_t base, double scale, int64_t floor = 1) {
  return std::max<int64_t>(floor,
                           static_cast<int64_t>(double(base) * scale));
}
}  // namespace

SyntheticConfig GowallaLikeConfig(double scale) {
  // Gowalla: many users, very many POIs, short sequences (avg 53).
  SyntheticConfig cfg;
  cfg.name = "gowalla-like";
  cfg.seed = 1001;
  cfg.num_users = Scaled(400, scale, /*floor=*/120);
  cfg.num_pois = Scaled(2400, scale, /*floor=*/700);
  cfg.num_clusters = 16;
  cfg.city_radius_km = 25.0;
  cfg.min_checkins = 25;
  cfg.max_checkins = 80;  // avg ~53
  return cfg;
}

SyntheticConfig BrightkiteLikeConfig(double scale) {
  // Brightkite: medium size, longer sequences (avg 146).
  SyntheticConfig cfg;
  cfg.name = "brightkite-like";
  cfg.seed = 1002;
  cfg.num_users = Scaled(200, scale, /*floor=*/90);
  cfg.num_pois = Scaled(1600, scale, /*floor=*/500);
  cfg.num_clusters = 12;
  cfg.city_radius_km = 20.0;
  cfg.min_checkins = 90;
  cfg.max_checkins = 200;  // avg ~146
  return cfg;
}

SyntheticConfig WeeplacesLikeConfig(double scale) {
  // Weeplaces: few users, very long sequences (avg 325).
  SyntheticConfig cfg;
  cfg.name = "weeplaces-like";
  cfg.seed = 1003;
  cfg.num_users = Scaled(100, scale, /*floor=*/60);
  cfg.num_pois = Scaled(1200, scale, /*floor=*/400);
  cfg.num_clusters = 10;
  cfg.city_radius_km = 18.0;
  cfg.min_checkins = 250;
  cfg.max_checkins = 400;  // avg ~325
  return cfg;
}

SyntheticConfig ChangchunLikeConfig(double scale) {
  // Changchun: huge user base over a tiny POI set (city transport network),
  // short sequences (avg 43). We keep the POI set small and users numerous.
  SyntheticConfig cfg;
  cfg.name = "changchun-like";
  cfg.seed = 1004;
  cfg.num_users = Scaled(800, scale, /*floor=*/200);
  cfg.num_pois = Scaled(600, scale, /*floor=*/280);
  cfg.num_clusters = 8;
  cfg.city_radius_km = 12.0;
  cfg.cluster_radius_km = 0.8;
  cfg.min_checkins = 25;
  cfg.max_checkins = 60;  // avg ~43
  return cfg;
}

SyntheticConfig MetroScaleConfig(double scale) {
  // Metropolis catalog: 1e5 POIs at scale 1 across hundreds of small,
  // dense clusters. Movement radii shrink accordingly — with this POI
  // density a 1.5 km neighbourhood already holds hundreds of candidates,
  // which keeps generation cost bounded and makes geo pruning meaningful
  // (the true next POI is almost always spatially near the previous one).
  SyntheticConfig cfg;
  cfg.name = "metro-scale";
  cfg.seed = 1005;
  cfg.num_users = Scaled(240, std::sqrt(std::max(0.0, scale)),
                         /*floor=*/60);
  cfg.num_pois = Scaled(100000, scale, /*floor=*/20000);
  cfg.num_clusters = Scaled(400, scale, /*floor=*/120);
  cfg.city_radius_km = 40.0;
  cfg.cluster_radius_km = 0.5;
  cfg.anchor_radius_km = 1.5;
  cfg.nearby_radius_km = 1.5;
  cfg.distance_decay_km = 0.3;
  cfg.min_checkins = 30;
  cfg.max_checkins = 80;
  cfg.scale = scale;
  return cfg;
}

}  // namespace stisan::data
