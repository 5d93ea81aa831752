// Sparse-grid spatial index over a set of points with k-nearest-neighbour
// and radius queries. Used for the paper's evaluation protocol (rank the
// target against its 100 nearest unvisited POIs), the importance-based
// negative sampler (L negatives from the target's nearest 2000 neighbours),
// and the two-stage full-catalog ranker (DESIGN.md §17).
//
// Cells are stored in a hash map keyed by cell index, so memory is
// O(points), not O(rows x cols): a continent-span catalog with km-scale
// cells addresses hundreds of millions of grid cells but only materialises
// the occupied ones. Point ids within a cell keep insertion order, so query
// results are deterministic and identical to the former dense-grid layout.

#pragma once

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "geo/geo.h"

namespace stisan::geo {

/// Filter for KNearestInto that accepts every point.
struct AcceptAll {
  constexpr bool operator()(int64_t /*id*/) const { return true; }
};

/// Filter for KNearestInto that rejects the ids in `sorted` (ascending,
/// duplicates allowed): visited-POI exclusion without a per-query hash
/// set. The search is branch-free, since the filter runs for every point
/// that survives the distance bound and its outcome is unpredictable.
struct RejectSortedIds {
  const std::vector<int64_t>& sorted;

  bool operator()(int64_t id) const {
    if (sorted.empty()) return true;
    // Narrow [base, base + n) to the last element <= id (or the first one).
    const int64_t* base = sorted.data();
    for (size_t n = sorted.size(); n > 1;) {
      const size_t half = n / 2;
      base = base[half] <= id ? base + half : base;
      n -= half;
    }
    return *base != id;
  }
};

namespace internal {

/// A conservative, trig-free lower bound on HaversineKm(query, p), used by
/// the k-NN kernel to skip points before the filter and the full Haversine
/// (DESIGN.md §17). Key(p) bounds the haversine term h from below through
/// sin y >= y (1 - y^2 / 6) on [0, pi/2] and a cos(lat) factor that is no
/// larger than the cosine of the query's or any indexed point's latitude;
/// Cutoff(d) adds a relative and an absolute slack that cover the rounding
/// of both computations. So Key(p) > Cutoff(d) implies that the *computed*
/// HaversineKm(query, p) exceeds d.
class HaversineLowerBound {
 public:
  /// `min_cos_lat` must not exceed cos(lat) of any point Key is asked
  /// about; the query's own latitude is folded in here.
  HaversineLowerBound(const GeoPoint& query, double min_cos_lat)
      : query_(query),
        cos2_(Square(std::max(
            0.0, std::min(min_cos_lat, std::cos(query.lat * kDegToRad))))) {}

  double Key(const GeoPoint& p) const {
    double dlat = std::fabs(p.lat - query_.lat);
    double dlon = std::fabs(p.lon - query_.lon);
    // Out-of-range latitudes drop their term (NaN stays NaN, and a NaN key
    // never exceeds a cutoff); |dlon| folds at the antimeridian, so both
    // half-angles land in [0, pi/2].
    if (!(dlat <= 180.0)) dlat = 0.0;
    if (dlon > 180.0) dlon = std::max(0.0, 360.0 - dlon);
    const double a = 0.5 * kDegToRad * dlat;
    const double b = 0.5 * kDegToRad * dlon;
    return Square(a * (1.0 - a * a * kSixth)) +
           cos2_ * Square(b * (1.0 - b * b * kSixth));
  }

  /// The largest Key a point at computed distance <= dist_km can have.
  static double Cutoff(double dist_km) {
    return Square((dist_km + kAbsSlackKm) * kInvDiameter);
  }

 private:
  static constexpr double kDegToRad = M_PI / 180.0;
  static constexpr double kSixth = 1.0 / 6.0;
  static constexpr double kRelSlack = 1e-9;
  static constexpr double kAbsSlackKm = 1e-6;
  static constexpr double kInvDiameter =
      1.0 / (2.0 * kEarthRadiusKm * (1.0 - kRelSlack));
  static double Square(double x) { return x * x; }

  GeoPoint query_;
  double cos2_;
};

}  // namespace internal

/// Immutable grid index over points identified by their insertion index.
class SpatialGridIndex {
 public:
  /// Builds an index over `points`. `cell_km` controls grid resolution;
  /// smaller cells speed up small-k queries on dense data.
  explicit SpatialGridIndex(std::vector<GeoPoint> points,
                            double cell_km = 2.0);

  /// Reusable query scratch. The *Into query variants are allocation-free
  /// once the scratch (and the output vector) have grown to steady-state
  /// capacity, which is what makes the candidate-generation hot path
  /// malloc-free (geo::CandidateGenerator keeps one per worker range).
  struct QueryScratch {
    std::vector<std::pair<double, int64_t>> heap;  // max-heap of best k
  };

  /// Returns the ids of the `k` nearest points to `query` for which
  /// `accept` returns true (nullptr accepts everything): exactly the first
  /// k accepted points in ascending (HaversineKm, id) order, so equidistant
  /// points come back by ascending id, whatever the cell size. Returns
  /// fewer than k ids when not enough acceptable points exist.
  std::vector<int64_t> KNearest(
      const GeoPoint& query, int64_t k,
      const std::function<bool(int64_t)>& accept = nullptr) const;

  /// KNearest into caller-owned buffers: `out` is cleared and filled with
  /// the result; `scratch` carries the internal heap across calls. This is
  /// the one k-NN kernel; `accept` is any callable bool(int64_t id), bound
  /// statically. Calls to `accept` are skipped for points that are provably
  /// farther than the current k-th best, so it must be a pure predicate.
  template <typename Accept>
    requires std::predicate<const Accept&, int64_t>
  void KNearestInto(const GeoPoint& query, int64_t k, const Accept& accept,
                    QueryScratch* scratch, std::vector<int64_t>* out) const;

  /// Type-erased filter: forwards to the kernel (nullptr accepts all).
  void KNearestInto(const GeoPoint& query, int64_t k,
                    const std::function<bool(int64_t)>& accept,
                    QueryScratch* scratch, std::vector<int64_t>* out) const;

  /// Returns all point ids within `radius_km` of `query` (unsorted).
  std::vector<int64_t> WithinRadius(const GeoPoint& query,
                                    double radius_km) const;

  /// WithinRadius into a caller-owned buffer (`out` is cleared first).
  /// When `dist_km` is non-null it is cleared and filled in parallel with
  /// `out`: entry i is HaversineKm(query, point(out[i])), bit for bit.
  void WithinRadiusInto(const GeoPoint& query, double radius_km,
                        std::vector<int64_t>* out,
                        std::vector<double>* dist_km = nullptr) const;

  int64_t size() const { return static_cast<int64_t>(points_.size()); }
  const GeoPoint& point(int64_t id) const {
    return points_[static_cast<size_t>(id)];
  }
  /// Number of materialised (occupied) cells.
  int64_t occupied_cells() const {
    return static_cast<int64_t>(cells_.size());
  }
  /// Total addressable grid cells (rows x cols) — the dense-layout cost.
  int64_t addressable_cells() const { return rows_ * cols_; }

 private:
  /// Contiguous slice of cell_point_ids_ belonging to one cell.
  struct CellSpan {
    const int64_t* begin = nullptr;
    const int64_t* end = nullptr;
  };

  int64_t CellRow(double lat) const;
  int64_t CellCol(double lon) const;
  int64_t CellIndex(int64_t row, int64_t col) const {
    return row * cols_ + col;
  }
  CellSpan Cell(int64_t row, int64_t col) const;
  /// Exact lower bound (km) on the distance from the query to any point in
  /// Chebyshev ring `ring` around the query's cell.
  double RingLowerBoundKm(int64_t ring) const;

  std::vector<GeoPoint> points_;
  BoundingBox bounds_;
  double cell_deg_lat_ = 0.0;
  double cell_deg_lon_ = 0.0;
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  /// Smallest cosine of latitude over the grid's latitude range (the
  /// narrowest a cell gets, longitudinally). Not clamped above 0: the ring
  /// early exit and the per-point bound must never overestimate a
  /// distance.
  double min_cos_lat_ = 1.0;
  double lon_span_deg_ = 0.0;
  /// Point ids grouped by cell (insertion order within a cell), plus the
  /// sparse map from cell index to the [offset, offset+count) slice.
  std::vector<int64_t> cell_point_ids_;
  std::unordered_map<int64_t, std::pair<int64_t, int64_t>> cells_;
};

template <typename Accept>
  requires std::predicate<const Accept&, int64_t>
void SpatialGridIndex::KNearestInto(const GeoPoint& query, int64_t k,
                                    const Accept& accept,
                                    QueryScratch* scratch,
                                    std::vector<int64_t>* out) const {
  out->clear();
  if (k <= 0 || points_.empty()) return;
  // Expanding ring search: examine cells in increasing Chebyshev ring order
  // around the query cell; stop when the found set is full and the next
  // ring cannot contain anything closer.
  const int64_t qr = CellRow(query.lat);
  const int64_t qc = CellCol(query.lon);
  const internal::HaversineLowerBound bound(query, min_cos_lat_);
  const HaversineFrom distance(query);
  const size_t full = static_cast<size_t>(k);

  // The best k (distance, id) so far: the first k accepted points, then a
  // max-heap. Replacement compares the pair, which makes the result
  // independent of the order cells are visited in.
  auto& heap = scratch->heap;
  heap.clear();
  // Key cutoff of the k-th best distance once the heap is full. A point
  // whose Key exceeds it is farther than every entry, so it would never be
  // inserted: skipping it leaves the kept set unchanged.
  double cutoff = 0.0;

  const auto scan_cell = [&](int64_t r, int64_t c) {
    const CellSpan span = Cell(r, c);
    for (const int64_t* it = span.begin; it != span.end; ++it) {
      const int64_t id = *it;
      const GeoPoint& p = points_[static_cast<size_t>(id)];
      if ((heap.size() == full && bound.Key(p) > cutoff) || !accept(id)) {
        continue;
      }
      const std::pair<double, int64_t> entry(distance.Km(p), id);
      if (heap.size() < full) {
        heap.push_back(entry);
        if (heap.size() < full) continue;
        std::make_heap(heap.begin(), heap.end());
      } else if (entry < heap.front()) {
        std::pop_heap(heap.begin(), heap.end());
        heap.back() = entry;
        std::push_heap(heap.begin(), heap.end());
      } else {
        continue;
      }
      cutoff = internal::HaversineLowerBound::Cutoff(heap.front().first);
    }
  };

  // The last ring that still touches the grid; loops are clipped to the
  // grid, so a ring costs O(its in-grid cells).
  const int64_t last_ring =
      std::max({qr, rows_ - 1 - qr, qc, cols_ - 1 - qc});
  for (int64_t ring = 0; ring <= last_ring; ++ring) {
    if (heap.size() == full && heap.front().first < RingLowerBoundKm(ring)) {
      break;
    }
    const int64_t c_lo = std::max<int64_t>(0, qc - ring);
    const int64_t c_hi = std::min(cols_ - 1, qc + ring);
    for (int64_t r = std::max<int64_t>(0, qr - ring);
         r <= std::min(rows_ - 1, qr + ring); ++r) {
      if (std::llabs(r - qr) == ring) {
        // Top and bottom rows sweep the ring's full column span.
        for (int64_t c = c_lo; c <= c_hi; ++c) scan_cell(r, c);
      } else {
        // Interior rows visit only the two rim columns.
        if (qc - ring >= 0) scan_cell(r, qc - ring);
        if (qc + ring < cols_) scan_cell(r, qc + ring);
      }
    }
  }

  std::sort(heap.begin(), heap.end());
  out->resize(heap.size());
  for (size_t i = 0; i < heap.size(); ++i) (*out)[i] = heap[i].second;
  heap.clear();
}

}  // namespace stisan::geo
