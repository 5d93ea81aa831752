#include "geo/spatial_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace stisan::geo {
namespace {
constexpr double kDegToRad = M_PI / 180.0;
// Cell-sizing scale (historical): one degree of latitude in km. Kept for
// grid-resolution choices only; distance *bounds* use the exact spherical
// arc (kEarthRadiusKm * kDegToRad per degree), which is slightly smaller —
// a bound computed with 111.32 would overestimate and could break the ring
// search before a true nearest neighbour is found.
constexpr double kKmPerDegLat = 111.32;
constexpr double kKmPerDegArc = kEarthRadiusKm * kDegToRad;
}  // namespace

SpatialGridIndex::SpatialGridIndex(std::vector<GeoPoint> points,
                                   double cell_km)
    : points_(std::move(points)) {
  STISAN_CHECK_GT(cell_km, 0.0);
  for (const auto& p : points_) bounds_.Extend(p);
  if (points_.empty()) {
    rows_ = cols_ = 1;
    cell_deg_lat_ = cell_deg_lon_ = 1.0;
    return;
  }
  const double mid_lat =
      0.5 * (bounds_.min_lat + bounds_.max_lat) * kDegToRad;
  cell_deg_lat_ = cell_km / kKmPerDegLat;
  cell_deg_lon_ =
      cell_km / (kKmPerDegLat * std::max(0.05, std::cos(mid_lat)));
  rows_ = std::max<int64_t>(
      1, static_cast<int64_t>((bounds_.max_lat - bounds_.min_lat) /
                              cell_deg_lat_) +
             1);
  cols_ = std::max<int64_t>(
      1, static_cast<int64_t>((bounds_.max_lon - bounds_.min_lon) /
                              cell_deg_lon_) +
             1);
  STISAN_CHECK_LE(rows_, std::numeric_limits<int64_t>::max() / cols_);
  // cos(|lat|) is smallest at whichever latitude extreme is farther from
  // the equator; cells are never wider (in km) than at that latitude.
  min_cos_lat_ =
      std::max(0.0, std::min(std::cos(bounds_.min_lat * kDegToRad),
                             std::cos(bounds_.max_lat * kDegToRad)));
  lon_span_deg_ = bounds_.max_lon - bounds_.min_lon;

  // Group point ids by cell without materialising the grid: count per
  // occupied cell, carve [offset, offset+count) slices out of one flat
  // array, then fill in point order (so ids within a cell keep insertion
  // order, exactly as the former dense vector<vector> layout).
  std::vector<int64_t> cell_of(points_.size());
  for (size_t i = 0; i < points_.size(); ++i) {
    cell_of[i] = CellIndex(CellRow(points_[i].lat), CellCol(points_[i].lon));
    auto [it, inserted] = cells_.try_emplace(cell_of[i], 0, 0);
    ++it->second.second;
  }
  int64_t offset = 0;
  for (auto& [cell, span] : cells_) {
    span.first = offset;
    offset += span.second;
    span.second = span.first;  // reused as the fill cursor below
  }
  cell_point_ids_.resize(points_.size());
  for (size_t i = 0; i < points_.size(); ++i) {
    auto& span = cells_[cell_of[i]];
    cell_point_ids_[static_cast<size_t>(span.second++)] =
        static_cast<int64_t>(i);
  }
  // span.second now holds one-past-the-end, i.e. (offset, end) pairs.
}

int64_t SpatialGridIndex::CellRow(double lat) const {
  const int64_t r =
      static_cast<int64_t>((lat - bounds_.min_lat) / cell_deg_lat_);
  return std::clamp<int64_t>(r, 0, rows_ - 1);
}

int64_t SpatialGridIndex::CellCol(double lon) const {
  const int64_t c =
      static_cast<int64_t>((lon - bounds_.min_lon) / cell_deg_lon_);
  return std::clamp<int64_t>(c, 0, cols_ - 1);
}

SpatialGridIndex::CellSpan SpatialGridIndex::Cell(int64_t row,
                                                  int64_t col) const {
  const auto it = cells_.find(CellIndex(row, col));
  if (it == cells_.end()) return {};
  const int64_t* base = cell_point_ids_.data();
  return {base + it->second.first, base + it->second.second};
}

double SpatialGridIndex::RingLowerBoundKm(int64_t ring) const {
  if (ring <= 1) return 0.0;
  // A cell in Chebyshev ring r has |drow| == r or |dcol| == r, so the point
  // is separated from the query by at least (r-1) cell heights in latitude
  // OR (r-1) cell widths in longitude — the bound is the smaller of the two
  // (ISSUE: the former latitude-only bound overestimated wherever cells are
  // longitudinally narrower than cell_km, i.e. at latitudes beyond the
  // mid-latitude baked into cell_deg_lon_).
  const double cells = static_cast<double>(ring - 1);
  // Latitude: Haversine(a, b) >= R * |dlat| exactly.
  const double lat_bound_km = cells * cell_deg_lat_ * kKmPerDegArc;
  // Longitude: Haversine >= 2R asin(min cos(lat) * sin(|dlon| / 2)).
  // sin(x/2) is not monotone past x = 180deg, so take the minimum over the
  // feasible separation range [(r-1) * cell width, grid lon span].
  const double lon_sep_deg = std::min(cells * cell_deg_lon_, 360.0);
  double sin_half = std::sin(0.5 * lon_sep_deg * kDegToRad);
  sin_half = std::min(sin_half, std::sin(0.5 * lon_span_deg_ * kDegToRad));
  const double x = std::clamp(min_cos_lat_ * sin_half, 0.0, 1.0);
  const double lon_bound_km = 2.0 * kEarthRadiusKm * std::asin(x);
  return std::min(lat_bound_km, std::max(0.0, lon_bound_km));
}

std::vector<int64_t> SpatialGridIndex::KNearest(
    const GeoPoint& query, int64_t k,
    const std::function<bool(int64_t)>& accept) const {
  QueryScratch scratch;
  std::vector<int64_t> out;
  KNearestInto(query, k, accept, &scratch, &out);
  return out;
}

void SpatialGridIndex::KNearestInto(
    const GeoPoint& query, int64_t k,
    const std::function<bool(int64_t)>& accept, QueryScratch* scratch,
    std::vector<int64_t>* out) const {
  out->clear();
  if (k <= 0 || points_.empty()) return;
  // Expanding ring search: examine cells in increasing Chebyshev ring order
  // around the query cell; stop when the found set is full and the next
  // ring cannot contain anything closer.
  const int64_t qr = CellRow(query.lat);
  const int64_t qc = CellCol(query.lon);

  auto& heap = scratch->heap;  // max-heap of the best k (distance, id)
  heap.clear();

  const int64_t max_ring = std::max(rows_, cols_);
  for (int64_t ring = 0; ring <= max_ring; ++ring) {
    if (static_cast<int64_t>(heap.size()) == k &&
        heap.front().first < RingLowerBoundKm(ring)) {
      break;
    }
    bool ring_in_bounds = false;
    for (int64_t dr = -ring; dr <= ring; ++dr) {
      const int64_t r = qr + dr;
      if (r < 0 || r >= rows_) continue;
      // Interior rows visit only the two rim columns; the top and bottom
      // rows sweep the full [-ring, ring] span.
      const int64_t dc_step =
          (std::llabs(dr) == ring || ring == 0) ? 1 : 2 * ring;
      for (int64_t dc = -ring; dc <= ring; dc += dc_step) {
        const int64_t c = qc + dc;
        if (c < 0 || c >= cols_) continue;
        ring_in_bounds = true;
        const CellSpan span = Cell(r, c);
        for (const int64_t* it = span.begin; it != span.end; ++it) {
          const int64_t id = *it;
          if (accept && !accept(id)) continue;
          const double dist =
              HaversineKm(query, points_[static_cast<size_t>(id)]);
          if (static_cast<int64_t>(heap.size()) < k) {
            heap.emplace_back(dist, id);
            std::push_heap(heap.begin(), heap.end());
          } else if (dist < heap.front().first) {
            std::pop_heap(heap.begin(), heap.end());
            heap.back() = {dist, id};
            std::push_heap(heap.begin(), heap.end());
          }
        }
      }
    }
    if (!ring_in_bounds && ring > 0 && qr - ring < 0 && qr + ring >= rows_ &&
        qc - ring < 0 && qc + ring >= cols_) {
      break;  // ring fully outside the grid
    }
  }

  out->resize(heap.size());
  for (size_t i = heap.size(); i-- > 0;) {
    (*out)[i] = heap.front().second;
    std::pop_heap(heap.begin(), heap.begin() + static_cast<int64_t>(i) + 1);
  }
  heap.clear();
}

std::vector<int64_t> SpatialGridIndex::WithinRadius(
    const GeoPoint& query, double radius_km) const {
  std::vector<int64_t> out;
  WithinRadiusInto(query, radius_km, &out);
  return out;
}

void SpatialGridIndex::WithinRadiusInto(const GeoPoint& query,
                                        double radius_km,
                                        std::vector<int64_t>* out,
                                        std::vector<double>* dist_km) const {
  out->clear();
  if (dist_km != nullptr) dist_km->clear();
  if (points_.empty()) return;
  // Cells are cell_km tall in latitude by construction; their longitudinal
  // width in km narrows toward the poles — size the scan with the minimum
  // width over the grid's latitude range plus a safety cell, clamped to the
  // grid (a polar extent degenerates to a full column sweep, never a
  // missed point).
  const double cell_km_lat = cell_deg_lat_ * kKmPerDegArc;
  const double cell_km_lon =
      cell_deg_lon_ * kKmPerDegArc * std::max(min_cos_lat_, 1e-9);
  const auto scan_cells = [](double radius, double cell_km, int64_t limit) {
    const double cells = radius / cell_km;
    if (!(cells < static_cast<double>(limit))) return limit;
    return std::min(limit, static_cast<int64_t>(cells) + 2);
  };
  const int64_t ring_lat = scan_cells(radius_km, cell_km_lat, rows_);
  const int64_t ring_lon = scan_cells(radius_km, cell_km_lon, cols_);
  const int64_t qr = CellRow(query.lat);
  const int64_t qc = CellCol(query.lon);
  for (int64_t r = std::max<int64_t>(0, qr - ring_lat);
       r <= std::min(rows_ - 1, qr + ring_lat); ++r) {
    for (int64_t c = std::max<int64_t>(0, qc - ring_lon);
         c <= std::min(cols_ - 1, qc + ring_lon); ++c) {
      const CellSpan span = Cell(r, c);
      for (const int64_t* it = span.begin; it != span.end; ++it) {
        const double d = HaversineKm(query, points_[static_cast<size_t>(*it)]);
        if (d <= radius_km) {
          out->push_back(*it);
          if (dist_km != nullptr) dist_km->push_back(d);
        }
      }
    }
  }
}

}  // namespace stisan::geo
