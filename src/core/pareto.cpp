#include "core/pareto.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace hadas::core {

namespace {

/// One pass over both points: +1 if `a` dominates `b`, -1 if `b` dominates
/// `a`, 0 if they are equal or incomparable.
int dominance(const double* a, const double* b, std::size_t dims) {
  bool a_better = false;
  bool b_better = false;
  for (std::size_t k = 0; k < dims; ++k) {
    a_better |= a[k] > b[k];
    b_better |= a[k] < b[k];
  }
  return static_cast<int>(a_better) - static_cast<int>(b_better);
}

}  // namespace

bool dominates(const Objectives& a, const Objectives& b) {
  if (a.size() != b.size()) throw std::invalid_argument("dominates: dim mismatch");
  return dominance(a.data(), b.data(), a.size()) > 0;
}

std::vector<std::vector<std::size_t>> non_dominated_sort(
    const std::vector<Objectives>& points) {
  const std::size_t n = points.size();
  // dominates_row[i * n + j] != 0 iff point i dominates point j.
  std::vector<char> dominates_row(n * n, 0);
  std::vector<std::size_t> domination_count(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const int d = dominance(points[i].data(), points[j].data(), points[i].size());
      if (d > 0) {
        dominates_row[i * n + j] = 1;
        ++domination_count[j];
      } else if (d < 0) {
        dominates_row[j * n + i] = 1;
        ++domination_count[i];
      }
    }
  }

  // Peel fronts: each front is every unplaced point nobody unplaced
  // dominates, found by an ascending scan (so it is listed in ascending
  // index order); placing it lifts its row off the counts. A front that
  // comes out empty means a dominance cycle (NaN objectives) — the
  // remaining points stay unranked.
  std::vector<std::vector<std::size_t>> fronts;
  std::vector<char> placed(n, 0);
  for (std::size_t placed_count = 0; placed_count < n;) {
    std::vector<std::size_t> front;
    for (std::size_t j = 0; j < n; ++j)
      if (!placed[j] && domination_count[j] == 0) front.push_back(j);
    if (front.empty()) break;
    for (std::size_t i : front) {
      placed[i] = 1;
      const char* row = &dominates_row[i * n];
      for (std::size_t j = 0; j < n; ++j) domination_count[j] -= row[j];
    }
    placed_count += front.size();
    fronts.push_back(std::move(front));
  }
  return fronts;
}

std::vector<double> crowding_distance(const std::vector<Objectives>& points,
                                      const std::vector<std::size_t>& front) {
  const std::size_t m = front.size();
  std::vector<double> dist(m, 0.0);
  if (m == 0) return dist;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (m <= 2) {
    std::fill(dist.begin(), dist.end(), kInf);
    return dist;
  }
  const std::size_t dims = points.front().size();
  std::vector<std::size_t> order(m);
  for (std::size_t i = 0; i < m; ++i) order[i] = i;
  for (std::size_t k = 0; k < dims; ++k) {
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return points[front[a]][k] < points[front[b]][k];
    });
    const double lo = points[front[order.front()]][k];
    const double hi = points[front[order.back()]][k];
    dist[order.front()] = kInf;
    dist[order.back()] = kInf;
    if (hi <= lo) continue;
    for (std::size_t i = 1; i + 1 < m; ++i) {
      if (dist[order[i]] == kInf) continue;
      dist[order[i]] +=
          (points[front[order[i + 1]]][k] - points[front[order[i - 1]]][k]) /
          (hi - lo);
    }
  }
  return dist;
}

std::vector<std::size_t> pareto_front(const std::vector<Objectives>& points) {
  if (points.empty()) return {};
  return non_dominated_sort(points).front();
}

namespace {
/// Recursive dimension-sweep hypervolume (maximization, exclusive slices).
double hv_recursive(std::vector<Objectives> points, const Objectives& ref) {
  const std::size_t dims = ref.size();
  // Drop points that do not strictly dominate the reference in every axis.
  points.erase(std::remove_if(points.begin(), points.end(),
                              [&](const Objectives& p) {
                                for (std::size_t k = 0; k < dims; ++k)
                                  if (p[k] <= ref[k]) return true;
                                return false;
                              }),
               points.end());
  if (points.empty()) return 0.0;

  if (dims == 1) {
    double best = ref[0];
    for (const auto& p : points) best = std::max(best, p[0]);
    return best - ref[0];
  }

  // Sort by the last axis descending and sweep exclusive slabs.
  std::sort(points.begin(), points.end(),
            [dims](const Objectives& a, const Objectives& b) {
              return a[dims - 1] > b[dims - 1];
            });
  double volume = 0.0;
  std::vector<Objectives> seen;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double upper = points[i][dims - 1];
    const double lower = (i + 1 < points.size()) ? points[i + 1][dims - 1] : ref[dims - 1];
    Objectives proj(points[i].begin(), points[i].end() - 1);
    seen.push_back(std::move(proj));
    if (upper <= lower) continue;
    Objectives sub_ref(ref.begin(), ref.end() - 1);
    volume += (upper - lower) * hv_recursive(seen, sub_ref);
  }
  return volume;
}
}  // namespace

double hypervolume(const std::vector<Objectives>& points,
                   const Objectives& reference) {
  if (reference.empty()) throw std::invalid_argument("hypervolume: empty reference");
  for (const auto& p : points)
    if (p.size() != reference.size())
      throw std::invalid_argument("hypervolume: dim mismatch");
  if (reference.size() == 2) {
    // Exact 2-D sweep: sort by x descending, accumulate staircase area.
    std::vector<Objectives> pts;
    for (const auto& p : points)
      if (p[0] > reference[0] && p[1] > reference[1]) pts.push_back(p);
    if (pts.empty()) return 0.0;
    std::sort(pts.begin(), pts.end(), [](const Objectives& a, const Objectives& b) {
      return a[0] > b[0] || (a[0] == b[0] && a[1] > b[1]);
    });
    double area = 0.0;
    double best_y = reference[1];
    for (const auto& p : pts) {
      if (p[1] > best_y) {
        area += (p[0] - reference[0]) * (p[1] - best_y);
        best_y = p[1];
      }
    }
    return area;
  }
  return hv_recursive(points, reference);
}

double coverage(const std::vector<Objectives>& a,
                const std::vector<Objectives>& b) {
  if (b.empty()) return 0.0;
  std::size_t covered = 0;
  for (const auto& pb : b) {
    for (const auto& pa : a) {
      if (dominates(pa, pb)) {
        ++covered;
        break;
      }
    }
  }
  return static_cast<double>(covered) / static_cast<double>(b.size());
}

double ratio_of_dominance(const std::vector<Objectives>& a,
                          const std::vector<Objectives>& b) {
  if (a.empty()) return 0.0;
  std::size_t dominant = 0;
  for (const auto& pa : a) {
    for (const auto& pb : b) {
      if (dominates(pa, pb)) {
        ++dominant;
        break;
      }
    }
  }
  return static_cast<double>(dominant) / static_cast<double>(a.size());
}

bool ParetoArchive::insert(const Objectives& objectives, std::size_t payload) {
  for (const auto& existing : objs_) {
    if (dominates(existing, objectives) || existing == objectives) return false;
  }
  // Evict entries the newcomer dominates.
  std::size_t write = 0;
  for (std::size_t i = 0; i < objs_.size(); ++i) {
    if (!dominates(objectives, objs_[i])) {
      if (write != i) {
        objs_[write] = std::move(objs_[i]);
        entries_[write] = entries_[i];
      }
      ++write;
    }
  }
  objs_.resize(write);
  entries_.resize(write);
  objs_.push_back(objectives);
  entries_.push_back(payload);
  return true;
}

}  // namespace hadas::core
