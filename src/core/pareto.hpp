#pragma once

#include <cstddef>
#include <vector>

namespace hadas::core {

/// A point in objective space. ALL objectives are maximized throughout the
/// library; minimized quantities (latency, energy) are negated at the
/// problem boundary.
using Objectives = std::vector<double>;

/// True if `a` Pareto-dominates `b`: a >= b on every objective and a > b on
/// at least one. Requires equal dimensionality.
bool dominates(const Objectives& a, const Objectives& b);

/// Fast non-dominated sorting (Deb et al., NSGA-II). Returns fronts of
/// indices into `points`; front 0 is the non-dominated set. Every front is
/// in ascending index order.
std::vector<std::vector<std::size_t>> non_dominated_sort(
    const std::vector<Objectives>& points);

/// Crowding distance of each member of one front (indices into `points`).
/// Boundary points get +infinity.
std::vector<double> crowding_distance(const std::vector<Objectives>& points,
                                      const std::vector<std::size_t>& front);

/// Indices of the non-dominated subset of `points` (front 0).
std::vector<std::size_t> pareto_front(const std::vector<Objectives>& points);

/// Exact hypervolume of the region dominated by `points` and bounded below
/// by `reference` (maximization; points not strictly above the reference on
/// every axis contribute nothing). Supports 2-D exactly and N-D by
/// dimension-sweep recursion (fine at the small front sizes used here).
double hypervolume(const std::vector<Objectives>& points,
                   const Objectives& reference);

/// Coverage C(A, B): fraction of B's points dominated by at least one point
/// of A (Zitzler's C-metric).
double coverage(const std::vector<Objectives>& a,
                const std::vector<Objectives>& b);

/// Ratio of dominance (the paper's Fig. 6 metric): the fraction of A's
/// points that dominate at least one point of B — "the percentage of
/// solutions found by HADAS that dominate the optimized baselines".
double ratio_of_dominance(const std::vector<Objectives>& a,
                          const std::vector<Objectives>& b);

/// Incremental Pareto archive: keeps only mutually non-dominated entries
/// with a payload index attached.
class ParetoArchive {
 public:
  /// Try to insert; returns false if the candidate is dominated by (or equal
  /// to) an archived point. Dominated archive members are evicted.
  bool insert(const Objectives& objectives, std::size_t payload);

  std::size_t size() const { return entries_.size(); }

  const std::vector<Objectives>& objectives() const { return objs_; }
  const std::vector<std::size_t>& payloads() const { return entries_; }

 private:
  std::vector<Objectives> objs_;
  std::vector<std::size_t> entries_;
};

}  // namespace hadas::core
