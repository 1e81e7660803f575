#pragma once

#include <memory>

#include "core/pareto.hpp"
#include "hw/device.hpp"
#include "hw/evaluator.hpp"
#include "hw/robust_eval.hpp"
#include "supernet/accuracy.hpp"
#include "supernet/cost_model.hpp"

namespace hadas::core {

/// The paper's S(b) = Fit(Acc_b, L_b, E_b) vector (eq. 3): backbone accuracy
/// plus hardware latency and energy measured as a standalone static model at
/// the device's default (performance-governor) DVFS setting.
struct StaticEval {
  double accuracy = 0.0;
  double latency_s = 0.0;
  double energy_j = 0.0;

  /// Maximized objective vector: [accuracy, -latency, -energy].
  Objectives objectives() const { return {accuracy, -latency_s, -energy_j}; }
};

/// Throws hw::MeasurementError unless every field is finite. A NaN objective
/// would otherwise flow silently through NSGA-II dominance sorting (NaN
/// comparisons are all false, corrupting front assignment), so every
/// measurement consumer validates before ranking.
void validate_finite(const StaticEval& eval);

/// Evaluates S(b) for backbones on one device — the OOE's fitness function.
/// Owns the cost model, accuracy surrogate and hardware evaluator so that
/// engines and benches share one consistent measurement pipeline.
class StaticEvaluator {
 public:
  StaticEvaluator(const supernet::SearchSpace& space, hw::Target target,
                  hw::RobustConfig robust = {});

  const supernet::SearchSpace& space() const { return space_; }
  const supernet::CostModel& cost_model() const { return cost_model_; }
  /// Memoized view of the cost model; engines route repeated analyses of
  /// the same backbone (static eval, exit bank, cost tables) through this.
  const supernet::CachedCostModel& cost_cache() const { return cost_cache_; }
  const supernet::AccuracySurrogate& surrogate() const { return *surrogate_; }
  const hw::HardwareEvaluator& hardware() const { return hw_; }
  /// The fault-tolerant measurement wrapper around hardware(). Inactive
  /// (bit-identical pass-through) unless a RobustConfig with faults was
  /// supplied; see DESIGN.md "Fault tolerance".
  const hw::RobustEvaluator& robust() const { return robust_; }

  /// Thread-safe: concurrent evaluations only share the cost cache, which
  /// is internally synchronized, and the robust layer's health tracker.
  /// Measurements route through robust() when it is active and are keyed by
  /// the backbone's genome hash, so injected faults are deterministic per
  /// backbone rather than per call order. Throws hw::MeasurementError on an
  /// unrecoverable (or non-finite) measurement, hw::DeviceUnavailableError
  /// when the device's circuit breaker is open.
  StaticEval evaluate(const supernet::BackboneConfig& config) const;

 private:
  supernet::SearchSpace space_;
  supernet::CostModel cost_model_;
  supernet::CachedCostModel cost_cache_;
  std::unique_ptr<supernet::AccuracySurrogate> surrogate_;
  hw::HardwareEvaluator hw_;
  hw::RobustEvaluator robust_;
};

}  // namespace hadas::core
