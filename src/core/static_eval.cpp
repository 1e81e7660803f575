#include "core/static_eval.hpp"

#include <cmath>

#include "supernet/backbone.hpp"

namespace hadas::core {

void validate_finite(const StaticEval& eval) {
  if (!std::isfinite(eval.accuracy) || !std::isfinite(eval.latency_s) ||
      !std::isfinite(eval.energy_j))
    throw hw::MeasurementError(
        "StaticEvaluator: non-finite static evaluation (accuracy=" +
        std::to_string(eval.accuracy) + ", latency_s=" +
        std::to_string(eval.latency_s) + ", energy_j=" +
        std::to_string(eval.energy_j) + ") rejected before ranking");
}

StaticEvaluator::StaticEvaluator(const supernet::SearchSpace& space,
                                 hw::Target target,
                                 hw::RobustConfig robust)
    : space_(space),
      cost_model_(space),
      cost_cache_(cost_model_),
      surrogate_(std::make_unique<supernet::AccuracySurrogate>(cost_cache_)),
      hw_(hw::make_device(target)),
      robust_(hw_, robust) {}

StaticEval StaticEvaluator::evaluate(const supernet::BackboneConfig& config) const {
  StaticEval s;
  s.accuracy = surrogate_->accuracy(config);
  const supernet::NetworkCost& cost = cost_cache_.analyze(config);
  const hw::DvfsSetting setting = hw::default_setting(hw_.device());
  hw::HwMeasurement m;
  if (robust_.active()) {
    // Keyed by the backbone identity: the fault sequence a backbone sees is
    // the same whichever thread measures it, whenever.
    const std::uint64_t key =
        supernet::genome_hash(supernet::encode(space_, config));
    m = robust_.measure_network(cost, setting, key);
  } else {
    m = hw_.measure_network(cost, setting);
  }
  s.latency_s = m.latency_s;
  s.energy_j = m.energy_j;
  validate_finite(s);
  return s;
}

}  // namespace hadas::core
