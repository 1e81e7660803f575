#include "core/ioe.hpp"

#include <stdexcept>

#include "exec/eval_cache.hpp"
#include "util/hash.hpp"

namespace hadas::core {

namespace {
/// Adapts the (X, F) subspaces to the generic integer-genome Problem. D
/// evaluations are memoized by genome hash: NSGA-II evaluates each distinct
/// candidate during the search and the result materialization re-evaluates
/// the whole history, so the memo halves the evaluator work per IOE run.
class InnerProblem final : public Problem {
 public:
  InnerProblem(const dynn::ExitBank& bank, const dynn::DynamicEvaluator& eval,
               const hw::DeviceSpec& device, std::size_t total_layers,
               bool include_gain_objective)
      : eval_(eval),
        device_(device),
        total_layers_(total_layers),
        include_gain_objective_(include_gain_objective) {
    num_eligible_ = dynn::ExitPlacement(total_layers).num_eligible();
    if (num_eligible_ == 0)
      throw std::invalid_argument("InnerProblem: no eligible exit positions");
    (void)bank;
  }

  /// Memoized D(x, f | b) of a genome (exact same value as a direct
  /// DynamicEvaluator call — the evaluation is deterministic).
  dynn::DynamicMetrics metrics(const IntGenome& genome) {
    return memo_.get_or_compute(hadas::util::fnv1a(genome), [&] {
      const auto [placement, setting] = decode(genome);
      return eval_.evaluate(placement, setting);
    });
  }

  std::vector<std::size_t> gene_cardinalities() const override {
    std::vector<std::size_t> card(num_eligible_, 2);
    card.push_back(device_.core_freqs_hz.size());
    card.push_back(device_.emc_freqs_hz.size());
    return card;
  }

  void repair(IntGenome& genome, hadas::util::Rng& rng) const override {
    // The X subspace excludes the empty placement (nX >= 1).
    bool any = false;
    for (std::size_t i = 0; i < num_eligible_; ++i) any = any || genome[i] != 0;
    if (!any) genome[rng.uniform_index(num_eligible_)] = 1;
  }

  Objectives evaluate(const IntGenome& genome) override {
    const dynn::DynamicMetrics m = metrics(genome);
    // Maximized objectives: the regularized eq.(5) score (carries the
    // dissimilarity pressure), optionally the ideal-mapping energy gain,
    // and the dynamic (oracle) accuracy. The returned Pareto set is then
    // projected onto the paper's reported 2-D plane (gain, accuracy).
    if (include_gain_objective_)
      return {m.score_eq5, m.energy_gain, m.oracle_accuracy};
    return {m.score_eq5, m.oracle_accuracy};
  }

  std::pair<dynn::ExitPlacement, hw::DvfsSetting> decode(
      const IntGenome& genome) const {
    if (genome.size() != num_eligible_ + 2)
      throw std::invalid_argument("InnerProblem: genome length mismatch");
    dynn::ExitPlacement placement(total_layers_);
    for (std::size_t i = 0; i < num_eligible_; ++i)
      if (genome[i] != 0)
        placement.set_exit(dynn::ExitPlacement::kFirstEligible + i, true);
    hw::DvfsSetting setting;
    setting.core_idx = static_cast<std::size_t>(genome[num_eligible_]);
    setting.emc_idx = static_cast<std::size_t>(genome[num_eligible_ + 1]);
    return {placement, setting};
  }

 private:
  const dynn::DynamicEvaluator& eval_;
  const hw::DeviceSpec& device_;
  std::size_t total_layers_;
  bool include_gain_objective_;
  std::size_t num_eligible_ = 0;
  /// At most one entry per distinct candidate of one IOE run.
  exec::EvalCache<dynn::DynamicMetrics> memo_;
};
}  // namespace

InnerEngine::InnerEngine(const dynn::ExitBank& bank,
                         const dynn::MultiExitCostTable& cost, IoeConfig config)
    : bank_(bank),
      cost_(cost),
      config_(config),
      evaluator_(bank, cost, config.score) {}

InnerSolution InnerEngine::evaluate(const dynn::ExitPlacement& placement,
                                    hw::DvfsSetting setting) const {
  InnerSolution sol{placement, setting, evaluator_.evaluate(placement, setting), {}};
  if (config_.include_gain_objective)
    sol.objectives = {sol.metrics.score_eq5, sol.metrics.energy_gain,
                      sol.metrics.oracle_accuracy};
  else
    sol.objectives = {sol.metrics.score_eq5, sol.metrics.oracle_accuracy};
  return sol;
}

IoeResult InnerEngine::run() {
  InnerProblem problem(bank_, evaluator_, cost_.evaluator().device(),
                       bank_.total_layers(), config_.include_gain_objective);
  Nsga2 nsga(config_.nsga);
  const Nsga2Result raw = nsga.run(problem);

  IoeResult result;
  result.evaluations = raw.evaluations;
  result.static_baseline = evaluator_.static_baseline();
  result.history.reserve(raw.history.size());

  auto to_solution = [&](const Individual& ind) {
    const auto [placement, setting] = problem.decode(ind.genome);
    InnerSolution sol{placement, setting, problem.metrics(ind.genome), {}};
    sol.objectives = ind.objectives;
    return sol;
  };
  for (const auto& ind : raw.history) result.history.push_back(to_solution(ind));
  for (const auto& ind : raw.front) result.pareto.push_back(to_solution(ind));
  return result;
}

}  // namespace hadas::core
