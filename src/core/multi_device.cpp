#include "core/multi_device.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "core/nsga2.hpp"
#include "dynn/dynamic_eval.hpp"
#include "util/failpoint.hpp"

namespace hadas::core {

namespace {

/// Fleet mode: the serviceable group set drifted mid-attempt; run() restarts
/// the search on the new membership. Internal control flow, never escapes.
struct FleetMembershipChanged {};

/// Joint (X, F_1 x .. x F_D) problem for one backbone across devices.
class JointInnerProblem final : public Problem {
 public:
  JointInnerProblem(const std::vector<const dynn::DynamicEvaluator*>& evals,
                    const std::vector<const hw::DeviceSpec*>& devices,
                    std::size_t total_layers)
      : evals_(evals), devices_(devices), total_layers_(total_layers) {
    num_eligible_ = dynn::ExitPlacement(total_layers).num_eligible();
    if (num_eligible_ == 0)
      throw std::invalid_argument("JointInnerProblem: no eligible positions");
  }

  std::vector<std::size_t> gene_cardinalities() const override {
    std::vector<std::size_t> card(num_eligible_, 2);
    for (const auto* device : devices_) {
      card.push_back(device->core_freqs_hz.size());
      card.push_back(device->emc_freqs_hz.size());
    }
    return card;
  }

  void repair(IntGenome& genome, hadas::util::Rng& rng) const override {
    bool any = false;
    for (std::size_t i = 0; i < num_eligible_; ++i) any = any || genome[i] != 0;
    if (!any) genome[rng.uniform_index(num_eligible_)] = 1;
  }

  Objectives evaluate(const IntGenome& genome) override {
    const auto [placement, settings] = decode(genome);
    double worst_gain = 1.0, score_sum = 0.0, accuracy = 0.0;
    for (std::size_t d = 0; d < evals_.size(); ++d) {
      const dynn::DynamicMetrics m = evals_[d]->evaluate(placement, settings[d]);
      worst_gain = std::min(worst_gain, m.energy_gain);
      score_sum += m.score_eq5;
      accuracy = m.oracle_accuracy;  // device-independent
    }
    return {score_sum / static_cast<double>(evals_.size()), worst_gain, accuracy};
  }

  std::pair<dynn::ExitPlacement, std::vector<hw::DvfsSetting>> decode(
      const IntGenome& genome) const {
    dynn::ExitPlacement placement(total_layers_);
    for (std::size_t i = 0; i < num_eligible_; ++i)
      if (genome[i] != 0)
        placement.set_exit(dynn::ExitPlacement::kFirstEligible + i, true);
    std::vector<hw::DvfsSetting> settings(devices_.size());
    for (std::size_t d = 0; d < devices_.size(); ++d) {
      settings[d].core_idx =
          static_cast<std::size_t>(genome[num_eligible_ + 2 * d]);
      settings[d].emc_idx =
          static_cast<std::size_t>(genome[num_eligible_ + 2 * d + 1]);
    }
    return {placement, settings};
  }

 private:
  std::vector<const dynn::DynamicEvaluator*> evals_;
  std::vector<const hw::DeviceSpec*> devices_;
  std::size_t total_layers_;
  std::size_t num_eligible_ = 0;
};

}  // namespace

MultiDeviceEngine::MultiDeviceEngine(const supernet::SearchSpace& space,
                                     MultiDeviceConfig config)
    : space_(space),
      config_(config),
      task_(config.data),
      dispatcher_(config.exec) {
  if (config_.fleet) {
    // Fleet mode: one context per device *group* (hardware target) with at
    // least one member — static measurements and inner searches are
    // partitioned by group, and any serviceable member can stand in for the
    // group's model. The registry owns health; a per-group robust layer
    // would double-count failures.
    if (!config_.targets.empty())
      throw std::invalid_argument(
          "MultiDeviceEngine: fleet mode derives targets from the registry");
    if (!config_.robust.empty())
      throw std::invalid_argument(
          "MultiDeviceEngine: fleet mode manages device health through the "
          "registry; per-target robust configs are not supported");
    for (std::size_t g = 0; g < config_.fleet->group_count(); ++g) {
      if (config_.fleet->group_size(g) == 0) continue;
      targets_.push_back(config_.fleet->group_target(g));
      fleet_groups_.push_back(g);
    }
    if (targets_.empty())
      throw std::invalid_argument(
          "MultiDeviceEngine: the fleet registry holds no devices");
  } else {
    targets_ = config_.targets.empty() ? hw::all_targets() : config_.targets;
  }
  if (targets_.empty())
    throw std::invalid_argument("MultiDeviceEngine: no targets");
  if (!config_.robust.empty() && config_.robust.size() != targets_.size())
    throw std::invalid_argument(
        "MultiDeviceEngine: robust configs must be empty or one per target");
  devices_.reserve(targets_.size());
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    DeviceContext context;
    context.static_eval = std::make_unique<StaticEvaluator>(
        space_, targets_[i],
        config_.robust.empty() ? hw::RobustConfig{} : config_.robust[i]);
    devices_.push_back(std::move(context));
  }
}

bool MultiDeviceEngine::device_alive(std::size_t index) const {
  if (config_.fleet)
    return config_.fleet->group_serviceable(fleet_groups_[index]) > 0;
  return devices_[index].static_eval->robust().health().state() !=
         hw::BreakerState::kOpen;
}

std::vector<std::size_t> MultiDeviceEngine::alive_indices() const {
  std::vector<std::size_t> alive;
  for (std::size_t i = 0; i < devices_.size(); ++i)
    if (device_alive(i)) alive.push_back(i);
  return alive;
}

void MultiDeviceEngine::throw_all_dead() const {
  std::string message =
      "MultiDeviceEngine: every configured device is unavailable:";
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    const hw::HealthReport report =
        devices_[i].static_eval->robust().report();
    message += "\n  " + hw::target_name(targets_[i]) + ": breaker " +
               hw::breaker_state_name(report.state);
    if (report.attempts == 0) {
      message += " (never probed)";
    } else {
      message += " (" + std::to_string(report.attempts) + " attempts, " +
                 std::to_string(report.failed_measurements) + " failed";
      if (report.dropped_out) message += ", dropped out";
      message += ")";
    }
  }
  if (config_.fleet) {
    const auto counts = config_.fleet->tally();
    message += "\n  fleet: " +
               std::to_string(config_.fleet->serviceable_count()) + "/" +
               std::to_string(config_.fleet->size()) + " serviceable";
    for (const auto& [state, n] : counts)
      if (n > 0)
        message += ", " + std::to_string(n) + " " +
                   hw::fleet::lifecycle_name(state);
  }
  throw hw::DeviceUnavailableError(message);
}

void MultiDeviceEngine::fleet_tick() {
  config_.fleet->advance_round();
  ++fleet_rounds_total_;
  if (!config_.fleet_state_path.empty())
    config_.fleet->save(config_.fleet_state_path);
  if (alive_indices() != attempt_alive_) throw FleetMembershipChanged{};
}

void MultiDeviceEngine::probe_devices() {
  // A dead device should fail fast, before the search sinks work into it.
  // Each probe measures a *different* backbone (faults are keyed by the
  // measurement identity, so re-measuring one backbone re-derives the same
  // outcome): failure_threshold failed probes in a row open the breaker,
  // one success proves the device usable.
  hadas::util::Rng prng(config_.seed ^ 0x9e3779b97f4a7c15ULL);
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    const auto& robust = devices_[i].static_eval->robust();
    if (!robust.active()) continue;
    hadas::util::Rng device_rng = prng.fork(i);
    const std::size_t tries = robust.config().breaker.failure_threshold;
    for (std::size_t t = 0; t < tries; ++t) {
      try {
        devices_[i].static_eval->evaluate(
            supernet::decode(space_, supernet::random_genome(space_, device_rng)));
        break;  // device answers: leave it in the fleet
      } catch (const hw::DeviceUnavailableError&) {
        break;  // breaker already open (dropout): give up on it
      } catch (const hw::MeasurementError&) {
        continue;  // counted by the breaker; keep probing
      }
    }
  }
}

MultiDeviceResult MultiDeviceEngine::run() {
  probe_devices();
  hadas::util::failpoint("multidevice.probe");
  std::vector<std::size_t> alive = alive_indices();
  std::size_t restarts = 0;

  for (;;) {
    if (alive.empty()) throw_all_dead();
    try {
      MultiDeviceResult result = search(alive);
      for (std::size_t idx : alive)
        result.active_targets.push_back(targets_[idx]);
      for (std::size_t i = 0; i < devices_.size(); ++i)
        result.health.push_back({targets_[i], device_alive(i),
                                 devices_[i].static_eval->robust().report()});
      result.fleet_restarts = restarts;
      result.fleet_rounds = fleet_rounds_total_;
      return result;
    } catch (const hw::DeviceUnavailableError&) {
      // A breaker opened mid-search: drop the dead device(s) and restart
      // deterministically on the survivors. If nothing actually died the
      // error is not ours to absorb.
      std::vector<std::size_t> survivors;
      for (std::size_t idx : alive)
        if (device_alive(idx)) survivors.push_back(idx);
      if (survivors.size() == alive.size()) throw;
      alive = std::move(survivors);
      ++restarts;
    } catch (const FleetMembershipChanged&) {
      // A whole device group died — or came back — mid-attempt. Abandon the
      // attempt and restart on the new group set: chaos schedules are
      // finite, so the attempt that completes runs entirely on the final
      // membership, making the result byte-identical to a run with that
      // membership fixed up front, whatever order groups died in.
      alive = alive_indices();
      ++restarts;
    }
  }
}

FleetDeployment MultiDeviceEngine::fleet_deployment(
    const MultiDeviceResult& result, std::size_t index) {
  if (index >= result.pareto.size())
    throw std::out_of_range("fleet_deployment: solution index out of range");
  const MultiDeviceSolution& solution = result.pareto[index];

  // Re-derive the bank exactly as the elite inner search did: same backbone
  // key, same separability, same seed xor — the serving-time bank is the
  // searched bank, not a retrained approximation.
  const std::uint64_t backbone_key =
      supernet::genome_hash(supernet::encode(space_, solution.backbone));
  const supernet::NetworkCost& cost =
      devices_.front().static_eval->cost_cache().analyze(solution.backbone);
  const double accuracy =
      devices_.front().static_eval->surrogate().accuracy(solution.backbone);
  dynn::ExitBankConfig bank_config = config_.bank;
  bank_config.seed ^= backbone_key;

  FleetDeployment deployment;
  deployment.bank = std::make_unique<dynn::ExitBank>(
      task_, cost, data::separability_from_accuracy(accuracy), bank_config,
      &dispatcher_);
  deployment.placement = solution.placement;
  deployment.settings = solution.settings;

  for (hw::Target target : result.active_targets) {
    std::size_t device_index = targets_.size();
    for (std::size_t i = 0; i < targets_.size(); ++i)
      if (targets_[i] == target) {
        device_index = i;
        break;
      }
    if (device_index == targets_.size())
      throw std::invalid_argument(
          "fleet_deployment: result names target '" + hw::target_name(target) +
          "' which this engine does not hold");
    // Clean tables only: serve-time fault injection belongs to the serving
    // supervisor (ServeLane::faults), never to the table.
    deployment.tables.push_back(std::make_unique<dynn::MultiExitCostTable>(
        cost, devices_[device_index].static_eval->hardware()));
  }
  if (deployment.tables.size() != deployment.settings.size())
    throw std::invalid_argument(
        "fleet_deployment: solution settings do not match active targets");
  return deployment;
}

MultiDeviceResult MultiDeviceEngine::search(const std::vector<std::size_t>& alive) {
  attempt_alive_ = alive;
  hadas::util::Rng rng(config_.seed);
  const auto cardinalities = space_.gene_cardinalities();
  const double mutation_prob = 1.0 / static_cast<double>(cardinalities.size());

  MultiDeviceResult result;

  // --- Outer loop: static multi-device NSGA over B. ---
  // Objectives: [accuracy, -energy_1, ..., -energy_D].
  struct Entry {
    supernet::BackboneConfig config;
    Objectives objectives;
  };
  std::map<supernet::Genome, std::size_t> seen;
  std::vector<Entry> entries;

  std::vector<supernet::Genome> population;
  for (std::size_t i = 0; i < config_.outer_population; ++i)
    population.push_back(supernet::random_genome(space_, rng));

  const std::size_t device_count = alive.size();
  for (std::size_t gen = 0; gen < config_.outer_generations; ++gen) {
    // Static evaluation of the generation's fresh genomes, one device per
    // task: the (genome, device) grid is flattened so every per-device
    // roofline measurement is an independent unit of work. Entry slots are
    // assigned serially in first-occurrence order, keeping the result
    // layout identical to the serial path.
    std::vector<std::size_t> idxs(population.size());
    std::vector<std::size_t> fresh;  // entry indices needing evaluation
    for (std::size_t p = 0; p < population.size(); ++p) {
      const supernet::Genome& genome = population[p];
      auto it = seen.find(genome);
      if (it != seen.end()) {
        idxs[p] = it->second;
        continue;
      }
      Entry entry;
      entry.config = supernet::decode(space_, genome);
      entries.push_back(std::move(entry));
      ++result.static_evaluations;
      const std::size_t index = entries.size() - 1;
      seen.emplace(genome, index);
      idxs[p] = index;
      fresh.push_back(index);
    }
    const std::vector<double> energies =
        dispatcher_.map(fresh.size() * device_count, [&](std::size_t t) {
          const std::size_t g = t / device_count;
          const std::size_t d = t % device_count;
          return devices_[alive[d]]
              .static_eval->evaluate(entries[fresh[g]].config)
              .energy_j;
        });
    for (std::size_t g = 0; g < fresh.size(); ++g) {
      Entry& entry = entries[fresh[g]];
      entry.objectives.push_back(devices_[alive.front()]
                                     .static_eval->surrogate()
                                     .accuracy(entry.config));
      for (std::size_t d = 0; d < device_count; ++d)
        entry.objectives.push_back(-energies[g * device_count + d]);
    }

    std::vector<Individual> individuals;
    for (std::size_t p = 0; p < population.size(); ++p)
      individuals.push_back({population[p], entries[idxs[p]].objectives});
    const std::size_t parents =
        std::max<std::size_t>(2, config_.outer_population / 2);
    std::vector<Individual> selected =
        select_by_rank_crowding(std::move(individuals), parents);
    std::vector<supernet::Genome> next;
    for (const auto& parent : selected) next.push_back(parent.genome);
    while (next.size() < config_.outer_population) {
      const auto& p1 = selected[rng.uniform_index(selected.size())].genome;
      const auto& p2 = selected[rng.uniform_index(selected.size())].genome;
      IntGenome c1, c2;
      uniform_crossover(p1, p2, c1, c2, rng);
      for (IntGenome* child : {&c1, &c2}) {
        if (next.size() == config_.outer_population) break;
        reset_mutation(*child, cardinalities, mutation_prob, rng);
        next.push_back(*child);
      }
    }
    population = std::move(next);
    hadas::util::failpoint("multidevice.generation.end");
    if (config_.fleet) fleet_tick();
  }

  // Elite backbones: crowding-ordered first front of everything evaluated.
  std::vector<Objectives> points;
  for (const auto& entry : entries) points.push_back(entry.objectives);
  const auto front = pareto_front(points);
  const auto crowding = crowding_distance(points, front);
  std::vector<std::size_t> order(front.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return crowding[a] > crowding[b];
  });

  // --- Joint inner search per elite backbone, one IOE per task. Each task
  // is self-contained (own bank, cost tables, evaluators) and seeded from
  // its backbone hash, so the dispatch order cannot affect the results;
  // evaluation counts and Pareto insertions are merged serially in elite
  // order afterwards. ---
  ParetoArchive archive;
  std::vector<MultiDeviceSolution> pool;
  const std::size_t elites = std::min(config_.inner_backbones, front.size());
  struct EliteOutcome {
    std::vector<MultiDeviceSolution> solutions;
    std::size_t evaluations = 0;
  };
  std::vector<EliteOutcome> elite_outcomes =
      dispatcher_.map(elites, [&](std::size_t e) {
    const supernet::BackboneConfig& backbone = entries[front[order[e]]].config;
    const std::uint64_t backbone_key =
        supernet::genome_hash(supernet::encode(space_, backbone));
    const supernet::NetworkCost& cost =
        devices_[alive.front()].static_eval->cost_cache().analyze(backbone);
    const double accuracy =
        devices_[alive.front()].static_eval->surrogate().accuracy(backbone);
    dynn::ExitBankConfig bank_config = config_.bank;
    bank_config.seed ^= backbone_key;
    const dynn::ExitBank bank(task_, cost,
                              data::separability_from_accuracy(accuracy),
                              bank_config, &dispatcher_);

    std::vector<std::unique_ptr<dynn::MultiExitCostTable>> tables;
    std::vector<std::unique_ptr<dynn::DynamicEvaluator>> evaluators;
    std::vector<const dynn::DynamicEvaluator*> eval_ptrs;
    std::vector<const hw::DeviceSpec*> device_ptrs;
    for (std::size_t idx : alive) {
      const auto& device = devices_[idx];
      tables.push_back(std::make_unique<dynn::MultiExitCostTable>(
          cost, device.static_eval->hardware()));
      if (device.static_eval->robust().active())
        tables.back()->set_robust(&device.static_eval->robust(), backbone_key);
      evaluators.push_back(std::make_unique<dynn::DynamicEvaluator>(
          bank, *tables.back(), config_.score));
      eval_ptrs.push_back(evaluators.back().get());
      device_ptrs.push_back(&device.static_eval->hardware().device());
    }

    JointInnerProblem problem(eval_ptrs, device_ptrs, bank.total_layers());
    Nsga2Config nsga_config = config_.inner_nsga;
    nsga_config.seed ^= backbone_key;
    const Nsga2Result inner = Nsga2(nsga_config).run(problem);

    EliteOutcome outcome;
    outcome.evaluations = inner.evaluations;
    for (const auto& ind : inner.front) {
      const auto [placement, settings] = problem.decode(ind.genome);
      MultiDeviceSolution sol{backbone, placement, settings, {}, 1.0, 0.0, 0.0};
      for (std::size_t d = 0; d < eval_ptrs.size(); ++d) {
        sol.per_device.push_back(eval_ptrs[d]->evaluate(placement, settings[d]));
        sol.worst_gain = std::min(sol.worst_gain, sol.per_device.back().energy_gain);
        sol.mean_gain += sol.per_device.back().energy_gain /
                         static_cast<double>(eval_ptrs.size());
        sol.oracle_accuracy = sol.per_device.back().oracle_accuracy;
      }
      outcome.solutions.push_back(std::move(sol));
    }
    return outcome;
  });

  for (EliteOutcome& outcome : elite_outcomes) {
    result.inner_evaluations += outcome.evaluations;
    for (MultiDeviceSolution& sol : outcome.solutions) {
      pool.push_back(std::move(sol));
      archive.insert({pool.back().worst_gain, pool.back().oracle_accuracy},
                     pool.size() - 1);
    }
  }

  for (std::size_t payload : archive.payloads())
    result.pareto.push_back(pool[payload]);
  return result;
}

std::vector<std::vector<std::size_t>> per_group_fronts(
    const MultiDeviceResult& result) {
  std::vector<std::vector<std::size_t>> fronts;
  for (std::size_t g = 0; g < result.active_targets.size(); ++g) {
    std::vector<Objectives> points;
    for (const MultiDeviceSolution& solution : result.pareto)
      points.push_back(
          {solution.per_device[g].energy_gain, solution.oracle_accuracy});
    std::vector<std::size_t> front = pareto_front(points);
    std::sort(front.begin(), front.end());
    fronts.push_back(std::move(front));
  }
  return fronts;
}

util::Json multi_device_result_to_json(const MultiDeviceResult& result) {
  util::Json json;
  util::Json::Array targets;
  for (hw::Target target : result.active_targets)
    targets.push_back(util::Json(hw::target_name(target)));
  json["active_targets"] = std::move(targets);
  json["static_evaluations"] = util::Json(result.static_evaluations);
  json["inner_evaluations"] = util::Json(result.inner_evaluations);

  util::Json::Array solutions;
  for (const MultiDeviceSolution& solution : result.pareto) {
    util::Json entry;
    entry["backbone"] = solution.backbone.describe();
    util::Json::Array exits;
    for (std::size_t layer = 0; layer < solution.placement.total_layers();
         ++layer)
      if (solution.placement.has_exit(layer))
        exits.push_back(util::Json(layer));
    entry["exits"] = std::move(exits);
    util::Json::Array settings;
    for (const hw::DvfsSetting& setting : solution.settings) {
      util::Json point;
      point["core_idx"] = util::Json(setting.core_idx);
      point["emc_idx"] = util::Json(setting.emc_idx);
      settings.push_back(std::move(point));
    }
    entry["settings"] = std::move(settings);
    util::Json::Array per_device;
    for (const dynn::DynamicMetrics& metrics : solution.per_device) {
      util::Json m;
      m["score_eq5"] = metrics.score_eq5;
      m["mean_n"] = metrics.mean_n;
      m["oracle_accuracy"] = metrics.oracle_accuracy;
      m["energy_per_sample_j"] = metrics.energy_per_sample_j;
      m["latency_per_sample_s"] = metrics.latency_per_sample_s;
      m["energy_gain"] = metrics.energy_gain;
      per_device.push_back(std::move(m));
    }
    entry["per_device"] = std::move(per_device);
    entry["worst_gain"] = solution.worst_gain;
    entry["mean_gain"] = solution.mean_gain;
    entry["oracle_accuracy"] = solution.oracle_accuracy;
    solutions.push_back(std::move(entry));
  }
  json["solutions"] = std::move(solutions);

  util::Json::Array fronts;
  for (const std::vector<std::size_t>& front : per_group_fronts(result)) {
    util::Json::Array indices;
    for (std::size_t index : front) indices.push_back(util::Json(index));
    fronts.push_back(util::Json(std::move(indices)));
  }
  json["per_group_fronts"] = std::move(fronts);

  util::Json::Array health;
  for (const DeviceHealthEntry& entry : result.health) {
    util::Json device;
    device["target"] = hw::target_name(entry.target);
    device["alive"] = entry.alive;
    device["breaker"] = hw::breaker_state_name(entry.report.state);
    device["measurements"] =
        util::Json(static_cast<double>(entry.report.measurements));
    device["attempts"] = util::Json(static_cast<double>(entry.report.attempts));
    health.push_back(std::move(device));
  }
  json["health"] = std::move(health);
  json["fleet_restarts"] = util::Json(result.fleet_restarts);
  json["fleet_rounds"] = util::Json(result.fleet_rounds);
  return json;
}

}  // namespace hadas::core
