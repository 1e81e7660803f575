#include "core/hadas_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/failpoint.hpp"

namespace hadas::core {

namespace {

/// Search-loop instruments, resolved once (registry lookups take a mutex).
/// Strictly observe-only: nothing here feeds back into the search, so the
/// front is bit-identical with observability on or off.
struct SearchMetrics {
  obs::Counter& generations =
      obs::MetricsRegistry::global().counter("search.generations_total");
  obs::Counter& static_evals =
      obs::MetricsRegistry::global().counter("search.static_evals_total");
  obs::Counter& ioe_runs =
      obs::MetricsRegistry::global().counter("search.ioe_runs_total");
  obs::Counter& resumes =
      obs::MetricsRegistry::global().counter("search.resumes_total");
  obs::Gauge& front_size =
      obs::MetricsRegistry::global().gauge("search.static_front_size");
  obs::Gauge& pareto_size =
      obs::MetricsRegistry::global().gauge("search.final_pareto_size");
  obs::Gauge& backbones =
      obs::MetricsRegistry::global().gauge("search.backbones_explored");
  obs::Histogram& generation_seconds =
      obs::MetricsRegistry::global().histogram("search.generation_seconds",
                                               obs::default_time_bounds());
};

SearchMetrics& search_metrics() {
  static SearchMetrics metrics;
  return metrics;
}

/// Hypervolume of an inner Pareto set in the reported (energy_gain,
/// oracle_accuracy) plane, reference (0, 0).
double inner_hypervolume(const std::vector<InnerSolution>& pareto) {
  std::vector<Objectives> pts;
  pts.reserve(pareto.size());
  for (const auto& sol : pareto)
    pts.push_back({sol.metrics.energy_gain, sol.metrics.oracle_accuracy});
  return hypervolume(pts, {0.0, 0.0});
}
}  // namespace

std::string checkpoint_fingerprint(const supernet::SearchSpace& space,
                                   const HadasConfig& c) {
  std::ostringstream out;
  out.precision(17);
  out << "hadas-ckpt-v1|genes:";
  for (std::size_t card : space.gene_cardinalities()) out << card << ',';
  out << "|seed:" << c.seed << "|pop:" << c.outer_population
      << "|elites:" << c.ioe_backbones_per_generation
      << "|cx:" << c.crossover_prob << "|mut:" << c.mutation_prob
      << "|maxlat:" << c.max_latency_s << "|hist:" << c.keep_inner_history
      << "|ioe:" << c.ioe.nsga.population << '/' << c.ioe.nsga.generations
      << '/' << c.ioe.nsga.crossover_prob << '/' << c.ioe.nsga.mutation_prob
      << '/' << c.ioe.nsga.seed << "|score:" << c.ioe.score.gamma << '/'
      << c.ioe.score.use_dissim << "|gainobj:" << c.ioe.include_gain_objective
      << "|bank:" << c.bank.head_hidden << '/' << c.bank.seed
      << "|data:" << c.data.num_classes << '/' << c.data.feature_dim << '/'
      << c.data.train_size << '/' << c.data.val_size << '/' << c.data.test_size
      << "|faults:" << c.robust.faults.transient_failure_rate << '/'
      << c.robust.faults.noise_sigma << '/' << c.robust.faults.thermal_drift
      << '/' << c.robust.faults.nan_rate << '/'
      << c.robust.faults.dropout_after_n << '/' << c.robust.faults.seed
      << "|robust:" << c.robust.samples << '/' << c.robust.mad_threshold << '/'
      << c.robust.retry.max_attempts << '/' << c.robust.engage;
  // Appended only when non-empty so fingerprints of pre-existing checkpoints
  // (written before the salt field existed) still validate.
  if (!c.fingerprint_salt.empty()) out << "|salt:" << c.fingerprint_salt;
  return out.str();
}

Objectives constrained_objectives(const StaticEval& eval, double max_latency_s) {
  if (max_latency_s <= 0.0 || eval.latency_s <= max_latency_s)
    return eval.objectives();
  const double violation = eval.latency_s - max_latency_s;
  return {-1e6 - violation, -1e6 - violation, -1e6 - violation};
}

std::vector<FinalSolution> final_pareto_of(
    const std::vector<BackboneOutcome>& backbones) {
  ParetoArchive archive;
  std::vector<FinalSolution> pool;
  for (const auto& outcome : backbones) {
    for (const auto& sol : outcome.inner_pareto) {
      FinalSolution fs{outcome.config, sol.placement, sol.setting,
                       outcome.static_eval, sol.metrics};
      pool.push_back(std::move(fs));
      archive.insert({sol.metrics.energy_gain, sol.metrics.oracle_accuracy},
                     pool.size() - 1);
    }
  }
  std::vector<FinalSolution> front;
  front.reserve(archive.size());
  for (std::size_t payload : archive.payloads()) front.push_back(pool[payload]);
  return front;
}

HadasEngine::HadasEngine(const supernet::SearchSpace& space, hw::Target target,
                         HadasConfig config)
    : space_(space),
      config_(config),
      static_eval_(space, target, config.exec.cache_capacity, config.robust),
      task_(config.data),
      dispatcher_(config.exec),
      static_cache_(config.exec.cache_capacity) {}

const HadasEngine::BankEntry& HadasEngine::bank_entry(
    const supernet::BackboneConfig& config) const {
  const std::uint64_t key = supernet::genome_hash(supernet::encode(space_, config));
  {
    std::scoped_lock lock(bank_mutex_);
    auto it = bank_cache_.find(key);
    if (it != bank_cache_.end()) return it->second;
  }

  // Built outside the lock so concurrent IOE tasks train the banks of
  // distinct backbones in parallel. If two tasks race on the same key the
  // loser's entry is discarded by try_emplace — wasted work, never a wrong
  // result, since construction is deterministic in (config, seed).
  const supernet::NetworkCost cost = static_eval_.cost_cache().analyze(config);
  const double accuracy = static_eval_.surrogate().accuracy(config);
  const double separability = data::separability_from_accuracy(accuracy);

  dynn::ExitBankConfig bank_config = config_.bank;
  bank_config.seed = config_.bank.seed ^ key;  // per-backbone determinism

  BankEntry entry;
  entry.bank =
      std::make_unique<dynn::ExitBank>(task_, cost, separability, bank_config);
  entry.cost = std::make_unique<dynn::MultiExitCostTable>(
      cost, static_eval_.hardware());
  if (static_eval_.robust().active())
    entry.cost->set_robust(&static_eval_.robust(), key);
  std::scoped_lock lock(bank_mutex_);
  return bank_cache_.try_emplace(key, std::move(entry)).first->second;
}

const dynn::ExitBank& HadasEngine::exit_bank(
    const supernet::BackboneConfig& config) const {
  return *bank_entry(config).bank;
}

const dynn::MultiExitCostTable& HadasEngine::cost_table(
    const supernet::BackboneConfig& config) const {
  return *bank_entry(config).cost;
}

InnerSolution HadasEngine::evaluate_dynamic(
    const supernet::BackboneConfig& config, const dynn::ExitPlacement& placement,
    hw::DvfsSetting setting) const {
  const BankEntry& entry = bank_entry(config);
  InnerEngine engine(*entry.bank, *entry.cost, config_.ioe);
  return engine.evaluate(placement, setting);
}

IoeResult HadasEngine::run_ioe(const supernet::BackboneConfig& config) const {
  return run_ioe(config, config_.ioe.score);
}

IoeResult HadasEngine::run_ioe(const supernet::BackboneConfig& config,
                               const dynn::DynamicScoreConfig& score) const {
  IoeConfig ioe_config = config_.ioe;
  ioe_config.score = score;
  return run_ioe_with(config, ioe_config);
}

IoeResult HadasEngine::run_ioe_with(const supernet::BackboneConfig& config,
                                    const IoeConfig& ioe_config) const {
  const BankEntry& entry = bank_entry(config);
  IoeConfig seeded = ioe_config;
  // Derive the inner seed from the backbone so repeated runs are
  // deterministic but different backbones explore differently.
  seeded.nsga.seed ^= supernet::genome_hash(supernet::encode(space_, config));
  InnerEngine engine(*entry.bank, *entry.cost, seeded);
  return engine.run();
}

std::vector<IntGenome> ioe_seed_pool(const std::vector<BackboneOutcome>& backbones,
                                     std::size_t target_num_eligible,
                                     const hw::DeviceSpec& device,
                                     std::size_t max_seeds) {
  std::vector<IntGenome> seeds;
  if (max_seeds == 0 || target_num_eligible == 0) return seeds;
  std::set<IntGenome> seen;
  for (std::size_t depth = 0; seeds.size() < max_seeds; ++depth) {
    bool any = false;
    for (const BackboneOutcome& outcome : backbones) {
      if (!outcome.ioe_ran || depth >= outcome.inner_pareto.size()) continue;
      any = true;
      const InnerSolution& sol = outcome.inner_pareto[depth];
      IntGenome g(target_num_eligible + 2, 0);
      const auto& mask = sol.placement.mask();
      for (std::size_t i = 0; i < target_num_eligible && i < mask.size(); ++i)
        g[i] = mask[i] ? 1 : 0;
      g[target_num_eligible] = static_cast<std::int32_t>(
          std::min(sol.setting.core_idx, device.core_freqs_hz.size() - 1));
      g[target_num_eligible + 1] = static_cast<std::int32_t>(
          std::min(sol.setting.emc_idx, device.emc_freqs_hz.size() - 1));
      if (!seen.insert(g).second) continue;  // duplicate after re-encoding
      seeds.push_back(std::move(g));
      if (seeds.size() == max_seeds) break;
    }
    if (!any) break;
  }
  return seeds;
}

WarmStart warm_start_from_solutions(
    const supernet::SearchSpace& space,
    const std::vector<FinalSolution>& solutions) {
  WarmStart warm;
  // Group solutions by backbone; each group becomes one known outcome.
  std::map<supernet::Genome, std::size_t> index;
  for (const FinalSolution& sol : solutions) {
    const supernet::Genome genome = supernet::encode(space, sol.backbone);
    auto it = index.find(genome);
    if (it == index.end()) {
      BackboneOutcome outcome;
      outcome.config = sol.backbone;
      outcome.static_eval = sol.static_eval;
      outcome.ioe_ran = true;
      warm.known.push_back(std::move(outcome));
      warm.population.push_back(genome);
      it = index.emplace(genome, warm.known.size() - 1).first;
    }
    InnerSolution inner{sol.placement, sol.setting, sol.dynamic, {}};
    inner.objectives = {sol.dynamic.score_eq5, sol.dynamic.energy_gain,
                        sol.dynamic.oracle_accuracy};
    warm.known[it->second].inner_pareto.push_back(std::move(inner));
  }
  for (BackboneOutcome& outcome : warm.known) {
    std::vector<Objectives> pts;
    for (const auto& sol : outcome.inner_pareto)
      pts.push_back({sol.metrics.energy_gain, sol.metrics.oracle_accuracy});
    outcome.inner_hv = hypervolume(pts, {0.0, 0.0});
  }
  return warm;
}

HadasResult HadasEngine::run(const WarmStart& warm) {
  hadas::util::Rng rng(config_.seed);

  // Constrained domination (Deb): feasible candidates keep their real
  // objectives; latency-infeasible ones collapse to a uniformly-worse vector
  // ordered by constraint violation, so any feasible point dominates every
  // infeasible one and less-violating infeasible points win among
  // themselves.
  auto constrained = [&](const StaticEval& eval) -> Objectives {
    return constrained_objectives(eval, config_.max_latency_s);
  };
  const auto cardinalities = space_.gene_cardinalities();
  const double mutation_prob =
      config_.mutation_prob > 0.0
          ? config_.mutation_prob
          : 1.0 / static_cast<double>(cardinalities.size());

  HadasResult result;
  std::map<supernet::Genome, std::size_t> seen;  // genome -> backbone index
  std::vector<supernet::Genome> population;
  std::size_t start_gen = 0;

  // --- Resume: if a checkpoint chain exists for this config, restore the
  // exact mid-search state (population, outcomes, RNG) from the newest
  // valid snapshot and skip the completed generations. Corrupt snapshots
  // are skipped (with a warning) in favour of older ones; only a fully
  // corrupt chain raises CheckpointCorruptError. The fingerprint guards
  // against resuming a checkpoint from a different problem;
  // outer_generations is deliberately excluded so a finished search can be
  // extended. ---
  const std::string fingerprint = config_.checkpoint_path.empty()
                                      ? std::string()
                                      : checkpoint_fingerprint(space_, config_);
  const std::size_t keep = std::max<std::size_t>(1, config_.checkpoint_keep);
  auto warn = [&](const std::string& message) {
    if (config_.checkpoint_warn) {
      config_.checkpoint_warn(message);
    } else {
      std::fprintf(stderr, "[hadas] %s\n", message.c_str());
    }
  };
  bool resumed = false;
  if (!config_.checkpoint_path.empty()) {
    const hadas::util::durable::CheckpointChain chain(config_.checkpoint_path,
                                                      keep);
    if (auto loaded = load_checkpoint_chain(chain, warn)) {
      SearchCheckpoint ck = std::move(loaded->checkpoint);
      if (ck.fingerprint != fingerprint)
        throw std::invalid_argument(
            "HadasEngine: checkpoint '" + loaded->file +
            "' was written by a different search configuration; refusing to "
            "resume (delete the file to start fresh)");
      rng = hadas::util::Rng::from_state(ck.rng);
      result.backbones = std::move(ck.backbones);
      result.outer_evaluations = ck.outer_evaluations;
      result.inner_evaluations = ck.inner_evaluations;
      for (std::size_t i = 0; i < result.backbones.size(); ++i)
        seen.emplace(supernet::encode(space_, result.backbones[i].config), i);
      population = std::move(ck.population);
      start_gen = ck.next_generation;
      result.resumed_from_generation = start_gen;
      result.resumed_from_file = loaded->file;
      result.corrupt_checkpoints_skipped = loaded->skipped;
      resumed = true;
      search_metrics().resumes.inc();
      hadas::util::failpoint("engine.resume");
    }
  }

  if (!resumed) {
    // Pre-load known outcomes (warm start): their static evaluations and
    // inner Pareto sets are reused verbatim.
    for (const BackboneOutcome& outcome : warm.known) {
      const supernet::Genome genome = supernet::encode(space_, outcome.config);
      if (seen.count(genome)) continue;
      result.backbones.push_back(outcome);
      seen.emplace(genome, result.backbones.size() - 1);
    }

    // Initial population: warm-start genomes first, random fill after.
    population.reserve(config_.outer_population);
    for (const supernet::Genome& genome : warm.population) {
      if (population.size() == config_.outer_population) break;
      if (supernet::is_valid_genome(space_, genome)) population.push_back(genome);
    }
    while (population.size() < config_.outer_population)
      population.push_back(supernet::random_genome(space_, rng));
  }

  // --- Immigrant splice (island migration): only when the run resumes at
  // exactly the generation the immigrants were selected for. A mid-round
  // resume (crash after the boundary checkpoint) skips the splice because
  // the resumed population already absorbed these genomes — re-applying
  // would diverge from the uninterrupted run. ---
  if (resumed && !warm.immigrants.empty() &&
      start_gen == warm.immigrants_at_generation && population.size() > 1) {
    const std::size_t count =
        std::min(warm.immigrants.size(), population.size() - 1);
    for (std::size_t i = 0; i < count; ++i)
      population[population.size() - count + i] = warm.immigrants[i];
  }

  // Durable boundary snapshot for generation `next_gen` (everything run()
  // needs to continue from its start). Shared by the periodic checkpoint and
  // the cooperative-cancel path.
  auto save_checkpoint = [&](std::size_t next_gen) {
    const obs::TraceSpan span("checkpoint", "durable");
    hadas::util::failpoint("engine.checkpoint.begin");
    SearchCheckpoint ck;
    ck.fingerprint = fingerprint;
    ck.next_generation = next_gen;
    ck.rng = rng.state();
    ck.population = population;
    ck.backbones = result.backbones;
    ck.outer_evaluations = result.outer_evaluations;
    ck.inner_evaluations = result.inner_evaluations;
    save_checkpoint_chain(
        hadas::util::durable::CheckpointChain(config_.checkpoint_path, keep),
        ck);
    hadas::util::failpoint("engine.checkpoint.end");
  };

  for (std::size_t gen = start_gen; gen < config_.outer_generations; ++gen) {
    // Cooperative cancellation, checked only at the generation boundary
    // where the in-memory state is exactly a checkpoint: persist it and
    // stop, so the caller can exit 0 and a later run resumes bit-identically.
    if (config_.cancel && config_.cancel->load(std::memory_order_relaxed)) {
      if (!config_.checkpoint_path.empty() && gen > start_gen)
        save_checkpoint(gen);
      result.interrupted = true;
      break;
    }
    const obs::TraceSpan gen_span("generation", "search");
    // Generation wall time is read only while observability is enabled, so
    // the metrics-off hot path stays clock-free.
    const auto gen_t0 = obs::enabled() ? std::chrono::steady_clock::now()
                                       : std::chrono::steady_clock::time_point{};
    search_metrics().generations.inc();
    // --- S evaluation of the generation (eq. 3), fanned out over the
    // dispatcher. Indices are assigned serially in first-occurrence order
    // (so result.backbones matches the serial path exactly); only the pure
    // S(b) computations of genomes not seen before run concurrently, each
    // memoized across run() calls by the static cache. ---
    std::vector<std::size_t> indices(population.size());
    std::vector<std::pair<std::size_t, supernet::Genome>> fresh;  // index, genome
    for (std::size_t p = 0; p < population.size(); ++p) {
      const supernet::Genome& genome = population[p];
      auto it = seen.find(genome);
      if (it != seen.end()) {
        indices[p] = it->second;
        continue;
      }
      BackboneOutcome outcome;
      outcome.config = supernet::decode(space_, genome);
      result.backbones.push_back(std::move(outcome));
      ++result.outer_evaluations;
      const std::size_t index = result.backbones.size() - 1;
      seen.emplace(genome, index);
      indices[p] = index;
      fresh.emplace_back(index, genome);
    }
    search_metrics().static_evals.inc(fresh.size());
    std::vector<StaticEval> evals;
    {
      const obs::TraceSpan span("static_evals", "search");
      evals = dispatcher_.map(fresh.size(), [&](std::size_t k) {
        const auto& [index, genome] = fresh[k];
        return static_cache_.get_or_compute(supernet::genome_hash(genome), [&] {
          return static_eval_.evaluate(result.backbones[index].config);
        });
      });
    }
    for (std::size_t k = 0; k < fresh.size(); ++k)
      result.backbones[fresh[k].first].static_eval = evals[k];

    // --- Early selection: prune P_B^g to P_B^g' via non-dominated sorting
    // on the static objectives; the elites are mapped to IOEs. ---
    std::vector<Objectives> static_points;
    static_points.reserve(indices.size());
    for (std::size_t idx : indices)
      static_points.push_back(constrained(result.backbones[idx].static_eval));
    const auto fronts = non_dominated_sort(static_points);

    std::vector<std::size_t> elite_order;  // positions within `indices`
    for (const auto& front : fronts) {
      const auto dist = crowding_distance(static_points, front);
      std::vector<std::size_t> by_crowding(front.size());
      for (std::size_t i = 0; i < front.size(); ++i) by_crowding[i] = i;
      std::sort(by_crowding.begin(), by_crowding.end(),
                [&](std::size_t a, std::size_t b) { return dist[a] > dist[b]; });
      for (std::size_t i : by_crowding) elite_order.push_back(front[i]);
    }

    // The launch set is fully determined by the static evaluations, so it
    // can be fixed up front and the |P_B^g'| independent IOEs dispatched
    // concurrently — the paper's "independent Inner Optimization Engines"
    // fan-out. Each IOE's NSGA seed derives from its backbone hash alone,
    // so the results do not depend on scheduling order.
    std::vector<std::size_t> launch;  // indices into result.backbones
    for (std::size_t pos : elite_order) {
      if (launch.size() == config_.ioe_backbones_per_generation) break;
      const std::size_t idx = indices[pos];
      const BackboneOutcome& outcome = result.backbones[idx];
      if (outcome.ioe_ran) continue;  // already explored in a prior generation
      if (config_.max_latency_s > 0.0 &&
          outcome.static_eval.latency_s > config_.max_latency_s)
        continue;  // never spend IOE budget on undeployable backbones
      if (std::find(launch.begin(), launch.end(), idx) != launch.end())
        continue;  // duplicate genome in the population
      launch.push_back(idx);
    }
    search_metrics().ioe_runs.inc(launch.size());
    std::vector<IoeResult> ioes;
    {
      const obs::TraceSpan span("ioe_dispatch", "search");
      // Warm-start seed pools are fixed BEFORE the parallel fan-out — a
      // pure function of the outcomes of earlier generations (which the
      // checkpoint carries) — so every IOE sees the same seeds at any
      // thread count and on resume.
      std::vector<IoeConfig> ioe_configs(launch.size(), config_.ioe);
      for (std::size_t k = 0; k < launch.size(); ++k) {
        const supernet::BackboneConfig& backbone = result.backbones[launch[k]].config;
        const std::size_t eligible =
            dynn::ExitPlacement(static_cast<std::size_t>(backbone.total_layers()))
                .num_eligible();
        ioe_configs[k].nsga.initial_population =
            ioe_seed_pool(result.backbones, eligible,
                          static_eval_.hardware().device(),
                          config_.ioe.nsga.population / 2);
      }
      ioes = dispatcher_.map(launch.size(), [&](std::size_t k) {
        return run_ioe_with(result.backbones[launch[k]].config, ioe_configs[k]);
      });
    }
    for (std::size_t k = 0; k < launch.size(); ++k) {
      BackboneOutcome& outcome = result.backbones[launch[k]];
      IoeResult& ioe = ioes[k];
      outcome.ioe_ran = true;
      outcome.inner_pareto = std::move(ioe.pareto);
      if (config_.keep_inner_history)
        outcome.inner_history = std::move(ioe.history);
      outcome.inner_hv = inner_hypervolume(outcome.inner_pareto);
      result.inner_evaluations += ioe.evaluations;
    }

    // --- Second selection: rank by combined S and D scores, then apply
    // crossover/mutation to build the next generation. ---
    std::vector<Individual> candidates;
    candidates.reserve(indices.size());
    for (std::size_t pos = 0; pos < indices.size(); ++pos) {
      const BackboneOutcome& outcome = result.backbones[indices[pos]];
      Individual ind;
      ind.genome = population[pos];
      ind.objectives = constrained(outcome.static_eval);
      ind.objectives.push_back(outcome.inner_hv);  // the D contribution
      candidates.push_back(std::move(ind));
    }
    const std::size_t parent_count = std::max<std::size_t>(2, population.size() / 2);
    std::vector<Individual> parents =
        select_by_rank_crowding(std::move(candidates), parent_count);

    std::vector<supernet::Genome> next;
    next.reserve(config_.outer_population);
    for (const auto& parent : parents) next.push_back(parent.genome);
    while (next.size() < config_.outer_population) {
      const auto& p1 = parents[rng.uniform_index(parents.size())].genome;
      const auto& p2 = parents[rng.uniform_index(parents.size())].genome;
      IntGenome c1, c2;
      if (rng.bernoulli(config_.crossover_prob)) {
        uniform_crossover(p1, p2, c1, c2, rng);
      } else {
        c1 = p1;
        c2 = p2;
      }
      for (IntGenome* child : {&c1, &c2}) {
        if (next.size() == config_.outer_population) break;
        reset_mutation(*child, cardinalities, mutation_prob, rng);
        next.push_back(*child);
      }
    }
    population = std::move(next);

    // --- Checkpoint at the generation boundary, through the durable chain
    // (rotate last-K, write-to-temp + fsync + atomic rename), so a kill at
    // any instruction leaves at least one valid snapshot on disk. ---
    hadas::util::failpoint("engine.generation.end");
    const std::size_t every = std::max<std::size_t>(1, config_.checkpoint_every);
    if (!config_.checkpoint_path.empty() &&
        ((gen + 1) % every == 0 || gen + 1 == config_.outer_generations))
      save_checkpoint(gen + 1);
    if (config_.on_generation) config_.on_generation(gen + 1);
    if (obs::enabled())
      search_metrics().generation_seconds.observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        gen_t0)
              .count());
  }

  // --- Static Pareto front over every evaluated backbone (feasible ones
  // dominate, per the constrained objectives). ---
  {
    std::vector<Objectives> pts;
    pts.reserve(result.backbones.size());
    for (const auto& b : result.backbones)
      pts.push_back(constrained(b.static_eval));
    result.static_front = pareto_front(pts);
  }

  // --- Final (b*, x*, f*) Pareto set in (energy_gain, oracle_accuracy). ---
  result.final_pareto = final_pareto_of(result.backbones);

  SearchMetrics& metrics = search_metrics();
  metrics.front_size.set(static_cast<double>(result.static_front.size()));
  metrics.pareto_size.set(static_cast<double>(result.final_pareto.size()));
  metrics.backbones.set(static_cast<double>(result.backbones.size()));

  result.device_health = static_eval_.robust().report();
  return result;
}

void export_search_metrics(const HadasEngine& engine,
                           const HadasResult& result) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  auto cache = [&](const char* prefix, const exec::CacheStats& stats) {
    const std::string base = std::string("exec.cache.") + prefix;
    registry.gauge(base + ".hits").set(static_cast<double>(stats.hits));
    registry.gauge(base + ".misses").set(static_cast<double>(stats.misses));
    registry.gauge(base + ".evictions")
        .set(static_cast<double>(stats.evictions));
    registry.gauge(base + ".size").set(static_cast<double>(stats.size));
    registry.gauge(base + ".hit_rate").set(stats.hit_rate());
  };
  cache("static", engine.static_cache_stats());
  cache("cost", engine.cost_cache_stats());

  const hw::HealthReport& health = result.device_health;
  registry.gauge("hw.health.breaker_state")
      .set(static_cast<double>(static_cast<int>(health.state)));
  registry.gauge("hw.health.measurements")
      .set(static_cast<double>(health.measurements));
  registry.gauge("hw.health.attempts")
      .set(static_cast<double>(health.attempts));
  registry.gauge("hw.health.retries").set(static_cast<double>(health.retries));
  registry.gauge("hw.health.transient_failures")
      .set(static_cast<double>(health.transient_failures));
  registry.gauge("hw.health.quarantined")
      .set(static_cast<double>(health.quarantined));
  registry.gauge("hw.health.outliers_rejected")
      .set(static_cast<double>(health.outliers_rejected));
  registry.gauge("hw.health.failed_measurements")
      .set(static_cast<double>(health.failed_measurements));
  registry.gauge("hw.health.breaker_trips")
      .set(static_cast<double>(health.breaker_trips));
  registry.gauge("hw.health.backoff_s").set(health.backoff_s);
}

}  // namespace hadas::core
