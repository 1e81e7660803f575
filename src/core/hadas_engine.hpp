#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/ioe.hpp"
#include "core/static_eval.hpp"
#include "data/synthetic_task.hpp"
#include "dynn/exit_bank.hpp"
#include "dynn/multi_exit_cost.hpp"
#include "exec/dispatcher.hpp"
#include "exec/eval_cache.hpp"
#include "util/rng.hpp"

namespace hadas::core {

/// Budgets and hyper-parameters of a full bi-level HADAS run. The paper's
/// budgets (Sec. V-A) are 450 OOE iterations and 3500 IOE iterations with
/// #iterations = generations x population; the defaults here match that at
/// a laptop-friendly scale and can be raised to paper scale.
struct HadasConfig {
  std::size_t outer_population = 30;
  std::size_t outer_generations = 15;
  /// |P_B^g'| — backbones per generation handed to an IOE (early selection).
  std::size_t ioe_backbones_per_generation = 3;
  double crossover_prob = 0.9;
  double mutation_prob = -1.0;  ///< per-gene; <0 means 1/genome_length
  IoeConfig ioe;
  dynn::ExitBankConfig bank;
  data::DataConfig data;
  /// Keep per-candidate IOE exploration histories (Fig. 5 bottom clouds).
  bool keep_inner_history = true;
  /// Optional deployment constraint: backbones whose STATIC latency exceeds
  /// this budget are demoted below every feasible candidate in the outer
  /// ranking (constrained-domination, Deb's rule), so the search spends its
  /// IOE budget only on deployable designs. <= 0 disables the constraint.
  double max_latency_s = 0.0;
  std::uint64_t seed = 2023;
  /// Fault-tolerant measurement envelope (retry/backoff, sample aggregation,
  /// circuit breaker). Inactive by default: all measurements pass through
  /// bit-identically. Activated by non-zero fault rates in robust.faults or
  /// by robust.engage; see DESIGN.md "Fault tolerance".
  hw::RobustConfig robust;
  /// When non-empty, run() writes a resumable checkpoint chain rooted at
  /// this path after every `checkpoint_every` completed outer generations.
  /// Each write is durable (write-to-temp + fsync + atomic rename, with a
  /// versioned header and CRC-64 footer) and the last `checkpoint_keep`
  /// snapshots are rotated as <path>, <path>.1, ... On startup run()
  /// resumes from the newest snapshot that passes validation and matches
  /// this config's fingerprint, skipping corrupt snapshots with a warning
  /// through `checkpoint_warn`. A resumed search reproduces the
  /// uninterrupted run's final result bit-identically.
  std::string checkpoint_path;
  std::size_t checkpoint_every = 1;
  /// Rotated checkpoint snapshots retained (clamped to >= 1).
  std::size_t checkpoint_keep = 3;
  /// Sink for checkpoint-recovery warnings (corrupt snapshot skipped during
  /// resume). Empty = stderr.
  std::function<void(const std::string&)> checkpoint_warn;
  /// Parallel-execution knobs: per-generation static evaluations and the
  /// per-generation IOE runs are dispatched over `exec.threads` workers,
  /// which also train the exit heads of each IOE's bank (0 = auto,
  /// 1 = serial fallback; HADAS_THREADS overrides). The result
  /// is bit-identical at any thread count — see DESIGN.md "Parallel
  /// execution" for the determinism contract.
  exec::ExecConfig exec;
  /// Extra material mixed into the checkpoint fingerprint (appended only
  /// when non-empty, so existing checkpoints keep validating). The dist
  /// layer salts each island ("island:<i>/<K>") so one island can never
  /// resume from another island's chain even when their budgets coincide.
  std::string fingerprint_salt;
  /// Cooperative cancellation: when set and it becomes true, run() stops at
  /// the next generation boundary, writes a checkpoint (if checkpointing is
  /// on) and returns with HadasResult::interrupted set. The state written is
  /// exactly the boundary state, so a later resume reproduces the
  /// uninterrupted run bit-identically. Used for graceful SIGINT/SIGTERM.
  const std::atomic<bool>* cancel = nullptr;
  /// Observe-only hook invoked after every completed outer generation with
  /// the number of generations finished so far. Must not mutate search
  /// state; the dist worker uses it to send heartbeats mid-round.
  std::function<void(std::size_t)> on_generation;
};

/// One search problem in the CLI's vocabulary. `hadas search` and every
/// `--dist` island build their HadasConfig from it, so these initializers
/// are the CLI's search defaults.
struct SearchProblem {
  std::string device = "tx2-gpu";   ///< hw::target_key vocabulary
  std::string space = "attentive";  ///< SearchSpace::named vocabulary
  std::size_t outer_population = 16;
  std::size_t outer_generations = 6;
  std::size_t ioe_backbones_per_generation = 2;
  std::size_t ioe_population = 30;
  std::size_t ioe_generations = 20;
  std::uint64_t seed = 2023;
  std::size_t train_size = 1500;
  std::size_t epochs = 8;
  double max_latency_s = 0.0;
  std::string faults;  ///< hw::parse_fault_config spec, empty = none
  std::size_t checkpoint_keep = 3;
  std::size_t threads = 0;  ///< exec threads (0 = auto)

  hw::Target target() const { return hw::target_from_key(device); }
  supernet::SearchSpace search_space() const {
    return supernet::SearchSpace::named(space);
  }
  /// Checkpoint path and cadence, cancellation and salt stay the caller's.
  HadasConfig config() const;
};

/// A fully specified dynamic design: the paper's (b*, x*, f*) triple with
/// its static and dynamic evaluations.
struct FinalSolution {
  supernet::BackboneConfig backbone;
  dynn::ExitPlacement placement;
  hw::DvfsSetting setting;
  StaticEval static_eval;
  dynn::DynamicMetrics dynamic;
};

/// Everything learned about one explored backbone.
struct BackboneOutcome {
  supernet::BackboneConfig config;
  StaticEval static_eval;
  bool ioe_ran = false;
  std::vector<InnerSolution> inner_pareto;
  std::vector<InnerSolution> inner_history;  ///< kept if keep_inner_history
  double inner_hv = 0.0;  ///< hypervolume of inner_pareto in (gain, acc)
};

/// Result of a bi-level run.
struct HadasResult {
  std::vector<BackboneOutcome> backbones;   ///< every distinct S-evaluated b
  std::vector<std::size_t> static_front;    ///< indices: Pareto set under S
  std::vector<FinalSolution> final_pareto;  ///< (b*, x*, f*) set, non-dominated
                                            ///< in (energy_gain, oracle_acc)
  std::size_t outer_evaluations = 0;        ///< distinct S(b) evaluations
  std::size_t inner_evaluations = 0;        ///< summed IOE evaluations
  /// Health of this engine's device under the robust measurement envelope
  /// (all-zero when the robust layer is inactive).
  hw::HealthReport device_health;
  /// Generation the run resumed from (0 = started fresh).
  std::size_t resumed_from_generation = 0;
  /// Chain slot the run resumed from (empty = started fresh).
  std::string resumed_from_file;
  /// Corrupt newer snapshots skipped before finding a valid one.
  std::size_t corrupt_checkpoints_skipped = 0;
  /// True when run() stopped early at a generation boundary because
  /// HadasConfig::cancel fired. The partial result is valid as far as it
  /// goes; rerunning with the same checkpoint chain continues the search.
  bool interrupted = false;
};

/// Mid-search snapshot: everything run() needs to continue from the start of
/// generation `next_generation` exactly as the uninterrupted run would.
/// Serialized via core/serialize (checkpoint_to_json / checkpoint_from_json).
struct SearchCheckpoint {
  /// Fingerprint of the searched problem (seed, budgets, space shape).
  /// Resume refuses a checkpoint whose fingerprint mismatches the engine's —
  /// except outer_generations, which may grow between runs (extending a
  /// finished search is the legitimate use-case).
  std::string fingerprint;
  std::size_t next_generation = 0;
  hadas::util::Rng::State rng;
  std::vector<supernet::Genome> population;
  std::vector<BackboneOutcome> backbones;
  std::size_t outer_evaluations = 0;
  std::size_t inner_evaluations = 0;
};

/// Canonical fingerprint of the searched problem for checkpoint validation.
/// Covers everything that changes the evaluation/evolution stream (seed,
/// population size, IOE budgets, data/bank parameters, fault model) but NOT
/// outer_generations or execution knobs (thread count, cache sizes) — those
/// may differ between the interrupted and the resuming process.
std::string checkpoint_fingerprint(const supernet::SearchSpace& space,
                                   const HadasConfig& config);

/// Constrained-domination objectives (Deb's rule) used by the outer ranking:
/// feasible evaluations keep their real objective vector; latency-infeasible
/// ones collapse to a uniformly-worse vector ordered by violation.
/// max_latency_s <= 0 disables the constraint.
Objectives constrained_objectives(const StaticEval& eval, double max_latency_s);

/// The final (b*, x*, f*) Pareto set in (energy_gain, oracle_accuracy) over
/// every inner solution of `backbones` — the pure function run() finishes
/// with. Exposed so the dist layer can regenerate an island's final result
/// from its last checkpoint byte-identically after a crash.
std::vector<FinalSolution> final_pareto_of(
    const std::vector<BackboneOutcome>& backbones);

/// Seed material for continuing a search: genomes to inject into the first
/// generation plus backbones whose evaluations are already known (their
/// static evals are reused verbatim; backbones with ioe_ran keep their inner
/// Pareto sets and are not re-explored).
struct WarmStart {
  std::vector<supernet::Genome> population;
  std::vector<BackboneOutcome> known;
  /// Migrant genomes to splice into the population tail — but ONLY when the
  /// run resumes from a checkpoint whose next_generation equals
  /// `immigrants_at_generation`. The guard makes island migration replayable:
  /// a worker that crashes mid-round and resumes from a later (mid-round)
  /// checkpoint must not re-apply immigrants the population already absorbed.
  /// At least one native genome is always kept.
  std::vector<supernet::Genome> immigrants;
  std::size_t immigrants_at_generation = 0;
};

/// Build a warm start from a previously saved final Pareto set (e.g. loaded
/// via core::final_pareto_from_json): each distinct backbone becomes a known
/// outcome carrying its solutions, and seeds the initial population.
WarmStart warm_start_from_solutions(const supernet::SearchSpace& space,
                                    const std::vector<FinalSolution>& solutions);

/// Warm-seed pool for one IOE launch: elite inner solutions from every
/// backbone whose IOE already ran (elites change little between
/// generations), re-encoded into the target backbone's (X, F) genome space —
/// placement bits are translated by eligible-position index and DVFS indices
/// clamped to the device tables. Sources round-robin so no single inner
/// front monopolizes the pool. A pure function of the (checkpointed)
/// outcomes, so a resumed run rebuilds the identical pool.
std::vector<IntGenome> ioe_seed_pool(const std::vector<BackboneOutcome>& backbones,
                                     std::size_t target_num_eligible,
                                     const hw::DeviceSpec& device,
                                     std::size_t max_seeds);

class HadasEngine;

/// Export an engine's post-run statistics into the global metrics registry
/// as gauges: S(b) / cost-model memo counters ("exec.cache.*") and, when the
/// robust layer is on, its health report ("hw.health.*"). Called by the CLI
/// before writing a --metrics-out snapshot; pure observation, no effect on
/// engine state or results.
void export_search_metrics(const HadasEngine& engine,
                           const HadasResult& result);

/// The bi-level HADAS engine (Fig. 3): an outer NSGA-II loop over B with
/// early selection, per-elite inner engines over (X, F), combined ranking,
/// and evolutionary variation — plus the exit-bank training that the inner
/// engines amortize.
class HadasEngine {
 public:
  HadasEngine(const supernet::SearchSpace& space, hw::Target target,
              HadasConfig config);

  const HadasConfig& config() const { return config_; }
  const StaticEvaluator& static_evaluator() const { return static_eval_; }
  const data::SyntheticTask& task() const { return task_; }

  /// Full bi-level search.
  HadasResult run() { return run(WarmStart{}); }

  /// Bi-level search seeded from previous results; see WarmStart.
  HadasResult run(const WarmStart& warm);

  /// Run the IOE for one explicit backbone (used for the "optimized
  /// baselines" of Fig. 5/6, Table III, and the Fig. 7 ablation). The exit
  /// bank is trained once per backbone and cached across calls.
  IoeResult run_ioe(const supernet::BackboneConfig& config) const;

  /// Same, overriding the score regularization (Fig. 7 ablation).
  IoeResult run_ioe(const supernet::BackboneConfig& config,
                    const dynn::DynamicScoreConfig& score) const;

  /// Same, with a fully custom IOE configuration (budget/objective-set
  /// overrides for ablations). The NSGA seed is still mixed with the
  /// backbone hash for per-backbone determinism.
  IoeResult run_ioe_with(const supernet::BackboneConfig& config,
                         const IoeConfig& ioe_config) const;

  /// The trained exit bank of a backbone (trains and caches on first use).
  const dynn::ExitBank& exit_bank(const supernet::BackboneConfig& config) const;

  /// Evaluate one explicit (x, f | b) candidate against the backbone's
  /// trained exit bank (used by the stage-wise comparisons of Fig. 1 and
  /// Table III: e.g. re-measuring a searched placement at default DVFS).
  InnerSolution evaluate_dynamic(const supernet::BackboneConfig& config,
                                 const dynn::ExitPlacement& placement,
                                 hw::DvfsSetting setting) const;

  /// The per-position cost table of a backbone on this engine's device.
  const dynn::MultiExitCostTable& cost_table(
      const supernet::BackboneConfig& config) const;

  /// Resolved worker count of the parallel dispatcher (>= 1).
  std::size_t threads() const { return dispatcher_.threads(); }

  /// Counters of the S(b) memo table (hits appear on warm starts and on
  /// repeated run() calls against the same engine).
  exec::CacheStats static_cache_stats() const { return static_cache_.stats(); }

  /// Counters of the shared cost-model memo (hit whenever static eval,
  /// exit-bank training and cost-table construction reuse one analysis).
  exec::CacheStats cost_cache_stats() const {
    return static_eval_.cost_cache().stats();
  }

 private:
  struct BankEntry {
    std::unique_ptr<dynn::ExitBank> bank;
    std::unique_ptr<dynn::MultiExitCostTable> cost;
  };
  const BankEntry& bank_entry(const supernet::BackboneConfig& config) const;

  supernet::SearchSpace space_;
  HadasConfig config_;
  StaticEvaluator static_eval_;
  data::SyntheticTask task_;
  exec::ParallelDispatcher dispatcher_;
  /// S(b) memo across run() calls (warm starts); keyed by genome hash.
  mutable exec::EvalCache<StaticEval> static_cache_;
  /// Guards bank_cache_ lookup/insert; bank construction happens outside
  /// the lock so distinct backbones train their exit banks concurrently.
  mutable std::mutex bank_mutex_;
  mutable std::unordered_map<std::uint64_t, BankEntry> bank_cache_;
};

}  // namespace hadas::core
