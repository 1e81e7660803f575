// Overhead bench for the obs/ layer: the bench_parallel_scaling workload
// (fixed-seed HadasEngine::run) in kPairs interleaved pairs, each one run
// with observability fully off and one fully on (metrics switch + trace
// sink), so each pair shares its thermal / cache state. The overhead is
// the median of the per-pair on-vs-off deltas (budget: < 3%), which one
// slow run cannot move far. Also checks the fronts are bit-identical — the
// hard observe-only contract.
//
// Exit status reflects only the fingerprint check: wall-clock overhead on
// a noisy shared container is reported, not enforced (CI containers
// timeslice one core and a 3% delta is within run-to-run noise there).

#include <chrono>
#include <cstdint>
#include <iostream>
#include <vector>

#include "common.hpp"
#include "core/hadas_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"
#include "util/statistics.hpp"
#include "util/strutil.hpp"

namespace hadas {
namespace {

/// Same FNV-1a front fingerprint as bench_parallel_scaling: equal values
/// <=> bit-identical final Pareto sets.
std::uint64_t fingerprint(const core::HadasResult& result) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  auto mix_double = [&](double d) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    __builtin_memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  mix(result.final_pareto.size());
  for (const core::FinalSolution& sol : result.final_pareto) {
    for (std::uint8_t bit : sol.placement.mask()) mix(bit);
    mix(sol.setting.core_idx);
    mix(sol.setting.emc_idx);
    mix_double(sol.dynamic.score_eq5);
    mix_double(sol.dynamic.energy_gain);
    mix_double(sol.dynamic.oracle_accuracy);
    mix_double(sol.static_eval.latency_s);
    mix_double(sol.static_eval.energy_j);
  }
  for (std::size_t idx : result.static_front) mix(idx);
  return h;
}

core::HadasConfig workload_config() {
  core::HadasConfig config = bench::experiment_config();
  if (!bench::paper_budget()) {
    // The bench_parallel_scaling workload, so the overhead number is
    // directly comparable to that bench's serial row.
    config.outer_population = 12;
    config.outer_generations = 4;
    config.ioe_backbones_per_generation = 4;
    config.ioe.nsga.population = 20;
    config.ioe.nsga.generations = 10;
    config.data.train_size = 1000;
    config.bank.train.epochs = 6;
  }
  return config;
}

void set_obs(bool on) {
  obs::set_enabled(on);
  if (on) {
    obs::TraceSink::global().enable();
  } else {
    obs::TraceSink::global().disable();
  }
  obs::TraceSink::global().clear();
  obs::MetricsRegistry::global().reset();
}

struct RunSample {
  double seconds = 0.0;
  std::uint64_t front_fingerprint = 0;
};

RunSample timed_run(const supernet::SearchSpace& space,
                    const core::HadasConfig& config, bool obs_on) {
  using clock = std::chrono::steady_clock;
  set_obs(obs_on);
  core::HadasEngine engine(space, hw::Target::kTx2PascalGpu, config);
  const auto t0 = clock::now();
  const core::HadasResult result = engine.run();
  RunSample sample;
  sample.seconds = std::chrono::duration<double>(clock::now() - t0).count();
  sample.front_fingerprint = fingerprint(result);
  if (obs_on) core::export_search_metrics(engine, result);
  return sample;
}

}  // namespace
}  // namespace hadas

int main() {
  using namespace hadas;

  std::cout << "=== Observability overhead (obs/) ===\n\n";

  const supernet::SearchSpace space = supernet::SearchSpace::attentive_nas();
  const core::HadasConfig config = workload_config();

  constexpr int kPairs = 7;
  std::vector<double> off_seconds, on_seconds, deltas;
  // An untimed warm-up run (the first pays for cold caches) sets the front
  // every timed run must reproduce.
  const std::uint64_t reference =
      timed_run(space, config, false).front_fingerprint;
  bool all_identical = true;
  util::Json::Array runs;
  std::size_t events = 0;  // of the last on-pass
  std::uint64_t tasks = 0;

  std::cout << "pair  obs   seconds  identical\n";
  for (int pair = 0; pair < kPairs; ++pair) {
    // Odd pairs run on first, so a steady drift cancels across pairs.
    for (const bool on : {pair % 2 == 1, pair % 2 == 0}) {
      const RunSample sample = timed_run(space, config, on);
      const bool identical = sample.front_fingerprint == reference;
      all_identical = all_identical && identical;
      (on ? on_seconds : off_seconds).push_back(sample.seconds);
      if (on) {
        events = obs::TraceSink::global().size();
        tasks = obs::MetricsRegistry::global()
                    .counter("exec.tasks_total")
                    .value();
      }
      std::cout << pair << "     " << (on ? "on " : "off") << "   "
                << util::fmt_fixed(sample.seconds, 2) << "     "
                << (identical ? "yes" : "NO") << "\n";

      util::Json::Object run;
      run["pair"] = pair;
      run["obs_enabled"] = on;
      run["seconds"] = sample.seconds;
      run["identical_to_warmup"] = identical;
      runs.push_back(util::Json(std::move(run)));
    }
    deltas.push_back((on_seconds.back() - off_seconds.back()) /
                     off_seconds.back());
  }

  set_obs(false);

  const double overhead = util::median(deltas);
  std::cout << "\nmedian off " << util::fmt_fixed(util::median(off_seconds), 2)
            << " s, median on " << util::fmt_fixed(util::median(on_seconds), 2)
            << " s -> overhead " << util::fmt_pct(overhead, 2)
            << " (median of " << kPairs << " per-pair deltas; budget 3%)\n";
  std::cout << "instrumentation live on the last on-pass: " << tasks
            << " pool tasks counted, " << events << " trace events\n";
  std::cout << "determinism: "
            << (all_identical ? "fronts bit-identical with obs on and off"
                              : "FRONT MISMATCH — obs is not observe-only")
            << "\n";

  util::Json::Object doc;
  doc["bench"] = "observability";
  doc["pairs"] = kPairs;
  doc["median_off_seconds"] = util::median(off_seconds);
  doc["median_on_seconds"] = util::median(on_seconds);
  doc["overhead_fraction"] = overhead;
  doc["overhead_budget_fraction"] = 0.03;
  doc["within_budget"] = overhead < 0.03;
  doc["all_identical"] = all_identical;
  doc["trace_events"] = events;
  doc["pool_tasks_counted"] = tasks;
  doc["runs"] = util::Json(std::move(runs));

  const std::string path = bench::out_dir() + "/observability.json";
  bench::write_result_json(path, util::Json(std::move(doc)));
  std::cout << "\nwrote " << path << "\n";

  return all_identical ? 0 : 1;
}
