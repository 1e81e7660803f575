// `search` workload: each op is one full bi-level HadasEngine::run() on
// tx2-gpu with its own seed, checkpointing every generation into its own
// directory. Exit-bank training (src/nn) dominates the op; it is the only
// workload that uses exec threads and checkpoint I/O.

#include <filesystem>
#include <iostream>
#include <unordered_set>

#include "bench.hpp"
#include "core/ioe.hpp"
#include "core/serialize.hpp"
#include "util/durable/durable_file.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using hadas::core::HadasConfig;
using hadas::core::HadasEngine;
using hadas::core::HadasResult;

// The fingerprint covers ops 0..kFingerprintOps-1; the traced run's
// per-op counts average the first kCountOps traced ops.
constexpr std::size_t kFingerprintOps = 2;
constexpr std::size_t kCountOps = 2;
// Set-up timing after each op, in seconds (about 3 % of an op).
constexpr double kSetupSliceS = 0.025;

std::size_t exec_threads() { return std::min<std::size_t>(nproc(), 4); }

HadasConfig search_config(std::uint64_t seed) {
  HadasConfig config;
  config.outer_population = 8;
  config.outer_generations = 3;
  config.ioe_backbones_per_generation = 2;
  config.ioe.nsga.population = 20;
  config.ioe.nsga.generations = 10;
  config.data.train_size = 400;
  config.bank.train.epochs = 2;
  config.exec.threads = exec_threads();
  config.seed = seed;
  return config;
}

/// FNV-1a over the final Pareto set and the static front, as
/// bench_parallel_scaling computes it.
std::uint64_t result_fingerprint(const HadasResult& result) {
  Fnv f;
  f.mix(result.final_pareto.size());
  for (const auto& sol : result.final_pareto) {
    for (std::uint8_t bit : sol.placement.mask()) f.mix(bit);
    f.mix(sol.setting.core_idx);
    f.mix(sol.setting.emc_idx);
    f.mix_double(sol.dynamic.score_eq5);
    f.mix_double(sol.dynamic.energy_gain);
    f.mix_double(sol.dynamic.oracle_accuracy);
    f.mix_double(sol.static_eval.latency_s);
    f.mix_double(sol.static_eval.energy_j);
  }
  for (std::size_t idx : result.static_front) f.mix(idx);
  return f.h;
}

/// The front must be non-empty, finite and mutually non-dominated in the
/// (energy_gain, oracle_accuracy) plane it is reported in.
bool front_ok(const HadasResult& result) {
  if (result.interrupted || result.final_pareto.empty()) return false;
  std::vector<std::vector<double>> points;
  for (const auto& sol : result.final_pareto) {
    if (!std::isfinite(sol.dynamic.score_eq5) ||
        !std::isfinite(sol.static_eval.latency_s) ||
        !std::isfinite(sol.static_eval.energy_j))
      return false;
    points.push_back({sol.dynamic.energy_gain, sol.dynamic.oracle_accuracy});
  }
  return mutually_non_dominated(points);
}

/// Per-op counts of one traced op.
struct OpCounts {
  double banks = 0, fits = 0, repeats = 0, outer_evals = 0, ioe_evals = 0;
  double history = 0, durable_writes = 0, durable_bytes = 0;
  double static_hit = 0, cost_hit = 0, generations = 0, checkpoint_kib = 0;
};

}  // namespace

RunResult run_search(const Options& options, Tracer& tracer) {
  const auto space = hadas::supernet::SearchSpace::attentive_nas();
  const auto target = hadas::hw::Target::kTx2PascalGpu;
  RunResult out;
  out.work_unit = "searches";

  // Set-up: everything before the first op can start, i.e. one engine. It
  // takes milliseconds, so it is timed many times: for 0.25 s before the
  // timed phase and for kSetupSliceS after every op. Those slices sit outside
  // the ops' latencies and are taken off the timed phase's wall time. The
  // median then covers the whole run, as the op metrics do, instead of the
  // host phase of one moment.
  auto time_setups = [&](double budget_s) {
    const auto begin = Clock::now();
    for (int rep = 0; rep < 3 || seconds_since(begin) < budget_s; ++rep) {
      const auto t0 = Clock::now();
      const HadasEngine engine(space, target, search_config(op_seed(options.seed, 0)));
      out.setup_s.push_back(seconds_since(t0));
    }
    return seconds_since(begin);
  };
  time_setups(0.25);

  std::vector<std::uint64_t> fingerprints;
  std::vector<OpCounts> counts;
  std::unordered_set<std::uint64_t> trained_before;
  std::vector<hadas::supernet::BackboneConfig> probe_backbones;
  // NSGA-II evaluates the initial population and one offspring population
  // per generation.
  const hadas::core::Nsga2Config paper_nsga = hadas::core::IoeConfig{}.nsga;
  const std::size_t paper_ioe_evals =
      paper_nsga.population * (paper_nsga.generations + 1);
  const std::size_t min_ops = options.trace ? 2 * kCountOps : kFingerprintOps;

  double setup_slices_s = 0.0;  // inside the timed phase
  const auto start = Clock::now();
  for (std::size_t op = 0; op < min_ops || seconds_since(start) < options.seconds;
       ++op) {
    if (op > 0) setup_slices_s += time_setups(kSetupSliceS);
    const bool traced = options.trace && op % 2 == 0;
    tracer.on = traced;
    const std::string dir = options.work_dir + "/search-op";
    fs::remove_all(dir);
    fs::create_directories(dir);
    HadasConfig config = search_config(op_seed(options.seed, op));
    config.checkpoint_path = dir + "/search.ckpt";
    config.checkpoint_every = 1;
    std::vector<double> generation_marks;
    config.on_generation = [&](std::size_t) {
      generation_marks.push_back(tracer.now());
    };

    ++out.attempted;
    const auto durable_before = hadas::util::durable::durable_stats();
    const double t_begin = tracer.now();
    const auto t0 = Clock::now();
    std::int64_t op_span = tracer.begin("search.op", static_cast<std::int64_t>(op));
    bool ok = false;
    HadasResult result;
    std::unique_ptr<HadasEngine> engine;
    try {
      engine = std::make_unique<HadasEngine>(space, target, config);
      result = engine->run();
      ok = front_ok(result);
    } catch (const std::exception& e) {
      std::cerr << "search op " << op << " failed: " << e.what() << "\n";
    }
    const double op_wall = seconds_since(t0);
    if (traced) {
      double prev = t_begin;
      for (double mark : generation_marks) {
        tracer.record("core.generation", static_cast<std::int64_t>(op), prev, mark,
                      op_span);
        prev = mark;
      }
    }
    tracer.end(op_span);
    const auto durable_after = hadas::util::durable::durable_stats();
    if (!ok) {
      ++out.failed;
      continue;
    }
    out.op_s.push_back(op_wall);
    out.op_done_s.push_back(seconds_since(start) - setup_slices_s);
    (traced ? out.traced_op_s : out.untraced_op_s).push_back(op_wall);
    if (op < kFingerprintOps) fingerprints.push_back(result_fingerprint(result));

    if (!traced) {
      if (options.trace)  // later traced ops count repeats against this op
        for (const auto& b : result.backbones)
          if (b.ioe_ran)
            trained_before.insert(hadas::supernet::genome_hash(
                hadas::supernet::encode(space, b.config)));
      continue;
    }
    // Post-op probes: outside the op's timing, on this op's own outputs.
    const auto sop = static_cast<std::int64_t>(op);
    OpCounts c;
    c.outer_evals = static_cast<double>(result.outer_evaluations);
    c.ioe_evals = static_cast<double>(result.inner_evaluations);
    c.generations = static_cast<double>(generation_marks.size());
    c.durable_writes =
        static_cast<double>(durable_after.writes - durable_before.writes);
    c.durable_bytes = static_cast<double>(durable_after.bytes_written -
                                          durable_before.bytes_written);
    c.static_hit = engine->static_cache_stats().hit_rate();
    c.cost_hit = engine->cost_cache_stats().hit_rate();
    const hadas::core::BackboneOutcome* sample = nullptr;
    for (const auto& b : result.backbones) {
      if (!b.ioe_ran) continue;
      // An engine trains each IOE'd backbone's bank once and caches it, so
      // this lookup returns the bank the op built without retraining.
      const auto& bank = engine->exit_bank(b.config);
      c.banks += 1;
      c.fits += static_cast<double>(bank.eligible_layers().size() + 1);
      c.history += static_cast<double>(b.inner_history.size());
      const std::uint64_t h =
          hadas::supernet::genome_hash(hadas::supernet::encode(space, b.config));
      if (!trained_before.insert(h).second) c.repeats += 1;
      if (sample == nullptr || b.inner_history.size() > sample->inner_history.size())
        sample = &b;
    }
    counts.push_back(c);
    if (sample != nullptr && probe_backbones.size() < 3)
      probe_backbones.push_back(sample->config);

    {
      const hadas::core::StaticEvaluator fresh(space, target);
      ScopedSpan span(tracer, "core.static_eval", sop, result.backbones.size());
      for (const auto& b : result.backbones) fresh.evaluate(b.config);
    }
    hadas::core::SearchCheckpoint checkpoint;
    {
      ScopedSpan span(tracer, "core.checkpoint_load", sop);
      checkpoint = hadas::core::load_checkpoint(config.checkpoint_path);
    }
    {
      ScopedSpan span(tracer, "core.checkpoint_save", sop);
      hadas::core::save_checkpoint(dir + "/probe.ckpt", checkpoint);
    }
    counts.back().checkpoint_kib =
        static_cast<double>(fs::file_size(config.checkpoint_path)) / 1024.0;
    if (sample != nullptr && !sample->inner_history.empty()) {
      const hadas::core::InnerEngine inner(engine->exit_bank(sample->config),
                                           engine->cost_table(sample->config),
                                           config.ioe);
      const auto& history = sample->inner_history;
      {
        ScopedSpan span(tracer, "core.dynamic_eval", sop, history.size());
        for (const auto& s : history) inner.evaluate(s.placement, s.setting);
      }
      std::vector<std::vector<double>> points;
      for (std::size_t i = 0;
           i < history.size() && i < 2 * config.ioe.nsga.population; ++i)
        points.push_back(history[i].objectives);
      sort_probe(tracer, sop, points);

      // One IOE at the paper's budget on the op's bank, which the engine
      // has cached: no src/nn work, so NSGA-II bookkeeping shows against
      // the evaluations (core.nsga_overhead_share).
      hadas::core::IoeConfig paper = config.ioe;
      paper.nsga.population = paper_nsga.population;
      paper.nsga.generations = paper_nsga.generations;
      paper.nsga.seed = op_seed(options.seed, op);
      hadas::core::IoeResult ioe;
      {
        ScopedSpan span(tracer, "core.ioe_run", sop);
        ioe = engine->run_ioe_with(sample->config, paper);
      }
      std::vector<std::vector<double>> front;
      for (const auto& sol : ioe.pareto) front.push_back(sol.objectives);
      if (ioe.evaluations != paper_ioe_evals || front.empty() ||
          !mutually_non_dominated(front))
        throw std::runtime_error("search: paper-budget IOE probe of op " +
                                 std::to_string(op) + " is wrong");
    }
  }
  out.timed_wall_s = seconds_since(start) - setup_slices_s;
  tracer.on = false;
  out.work_done = static_cast<double>(out.op_s.size());
  fs::remove_all(options.work_dir + "/search-op");

  Fnv f;
  for (std::uint64_t h : fingerprints) f.mix(h);
  out.fingerprint = f.h;
  out.fingerprint_ops = fingerprints.size();
  if (!options.trace) return out;

  tracer.on = true;
  kernel_probes(tracer, options.seed, out.layers);
  bank_probes(tracer, search_config(op_seed(options.seed, 0)), probe_backbones,
              out.layers);
  if (counts.size() < kCountOps)
    throw std::runtime_error("search: fewer traced ops than kCountOps");
  counts.resize(kCountOps);
  auto avg = [&](double OpCounts::* field) {
    double s = 0.0;
    for (const auto& c : counts) s += c.*field;
    return s / static_cast<double>(counts.size());
  };
  auto& L = out.layers;
  L["dynn.banks_per_op"] = avg(&OpCounts::banks);
  L["nn.fits_per_op"] = avg(&OpCounts::fits);
  L["dynn.bank_repeat_share"] =
      avg(&OpCounts::banks) > 0 ? avg(&OpCounts::repeats) / avg(&OpCounts::banks) : 0.0;
  L["core.outer_evals_per_op"] = avg(&OpCounts::outer_evals);
  L["core.ioe_evals_per_op"] = avg(&OpCounts::ioe_evals);
  L["core.ioe_distinct_share"] = avg(&OpCounts::history) / avg(&OpCounts::ioe_evals);
  L["util.durable.writes_per_op"] = avg(&OpCounts::durable_writes);
  L["util.durable.bytes_per_op"] = avg(&OpCounts::durable_bytes);
  L["exec.static_cache_hit_share"] = avg(&OpCounts::static_hit);
  L["exec.cost_cache_hit_share"] = avg(&OpCounts::cost_hit);
  L["core.checkpoint_kib"] = avg(&OpCounts::checkpoint_kib);
  L["core.generation_s"] = median(tracer.per_call("core.generation"));
  L["core.static_eval_us"] = 1e6 * median(tracer.per_call("core.static_eval"));
  L["core.checkpoint_load_ms"] = 1e3 * median(tracer.per_call("core.checkpoint_load"));
  L["core.checkpoint_save_ms"] = 1e3 * median(tracer.per_call("core.checkpoint_save"));
  L["core.dynamic_eval_us"] = 1e6 * median(tracer.per_call("core.dynamic_eval"));
  L["core.nd_sort_us"] = 1e6 * median(tracer.per_call("core.nd_sort"));
  L["core.crowding_us"] = 1e6 * median(tracer.per_call("core.crowding"));
  L["core.nsga_overhead_share"] =
      1.0 - static_cast<double>(paper_ioe_evals) * L["core.dynamic_eval_us"] *
                1e-6 / median(tracer.per_call("core.ioe_run"));

  // Serial layer time of one op, from the per-call layer times above.
  const double bank_s = L["dynn.banks_per_op"] * L["dynn.bank_build_s"];
  const double serial_s =
      bank_s + L["core.outer_evals_per_op"] * L["core.static_eval_us"] * 1e-6 +
      L["core.ioe_evals_per_op"] * L["core.dynamic_eval_us"] * 1e-6 +
      avg(&OpCounts::generations) * L["core.checkpoint_save_ms"] * 1e-3;
  L["exec.busy_share"] =
      serial_s / (static_cast<double>(exec_threads()) * median(out.traced_op_s));
  std::cout << "search: bank building is " << 100.0 * bank_s / serial_s
            << " % of the op's serial layer time (" << serial_s << " s at "
            << exec_threads() << " threads)\n";

  out.named = {"nn.matmul_nt_us", "nn.matmul_tn_us", "nn.gemm_gflops_computed",
               "nn.kd_loss_soft_us", "nn.nll_loss_us", "nn.fit_s",
               "nn.fits_per_op", "dynn.bank_build_s", "dynn.banks_per_op",
               "dynn.bank_repeat_share", "core.static_eval_us",
               "core.outer_evals_per_op", "core.generation_s",
               "core.checkpoint_save_ms", "core.checkpoint_load_ms",
               "core.checkpoint_kib", "exec.busy_share",
               "exec.static_cache_hit_share", "exec.cost_cache_hit_share",
               "core.ioe_evals_per_op", "core.ioe_distinct_share",
               "core.dynamic_eval_us", "core.nd_sort_us", "core.crowding_us",
               "core.nsga_overhead_share", "util.durable.writes_per_op", "util.durable.bytes_per_op",
               "net.frame_codec_us_per_mib"};
  return out;
}

}  // namespace perfbench
