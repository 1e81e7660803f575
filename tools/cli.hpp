// Shared CLI plumbing for `hadas` and `hadasd`: command-table types, shared
// flag groups, the flag parser, the readers that turn flags into library
// values, observability sinks, and the serve stack, built from one flag set
// so `hadas serve`, `hadasd` and a remote `hadas client` describe the same
// deterministic run and their reports byte-compare.

#pragma once

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/hadas_engine.hpp"
#include "core/serialize.hpp"
#include "data/sample_stream.hpp"
#include "hw/fleet/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/serve/supervisor.hpp"
#include "supernet/baselines.hpp"
#include "util/strutil.hpp"

namespace hadas::tools {

/// One `--name VALUE` flag of a command, with its one-line help.
struct Flag {
  std::string name;
  std::string value;
  std::string help;
};
using Flags = std::vector<Flag>;

inline Flags join(std::initializer_list<Flags> groups) {
  Flags all;
  for (const Flags& group : groups)
    all.insert(all.end(), group.begin(), group.end());
  return all;
}

class Args;

/// One entry of a binary's command table. Flag parsing validates against
/// `flags`, help is printed from them, and main dispatches to `run`.
struct Command {
  std::string name;
  std::string synopsis;  ///< positional arguments and required flags
  std::string summary;
  Flags flags;
  int (*run)(const Args&);
};

/// Prints a command's name, synopsis and summary, then its flags one a line.
inline void print_command(std::ostream& os, const Command& command) {
  os << "  " << command.name << (command.synopsis.empty() ? "" : " ")
     << command.synopsis << "\n      " << command.summary << "\n";
  for (const Flag& flag : command.flags) {
    std::string head = "      --" + flag.name + " " + flag.value;
    head.resize(std::max<std::size_t>(head.size() + 1, 32), ' ');
    os << head << flag.help << "\n";
  }
}

/// Minimal flag parser: --key value pairs after the subcommand, checked
/// against the command's flags so a typo'd --flag fails loudly instead of
/// being silently ignored.
class Args {
 public:
  Args(int argc, char** argv, int start, const std::string& who,
       const Command& command)
      : usage_("usage: " + who + " " + command.synopsis) {
    for (int i = start; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        positional_.push_back(key);
        continue;
      }
      key = key.substr(2);
      if (std::none_of(command.flags.begin(), command.flags.end(),
                       [&](const Flag& flag) { return flag.name == key; }))
        throw std::invalid_argument("unknown option --" + key + " for '" +
                                    who + "' (see: help)");
      if (i + 1 >= argc)
        throw std::invalid_argument("missing value for --" + key);
      values_[key] = argv[++i];
    }
  }

  std::optional<std::string> get(const std::string& key) const {
    const auto it = values_.find(key);
    return it == values_.end() ? std::nullopt
                               : std::optional<std::string>(it->second);
  }
  std::string get_or(const std::string& key, const std::string& fallback) const {
    return get(key).value_or(fallback);
  }
  std::size_t get_or(const std::string& key, std::size_t fallback) const {
    const auto v = get(key);
    return v ? util::parse_size("--" + key, *v) : fallback;
  }
  double get_or(const std::string& key, double fallback) const {
    const auto v = get(key);
    return v ? util::parse_double("--" + key, *v) : fallback;
  }
  /// Strict host:port flag (e.g. --listen, --connect); rejection messages
  /// name the flag.
  util::HostPort get_hostport(const std::string& key) const {
    const auto v = get(key);
    if (!v) throw std::invalid_argument("missing required --" + key);
    return util::parse_hostport("--" + key, *v);
  }
  const std::vector<std::string>& positional() const { return positional_; }
  /// "usage: <command> <synopsis>", for a handler's argument errors.
  const std::string& usage() const { return usage_; }

 private:
  std::string usage_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

// --- Flags several commands (and both binaries) share.

inline const Flag kDeviceFlag = {"device", "D",
                                 "hardware target key (see: hadas devices)"};
inline const Flag kSpaceFlag = {"space", "attentive|ofa", "search space"};
inline const Flag kThreadsFlag = {"threads", "N", "worker threads (0 = auto)"};
inline const Flag kStreamSeedFlag = {"stream-seed", "S",
                                     "seed of the evaluation sample stream"};
inline const Flag kBaselineFlag = {
    "baseline", "aN", "use AttentiveNAS baseline aN instead of --result"};
/// The design read from a saved search result (see select_design).
inline const Flags kResultFlags = {
    {"result", "F", "search result JSON to take the design from"},
    {"index", "I", "design index in --result"}};
/// The exit-bank training problem (see search_problem).
inline const Flags kBankFlags = {
    {"train-size", "N", "training samples of the exit bank"},
    {"epochs", "N", "training epochs of each exit head"},
    kSpaceFlag};
inline const Flags kPolicyFlags = {
    {"policy", "entropy|confidence|oracle", "runtime exit policy"},
    {"threshold", "T", "exit policy threshold"}};
inline const Flags kObsFlags = {
    {"metrics-out", "F", "write a metrics snapshot JSON"},
    {"trace-out", "F", "write a Chrome trace_event JSON"}};
/// The replayed request trace (see traffic).
inline const Flags kTrafficFlags = {
    {"requests", "N", "requests in the trace"},
    {"rate", "HZ", "mean Poisson arrival rate"},
    {"trace-seed", "S", "seed of the arrival process"}};
/// What ServeStack reads: `hadas serve` and `hadasd` take the same set, so
/// both ends of the wire can be launched with the same flags.
inline const Flags kServeStackFlags = join(
    {{kDeviceFlag, kBaselineFlag}, kResultFlags, kPolicyFlags,
     {{"queue", "CAP", "admission queue capacity (0 = unbounded)"},
      {"deadline-ms", "T", "per-request latency SLO (0 = none)"},
      {"watchdog", "FACTOR", "fall back when a request overruns FACTOR x"},
      {"degraded", "on|off", "degraded modes under overload"},
      {"thermal", "on|off", "simulate device heating"},
      {"faults", "CFG", "inject lane faults, e.g. rate=0.05,seed=7"},
      {"failover", "D2", "failover replica device key"},
      {"failover-faults", "CFG", "inject faults into the replica"}},
     kBankFlags, {kStreamSeedFlag, kThreadsFlag}});

// --- Readers: each turns one family of flags into a library value.

/// The search problem a command's flags name. --faults and --threads are
/// left to the caller: on serve they configure the lanes, not the search.
inline core::SearchProblem search_problem(const Args& args) {
  core::SearchProblem p;
  p.device = args.get_or("device", p.device);
  p.space = args.get_or("space", p.space);
  p.outer_population = args.get_or("pop", p.outer_population);
  p.outer_generations = args.get_or("gens", p.outer_generations);
  p.ioe_backbones_per_generation =
      args.get_or("ioe-per-gen", p.ioe_backbones_per_generation);
  p.ioe_population = args.get_or("ioe-pop", p.ioe_population);
  p.ioe_generations = args.get_or("ioe-gens", p.ioe_generations);
  p.seed = args.get_or("seed", std::size_t{p.seed});
  p.train_size = args.get_or("train-size", p.train_size);
  p.epochs = args.get_or("epochs", p.epochs);
  p.max_latency_s =
      args.get_or("max-latency-ms", p.max_latency_s * 1e3) * 1e-3;
  p.checkpoint_keep = args.get_or("checkpoint-keep", p.checkpoint_keep);
  return p;
}

/// The design a command serves or analyses: a named baseline backbone
/// (--baseline), or design --index of a saved search result (--result),
/// which also fixes its exits and DVFS setting.
struct Design {
  std::size_t index = 0;
  supernet::BackboneConfig backbone;
  std::optional<dynn::ExitPlacement> placement;
  std::optional<hw::DvfsSetting> setting;
};

inline Design select_design(const Args& args) {
  Design design;
  if (const auto name = args.get("baseline")) {
    for (const auto& baseline : supernet::attentive_nas_baselines())
      if (baseline.name == *name) {
        design.backbone = baseline.config;
        return design;
      }
    throw std::invalid_argument("unknown --baseline '" + *name + "'");
  }
  const auto solutions = core::final_pareto_from_json(core::load_json(
      args.get_or("result", std::string("hadas_result.json"))));
  design.index = args.get_or("index", design.index);
  if (design.index >= solutions.size())
    throw std::invalid_argument("--index out of range (have " +
                                std::to_string(solutions.size()) +
                                " designs)");
  const core::FinalSolution& sol = solutions[design.index];
  design.backbone = sol.backbone;
  design.placement = sol.placement;
  design.setting = sol.setting;
  return design;
}

/// The fleet a command runs on: resumed from --fleet-state when that file
/// exists (its config wins over the flags), else provisioned from
/// --fleet/--fleet-seed and the chaos flags, deterministically.
struct Fleet {
  hw::fleet::FleetRegistry registry;
  bool resumed;
};

inline Fleet provision_fleet(const Args& args) {
  if (const auto state = args.get("fleet-state"))
    if (std::ifstream(*state).good())
      return {hw::fleet::FleetRegistry::load(*state), true};
  hw::fleet::FleetConfig config;
  config.devices = args.get_or("fleet", config.devices);
  config.seed = args.get_or("fleet-seed", std::size_t{config.seed});
  hw::fleet::RollingChaosConfig& chaos = config.chaos;
  chaos.kill_per_round = args.get_or("kill-per-round", chaos.kill_per_round);
  chaos.recover_per_round =
      args.get_or("recover-per-round", chaos.recover_per_round);
  chaos.degrade_per_round =
      args.get_or("degrade-per-round", chaos.degrade_per_round);
  chaos.rounds = args.get_or("chaos-rounds", chaos.rounds);
  chaos.seed = args.get_or("chaos-seed", std::size_t{chaos.seed});
  return {hw::fleet::FleetRegistry(std::move(config)), false};
}

/// "<count> <lifecycle>" for each lifecycle state the fleet has a device in.
inline std::string state_tally(const hw::fleet::FleetRegistry& fleet) {
  std::string tally;
  for (const auto& [state, count] : fleet.tally())
    tally += (tally.empty() ? "" : ", ") + std::to_string(count) + " " +
             hw::fleet::lifecycle_name(state);
  return tally;
}

/// --stream-seed: seed of the 2000-sample evaluation stream a deployed
/// design replays (default 5). The fingerprint of a serve stack names it.
inline std::size_t stream_seed(const Args& args) {
  return args.get_or("stream-seed", std::size_t{5});
}

/// That evaluation stream over `task`'s test split.
inline data::SampleStream sample_stream(const Args& args,
                                        const data::SyntheticTask& task) {
  return data::SampleStream(task, 2000, stream_seed(args));
}

/// The request trace a serving front end replays.
inline runtime::serve::TrafficConfig traffic(const Args& args) {
  runtime::serve::TrafficConfig config;
  config.requests = args.get_or("requests", config.requests);
  config.arrival_rate_hz = args.get_or("rate", config.arrival_rate_hz);
  config.seed = args.get_or("trace-seed", std::size_t{config.seed});
  return config;
}

/// Writes a serve report received over the wire as its raw bytes (pretty
/// JSON + newline), so the file byte-compares against `hadas serve --out`.
inline void save_report(const std::string& path, const std::string& report) {
  std::ofstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("cannot open --out file '" + path + "'");
  file << report;
  std::cout << "serve report -> " << path << "\n";
}

/// Observability file sinks requested on the command line. Requesting
/// either output turns the obs master switch on (and the trace sink for
/// --trace-out); results themselves are unaffected — instrumentation is
/// strictly observe-only.
struct ObsOutputs {
  std::string metrics_path;
  std::string trace_path;
};

inline ObsOutputs obs_setup(const Args& args) {
  ObsOutputs out;
  out.metrics_path = args.get_or("metrics-out", std::string());
  out.trace_path = args.get_or("trace-out", std::string());
  if (!out.metrics_path.empty() || !out.trace_path.empty())
    obs::set_enabled(true);
  if (!out.trace_path.empty()) obs::TraceSink::global().enable();
  return out;
}

inline void obs_write(const ObsOutputs& out) {
  if (!out.metrics_path.empty()) {
    obs::write_metrics_file(out.metrics_path);
    std::cout << "metrics -> " << out.metrics_path << "\n";
  }
  if (!out.trace_path.empty()) {
    obs::TraceSink::global().save(out.trace_path);
    std::cout << "trace (" << obs::TraceSink::global().size() << " events) -> "
              << out.trace_path << "\n";
  }
}

/// Everything a serving front end needs, built once from kServeStackFlags:
/// the engine (which trains the exit bank), cost tables, placement + DVFS
/// setting, the policy ladder, serving lanes (with optional failover
/// replica), the sample stream, and the supervisor itself. The fingerprint
/// canonically describes the resolved stack; hadasd sends it in WELCOME so
/// a resuming client refuses a daemon whose configuration changed.
class ServeStack {
 public:
  explicit ServeStack(const Args& args) {
    const core::SearchProblem problem = search_problem(args);
    const hw::Target target = problem.target();
    policy_name = args.get_or("policy", std::string("entropy"));
    design = select_design(args);
    engine = std::make_unique<core::HadasEngine>(problem.search_space(),
                                                 target, problem.config());
    std::cout << "training exit bank for the served design...\n";
    bank = &engine->exit_bank(design.backbone);
    costs = &engine->cost_table(design.backbone);
    if (!design.placement) {
      // Canonical placement for baselines: exits at ~1/3 and ~2/3 depth.
      const std::size_t layers = bank->total_layers();
      const std::size_t early =
          std::max(dynn::ExitPlacement::kFirstEligible, layers / 3);
      const std::size_t late = std::max(early + 1, 2 * layers / 3);
      design.placement.emplace(layers, std::vector<std::size_t>{early, late});
    }
    if (!design.setting)
      design.setting = hw::default_setting(costs->evaluator().device());

    // Policy ladder: level 0 serves normal mode; entropy ladders shift the
    // threshold up per degraded level (cheaper exits).
    const double threshold = args.get_or("threshold", 0.5);
    if (policy_name == "oracle") {
      ladder.push_back(std::make_unique<runtime::OraclePolicy>());
    } else if (policy_name == "confidence") {
      ladder.push_back(std::make_unique<runtime::ConfidencePolicy>(threshold));
    } else if (policy_name == "entropy") {
      ladder = runtime::serve::entropy_ladder(threshold, 0.15, 3);
    } else {
      throw std::invalid_argument("unknown --policy '" + policy_name + "'");
    }

    // Serving lanes: the target device, plus an optional failover replica.
    runtime::serve::ServeLane primary{costs, *design.setting,
                                      hw::FaultConfig{}};
    if (const auto faults = args.get("faults"))
      primary.faults = hw::parse_fault_config(*faults);
    lanes.push_back(primary);
    if (const auto failover = args.get("failover")) {
      failover_eval.emplace(hw::make_device(hw::target_from_key(*failover)));
      failover_costs.emplace(costs->network(), *failover_eval);
      runtime::serve::ServeLane replica{
          &*failover_costs, hw::default_setting(failover_eval->device()),
          hw::FaultConfig{}};
      if (const auto faults = args.get("failover-faults"))
        replica.faults = hw::parse_fault_config(*faults);
      lanes.push_back(replica);
    }

    serve_config.admission.queue_capacity =
        args.get_or("queue", std::size_t{0});
    serve_config.slo.deadline_s = args.get_or("deadline-ms", 0.0) * 1e-3;
    serve_config.watchdog.overrun_factor = args.get_or("watchdog", 0.0);
    serve_config.degraded.enabled =
        args.get_or("degraded", std::string("off")) == "on";
    serve_config.thermal_enabled =
        args.get_or("thermal", std::string("off")) == "on";
    serve_config.journal.path = args.get_or("journal", std::string());
    serve_config.journal.every = args.get_or("journal-every", std::size_t{64});
    serve_config.journal.keep = args.get_or("journal-keep", std::size_t{3});
    serve_config.exec.threads =
        args.get_or("threads", serve_config.exec.threads);

    stream = std::make_unique<data::SampleStream>(
        sample_stream(args, engine->task()));
    supervisor = std::make_unique<runtime::serve::ServeSupervisor>(
        *bank, lanes, serve_config);

    // Canonical description of the resolved stack. Every knob that changes
    // the report is included, so equal fingerprints imply byte-equal runs.
    std::string exits;
    for (const std::size_t layer : design.placement->positions())
      exits += std::to_string(layer) + ".";
    fingerprint =
        "hadas-serve|dev=" + hw::target_name(target) +
        "|bb=" + design.backbone.describe() + "|exits=" + exits +
        "|dvfs=" + std::to_string(design.setting->core_idx) + ":" +
        std::to_string(design.setting->emc_idx) + "|policy=" + policy_name +
        ":" + util::fmt_fixed(threshold, 6) +
        "|queue=" + std::to_string(serve_config.admission.queue_capacity) +
        "|deadline=" + util::fmt_fixed(serve_config.slo.deadline_s, 6) +
        "|watchdog=" + util::fmt_fixed(serve_config.watchdog.overrun_factor, 3) +
        "|degraded=" + (serve_config.degraded.enabled ? "on" : "off") +
        "|thermal=" + (serve_config.thermal_enabled ? "on" : "off") +
        "|faults=" + args.get_or("faults", std::string()) +
        "|failover=" + args.get_or("failover", std::string()) + ":" +
        args.get_or("failover-faults", std::string()) +
        "|stream=" + std::to_string(stream->size()) + ":" +
        std::to_string(stream_seed(args)) +
        "|threads=" + std::to_string(serve_config.exec.threads);
  }

  std::vector<const runtime::ExitPolicy*> ladder_view() const {
    return runtime::serve::ladder_view(ladder);
  }

  std::string policy_name;
  Design design;  ///< placement and setting always set once built
  std::unique_ptr<core::HadasEngine> engine;
  const dynn::ExitBank* bank = nullptr;
  const dynn::MultiExitCostTable* costs = nullptr;
  std::vector<std::unique_ptr<runtime::ExitPolicy>> ladder;
  std::optional<hw::HardwareEvaluator> failover_eval;
  std::optional<dynn::MultiExitCostTable> failover_costs;
  std::vector<runtime::serve::ServeLane> lanes;
  runtime::serve::ServeConfig serve_config;
  std::unique_ptr<data::SampleStream> stream;
  std::unique_ptr<runtime::serve::ServeSupervisor> supervisor;
  std::string fingerprint;
};

}  // namespace hadas::tools
