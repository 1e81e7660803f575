// hadas — command-line front end to the library. `hadas help` prints the
// command table at the bottom of this file: every command and every flag
// it accepts. Every command is deterministic given its arguments.

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <string>

#include "cli.hpp"
#include "durable_formats.hpp"
#include "core/multi_device.hpp"
#include "core/sensitivity.hpp"
#include "core/serialize.hpp"
#include "data/sample_stream.hpp"
#include "dist/coordinator.hpp"
#include "dist/worker.hpp"
#include "exec/chaos.hpp"
#include "net/client.hpp"
#include "hw/fleet/registry.hpp"
#include "net/socket.hpp"
#include "runtime/serve/fleet_failover.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/deployment.hpp"
#include "runtime/serve/supervisor.hpp"
#include "supernet/baselines.hpp"
#include "util/durable/durable_file.hpp"
#include "util/strutil.hpp"
#include "util/table.hpp"

using namespace hadas;
using tools::Args;
using tools::Command;
using tools::Flag;
using tools::Flags;
using tools::ObsOutputs;
using tools::obs_setup;
using tools::obs_write;
using tools::search_problem;

namespace {

/// Cooperative-shutdown flag set by SIGINT/SIGTERM. Long-running commands
/// (search, worker, the dist coordinator) poll it at checkpoint boundaries,
/// persist their state and exit 0 — so an orchestrator's TERM is a clean
/// "pause", resumable with the same command line.
std::atomic<bool> g_cancel{false};

extern "C" void handle_cancel_signal(int) {
  g_cancel.store(true, std::memory_order_relaxed);
}

void install_cancel_handlers() {
  std::signal(SIGINT, handle_cancel_signal);
  std::signal(SIGTERM, handle_cancel_signal);
}

int cmd_devices(const Args&) {
  util::TextTable table({"name", "device", "core DVFS", "emc DVFS"},
                        {util::Align::kLeft, util::Align::kLeft,
                         util::Align::kRight, util::Align::kRight});
  std::map<std::string, hw::Target> by_key;
  for (const hw::Target target : hw::all_targets())
    by_key[hw::target_key(target)] = target;
  for (const auto& [key, target] : by_key) {
    const auto device = hw::make_device(target);
    table.add_row({key, device.name, std::to_string(device.core_freqs_hz.size()),
                   std::to_string(device.emc_freqs_hz.size())});
  }
  table.print(std::cout);
  return 0;
}

/// `hadas device examine|validate|reset`: xbutil-style fleet device
/// management. Devices are addressed by BDF (--device 0000:01:00.1) or
/// --device all (the default for examine/validate).
int cmd_device(const Args& args) {
  if (args.positional().empty()) throw std::invalid_argument(args.usage());
  const std::string action = args.positional().front();
  if (action != "examine" && action != "validate" && action != "reset")
    throw std::invalid_argument("unknown device action '" + action +
                                "' (expected examine, validate or reset)\n" +
                                args.usage());

  hw::fleet::FleetRegistry registry = tools::provision_fleet(args).registry;
  const std::string selector = args.get_or("device", std::string("all"));
  std::vector<hw::fleet::Bdf> selected;
  if (selector == "all") {
    selected = registry.members();
  } else {
    const hw::fleet::Bdf bdf = hw::fleet::parse_bdf("--device", selector);
    if (!registry.contains(bdf))
      throw std::invalid_argument(
          "no device at " + bdf.str() + " (the fleet has " +
          std::to_string(registry.size()) +
          " devices; `hadas device examine` lists them)");
    selected.push_back(bdf);
  }

  if (action == "examine") {
    if (selected.size() == 1) {
      const hw::fleet::DeviceInfo info = registry.examine(selected.front());
      util::TextTable table({"field", "value"},
                            {util::Align::kLeft, util::Align::kLeft});
      table.set_title("device " + info.bdf.str());
      table.add_row({"device", std::string(hw::target_key(info.target)) +
                                   " (" + hw::target_name(info.target) + ")"});
      table.add_row({"group", std::to_string(info.group)});
      table.add_row({"lifecycle", hw::fleet::lifecycle_name(info.state)});
      table.add_row({"breaker", hw::breaker_state_name(info.breaker)});
      table.add_row({"temperature", util::fmt_fixed(info.temperature_c, 1) + " C"});
      table.add_row({"transitions", std::to_string(info.transitions)});
      table.add_row({"last transition round",
                     std::to_string(info.last_transition_round)});
      table.add_row({"thermal trips", std::to_string(info.thermal_trips)});
      table.add_row({"resets", std::to_string(info.resets)});
      table.add_row({"measurements / failures",
                     std::to_string(info.health.measurements) + " / " +
                         std::to_string(info.health.failed_measurements)});
      table.print(std::cout);
    } else {
      util::TextTable table(
          {"bdf", "device", "lifecycle", "breaker", "temp C", "transitions"},
          {util::Align::kLeft, util::Align::kLeft, util::Align::kLeft,
           util::Align::kLeft, util::Align::kRight, util::Align::kRight});
      table.set_title("fleet: " + std::to_string(registry.size()) +
                      " devices, " +
                      std::to_string(registry.serviceable_count()) +
                      " serviceable (round " + std::to_string(registry.round()) +
                      ")");
      for (const auto& bdf : selected) {
        const hw::fleet::DeviceInfo info = registry.examine(bdf);
        table.add_row({info.bdf.str(), hw::target_key(info.target),
                       hw::fleet::lifecycle_name(info.state),
                       hw::breaker_state_name(info.breaker),
                       util::fmt_fixed(info.temperature_c, 1),
                       std::to_string(info.transitions)});
      }
      table.print(std::cout);
      std::cout << "state tally: " << tools::state_tally(registry) << "\n";
    }
    return 0;
  }

  if (action == "validate") {
    std::size_t failed = 0;
    for (const auto& bdf : selected) {
      const hw::fleet::ValidationReport report = registry.validate(bdf);
      util::TextTable table({"check", "result", "note"},
                            {util::Align::kLeft, util::Align::kLeft,
                             util::Align::kLeft});
      table.set_title("validation of " + bdf.str());
      for (const auto& check : report.checks)
        table.add_row({check.name, check.passed ? "pass" : "FAIL", check.note});
      table.print(std::cout);
      if (!report.passed()) ++failed;
    }
    if (failed > 0) {
      std::cout << failed << " of " << selected.size()
                << " device(s) FAILED validation\n";
      return 1;
    }
    std::cout << "all " << selected.size() << " device(s) passed validation\n";
    return 0;
  }

  // reset
  for (const auto& bdf : selected) {
    const hw::fleet::Lifecycle before = registry.examine(bdf).state;
    registry.reset_device(bdf);
    std::cout << bdf.str() << ": " << hw::fleet::lifecycle_name(before)
              << " -> " << hw::fleet::lifecycle_name(registry.examine(bdf).state)
              << " (fresh breaker, ambient temperature)\n";
  }
  if (const auto state = args.get("fleet-state")) {
    registry.save(*state);
    std::cout << "fleet state -> " << *state << "\n";
  }
  return 0;
}

int cmd_baselines(const Args& args) {
  const core::SearchProblem problem = search_problem(args);
  const hw::Target target = problem.target();
  const core::StaticEvaluator evaluator(problem.search_space(), target);
  util::TextTable table({"model", "accuracy", "latency ms", "energy mJ", "MMACs"},
                        {util::Align::kLeft, util::Align::kRight,
                         util::Align::kRight, util::Align::kRight,
                         util::Align::kRight});
  table.set_title("AttentiveNAS baselines on " + hw::target_name(target));
  for (const auto& baseline : supernet::attentive_nas_baselines()) {
    const core::StaticEval eval = evaluator.evaluate(baseline.config);
    const auto cost = evaluator.cost_model().analyze(baseline.config);
    table.add_row({baseline.name, util::fmt_pct(eval.accuracy, 2),
                   util::fmt_fixed(eval.latency_s * 1e3, 2),
                   util::fmt_fixed(eval.energy_j * 1e3, 2),
                   util::fmt_fixed(cost.total_macs / 1e6, 0)});
  }
  table.print(std::cout);
  return 0;
}

/// `hadas search --dist K`: island-model distributed search. The outer
/// population is partitioned into K islands evolved by `hadas worker
/// --connect` processes (forked locally, or dialing in to --listen), with
/// ring migration every --migrate-every generations; the coordinator
/// supervises (heartbeats, restarts, quarantine) and merges the island
/// fronts.
int run_dist_search(const Args& args, const core::SearchProblem& problem,
                    std::size_t islands) {
  if (args.get("checkpoint") || args.get("checkpoint-every"))
    throw std::invalid_argument(
        "--checkpoint/--checkpoint-every cannot be combined with --dist: the "
        "--dist-workdir owns every island's checkpoint chain");
  if (const auto resume = args.get("resume"); resume && *resume != "auto")
    throw std::invalid_argument(
        "--dist resumes from its workdir; only '--resume auto' is accepted");

  dist::DistSpec spec;
  static_cast<core::SearchProblem&>(spec) = problem;
  spec.islands = islands;
  spec.migration_every = args.get_or("migrate-every", spec.migration_every);
  spec.migrants = args.get_or("migrants", spec.migrants);

  // --fleet N: scope each island to one fleet device group instead of the
  // spec-wide --device. Islands are assigned the serviceable groups
  // round-robin, so a 4-group fleet with 4 islands searches every hardware
  // model concurrently and the merge unions their fronts.
  if (const std::size_t fleet_devices = args.get_or("fleet", std::size_t{0});
      fleet_devices > 0) {
    const hw::fleet::FleetRegistry registry =
        tools::provision_fleet(args).registry;
    std::vector<std::size_t> groups;
    for (std::size_t g = 0; g < registry.group_count(); ++g)
      if (registry.group_serviceable(g) > 0) groups.push_back(g);
    if (groups.empty())
      throw std::invalid_argument(
          "--fleet registry has no serviceable device to scope islands to");
    spec.island_devices.reserve(spec.islands);
    for (std::size_t i = 0; i < spec.islands; ++i)
      spec.island_devices.push_back(
          hw::target_key(registry.group_target(groups[i % groups.size()])));
    std::cout << "fleet-scoped islands (" << fleet_devices << " devices, "
              << groups.size() << " group(s)):";
    for (std::size_t i = 0; i < spec.islands; ++i)
      std::cout << " " << i << "=" << spec.island_devices[i];
    std::cout << "\n";
  } else if (args.get("fleet-seed")) {
    throw std::invalid_argument("--fleet-seed requires --fleet N");
  }

  const std::string workdir =
      args.get_or("dist-workdir", std::string("hadas_dist"));
  const std::string out_path =
      args.get_or("out", std::string("hadas_result.json"));
  const ObsOutputs obs_out = obs_setup(args);

  dist::DistOptions options;
  // --listen switches the transport to multi-host: workers dial in over TCP
  // instead of being forked locally. It implies --dist-mode net.
  const std::string mode = args.get_or(
      "dist-mode", args.get("listen") ? std::string("net") : std::string("spawn"));
  if (mode == "inline") {
    options.spawn = false;
  } else if (mode == "net") {
    if (!args.get("listen"))
      throw std::invalid_argument(
          "--dist-mode net needs --listen HOST:PORT (the endpoint remote "
          "workers dial)");
    options.listen = args.get_hostport("listen");
  } else if (mode != "spawn") {
    throw std::invalid_argument("unknown --dist-mode '" + mode +
                                "' (expected spawn, inline or net)");
  }
  if (args.get("listen") && mode != "net")
    throw std::invalid_argument(
        "--listen only makes sense with --dist-mode net (workers are " + mode +
        (mode == "inline" ? "d" : "ed") + " locally and need no endpoint)");
  options.heartbeat_ms = args.get_or("heartbeat-ms", options.heartbeat_ms);
  options.island_failure_threshold =
      args.get_or("island-retries", options.island_failure_threshold);
  // Spawned workers give up on a run without progress a bit after the
  // coordinator would declare them hung, never before.
  options.worker_wait_timeout_ms =
      std::max(options.worker_wait_timeout_ms, 4 * options.heartbeat_ms);
  if (const char* keep = std::getenv("HADAS_CHAOS_RESPAWN_KEEP"))
    options.chaos_respawn_keep = *keep != '\0';
  options.cancel = &g_cancel;
  install_cancel_handlers();

  std::cout << "distributed search: " << spec.islands << " island(s) x "
            << spec.outer_generations << " generations, migration every "
            << spec.migration_every << " (" << mode << " mode) in " << workdir
            << "\n";
  if (options.listen.has_value())
    // Flushed readiness banner: two-process drivers wait for this line
    // before dialing workers in (dials before the bind retry anyway).
    std::cout << "coordinator accepting workers on " << options.listen->host
              << ":" << options.listen->port << std::endl;
  dist::DistCoordinator coordinator(spec, workdir, options);
  const dist::DistReport report = coordinator.run();
  std::cout << "workers: " << report.workers_spawned << " spawned, "
            << report.workers_restarted << " restarted, "
            << report.workers_quarantined << " quarantined, "
            << report.heartbeat_misses << " heartbeat miss(es); "
            << report.migrants_exchanged << " migrants exchanged\n";
  if (report.interrupted) {
    std::cout << "interrupted: island state checkpointed in " << workdir
              << "; rerun the same command to continue\n";
    obs_write(obs_out);
    return 0;
  }
  core::save_json(out_path, report.merged);
  std::cout << "merged Pareto set: "
            << report.merged.at("final_pareto").as_array().size()
            << " designs -> " << out_path << "\n";
  obs_write(obs_out);
  return 0;
}

/// `hadas worker`: one island of a distributed search, dialing its
/// coordinator — which forked it (spawn mode) or listens for it on another
/// machine (--listen).
int cmd_worker(const Args& args) {
  const auto connect = args.get("connect");
  const auto island_arg = args.get("island");
  if (!connect || !island_arg) throw std::invalid_argument(args.usage());
  dist::NetWorkerConfig config;
  config.connect = args.get_hostport("connect");
  config.island = util::parse_size("--island", *island_arg);
  config.state_dir = args.get_or(
      "state-dir", "hadas_worker_island" + std::to_string(config.island));
  config.wait_timeout_ms =
      args.get_or("wait-timeout-ms", config.wait_timeout_ms);
  config.cancel = &g_cancel;
  install_cancel_handlers();
  std::cout << "net worker: island " << config.island << " -> "
            << config.connect.host << ":" << config.connect.port
            << ", state in " << config.state_dir << std::endl;
  dist::NetWorker worker(nullptr, config);
  const int code = worker.run();
  if (code == dist::kWorkerExitDone)
    std::cout << "island " << config.island << " complete ("
              << worker.reconnects() << " reconnect(s))\n";
  return code;
}

int cmd_search(const Args& args) {
  core::SearchProblem problem = search_problem(args);
  problem.faults = args.get_or("faults", problem.faults);
  problem.threads = args.get_or("threads", problem.threads);
  if (const std::size_t islands = args.get_or("dist", std::size_t{0});
      islands > 0)
    return run_dist_search(args, problem, islands);
  if (args.get("fleet") || args.get("fleet-seed"))
    throw std::invalid_argument(
        "--fleet scopes islands of a distributed search; it requires --dist K "
        "(for a fleet-wide joint search use `hadas portable --fleet N`)");
  const hw::Target target = problem.target();
  const std::string out_path = args.get_or("out", std::string("hadas_result.json"));

  core::HadasConfig config = problem.config();
  config.checkpoint_path = args.get_or("checkpoint", std::string());
  config.checkpoint_every =
      args.get_or("checkpoint-every", config.checkpoint_every);
  config.cancel = &g_cancel;
  install_cancel_handlers();
  const ObsOutputs obs_out = obs_setup(args);

  const supernet::SearchSpace space = problem.search_space();
  core::WarmStart warm;
  if (const auto resume = args.get("resume")) {
    if (*resume == "auto") {
      // Resume from the checkpoint chain (the engine does this whenever
      // --checkpoint is set); "auto" just asserts that intent instead of
      // naming a warm-start result file.
      if (config.checkpoint_path.empty())
        throw std::invalid_argument(
            "--resume auto needs --checkpoint F (the chain to resume from)");
    } else {
      const auto solutions =
          core::final_pareto_from_json(core::load_json(*resume));
      warm = core::warm_start_from_solutions(space, solutions);
      std::cout << "warm-starting from " << *resume << " ("
                << warm.known.size() << " known backbones)\n";
    }
  }

  std::cout << "searching on " << hw::target_name(target) << " ("
            << config.outer_population << "x" << config.outer_generations
            << " outer, " << config.ioe.nsga.population << "x"
            << config.ioe.nsga.generations << " inner)...\n";
  core::HadasEngine engine(space, target, config);
  const core::HadasResult result = engine.run(warm);

  if (!result.resumed_from_file.empty()) {
    std::cout << "resumed from " << result.resumed_from_file
              << " (generation " << result.resumed_from_generation << ")";
    if (result.corrupt_checkpoints_skipped > 0)
      std::cout << ", skipped " << result.corrupt_checkpoints_skipped
                << " corrupt snapshot(s)";
    std::cout << "\n";
  }
  if (result.interrupted) {
    std::cout << "interrupted at generation boundary";
    if (!config.checkpoint_path.empty())
      std::cout << "; checkpoint saved — rerun with --resume auto to continue";
    std::cout << "\n";
    core::export_search_metrics(engine, result);
    obs_write(obs_out);
    return 0;
  }
  core::save_json(out_path, core::result_to_json(result, target));
  if (engine.static_evaluator().robust().active()) {
    const hw::HealthReport& h = result.device_health;
    std::cout << "device health: breaker " << hw::breaker_state_name(h.state)
              << ", " << h.measurements << " measurements, " << h.retries
              << " retries, " << h.transient_failures << " transient failures, "
              << h.quarantined << " quarantined, " << h.failed_measurements
              << " hard failures, " << h.breaker_trips << " breaker trips\n";
  }
  std::cout << "explored " << result.backbones.size() << " backbones, "
            << result.inner_evaluations << " inner evaluations\n"
            << "final Pareto set: " << result.final_pareto.size()
            << " designs -> " << out_path << "\n";
  core::export_search_metrics(engine, result);
  obs_write(obs_out);
  return 0;
}

/// "r<resolution>/<layers>L", a backbone's name in result tables. Built by
/// appending: GCC 12 flags `"r" + std::string` with a false -Wrestrict.
std::string backbone_label(const supernet::BackboneConfig& backbone) {
  std::string label = "r";
  label += std::to_string(backbone.resolution);
  label += '/';
  label += std::to_string(backbone.total_layers());
  label += 'L';
  return label;
}

int cmd_show(const Args& args) {
  if (args.positional().empty()) throw std::invalid_argument(args.usage());
  const auto json = core::load_json(args.positional().front());
  const auto solutions = core::final_pareto_from_json(json);
  util::TextTable table({"#", "backbone", "exits", "core", "emc", "static acc",
                         "dyn acc", "E/sample mJ", "gain"},
                        {util::Align::kRight, util::Align::kLeft,
                         util::Align::kRight, util::Align::kRight,
                         util::Align::kRight, util::Align::kRight,
                         util::Align::kRight, util::Align::kRight,
                         util::Align::kRight});
  table.set_title("HADAS result: " + json.at("device").as_string() + " (" +
                  std::to_string(json.at("explored_backbones").as_index()) +
                  " backbones explored)");
  for (std::size_t i = 0; i < solutions.size(); ++i) {
    const auto& sol = solutions[i];
    table.add_row({std::to_string(i),
                   backbone_label(sol.backbone),
                   std::to_string(sol.placement.count()),
                   std::to_string(sol.setting.core_idx),
                   std::to_string(sol.setting.emc_idx),
                   util::fmt_pct(sol.static_eval.accuracy, 2),
                   util::fmt_pct(sol.dynamic.oracle_accuracy, 2),
                   util::fmt_fixed(sol.dynamic.energy_per_sample_j * 1e3, 2),
                   util::fmt_pct(sol.dynamic.energy_gain, 1)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_verify_checkpoint(const Args& args) {
  if (args.positional().empty()) throw std::invalid_argument(args.usage());
  const std::string path = args.positional().front();
  const auto info = util::durable::DurableFile::inspect(path);
  if (!info.exists) {
    std::cerr << path << ": no such file\n";
    return 1;
  }

  util::TextTable table({"field", "value"},
                        {util::Align::kLeft, util::Align::kLeft});
  table.set_title("durable envelope of " + path);
  if (info.legacy) {
    table.add_row({"envelope", "none (legacy pre-durable payload)"});
  } else {
    table.add_row({"header", info.header_ok ? "ok" : "MALFORMED"});
    table.add_row({"version", std::to_string(info.version)});
    table.add_row({"format tag", info.format_tag});
    table.add_row({"payload bytes declared / file size",
                   tools::counts(info.declared_bytes, info.file_bytes) +
                       (info.length_ok ? "" : "  (TRUNCATED)")});
    table.add_row({"CRC-64 declared", info.crc_declared});
    table.add_row({"CRC-64 actual",
                   info.crc_actual + (info.checksum_ok ? "" : "  (MISMATCH)")});
    table.add_row({"envelope", info.valid() ? "valid" : "CORRUPT"});
  }

  // Envelope aside, load the payload through its format's own loader.
  try {
    if (const tools::DurableFormat* format = tools::find_durable_format(info)) {
      const std::vector<tools::Row> rows = format->rows(path);
      table.add_row({"payload", format->label});
      for (const auto& [field, value] : rows) table.add_row({field, value});
    } else {
      table.add_row({"payload", std::string("unknown format tag (envelope ") +
                                    (info.valid() ? "valid" : "CORRUPT") +
                                    ", payload not triaged)"});
    }
    table.print(std::cout);
    return 0;
  } catch (const util::durable::CheckpointCorruptError& e) {
    table.add_row({"payload", std::string("CORRUPT (") +
                                  util::durable::corrupt_stage_name(e.stage()) +
                                  " at byte " +
                                  std::to_string(e.byte_offset()) + ")"});
    table.print(std::cout);
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

int cmd_deploy(const Args& args) {
  const core::SearchProblem problem = search_problem(args);
  const std::string policy_name = args.get_or("policy", std::string("entropy"));
  const tools::Design design = tools::select_design(args);
  const dynn::ExitPlacement& placement = *design.placement;
  const hw::DvfsSetting& setting = *design.setting;
  core::HadasEngine engine(problem.search_space(), problem.target(),
                           problem.config());

  std::cout << "training exit bank for the selected design...\n";
  const auto& bank = engine.exit_bank(design.backbone);
  const auto& costs = engine.cost_table(design.backbone);
  const runtime::DeploymentSimulator sim(bank, costs);
  const data::SampleStream stream = tools::sample_stream(args, engine.task());

  std::unique_ptr<runtime::ExitPolicy> policy;
  if (policy_name == "oracle") {
    policy = std::make_unique<runtime::OraclePolicy>();
  } else if (policy_name == "confidence") {
    policy = std::make_unique<runtime::ConfidencePolicy>(
        args.get_or("threshold", 0.6));
  } else if (policy_name == "entropy") {
    double threshold = args.get_or("threshold", -1.0);
    if (threshold < 0.0) {
      threshold = sim.calibrate_entropy_threshold(
          placement, setting, stream, bank.backbone_accuracy() - 0.02);
      std::cout << "calibrated entropy threshold: "
                << util::fmt_fixed(threshold, 3) << "\n";
    }
    policy = std::make_unique<runtime::EntropyPolicy>(threshold);
  } else {
    throw std::invalid_argument("unknown --policy '" + policy_name + "'");
  }

  const auto report = sim.run(placement, setting, *policy, stream);
  util::TextTable table({"metric", "value"},
                        {util::Align::kLeft, util::Align::kRight});
  table.set_title("deployment of design #" + std::to_string(design.index) +
                  " with " + policy->name() + " controller");
  table.add_row({"samples", std::to_string(report.samples)});
  table.add_row({"accuracy", util::fmt_pct(report.accuracy, 2)});
  table.add_row({"avg energy", util::fmt_fixed(report.avg_energy_j * 1e3, 2) + " mJ"});
  table.add_row({"avg latency", util::fmt_fixed(report.avg_latency_s * 1e3, 2) + " ms"});
  table.add_row({"energy gain vs static", util::fmt_pct(report.energy_gain, 1)});
  table.print(std::cout);
  return 0;
}

int cmd_serve(const Args& args) {
  const ObsOutputs obs_out = obs_setup(args);
  const tools::ServeStack stack(args);

  const runtime::serve::TrafficConfig traffic = tools::traffic(args);
  const auto trace = runtime::serve::poisson_trace(*stack.stream, traffic);

  std::cout << "replaying " << trace.size() << " requests at "
            << util::fmt_fixed(traffic.arrival_rate_hz, 0) << " req/s ("
            << (stack.supervisor->envelope_active()
                    ? "robustness envelope active"
                    : "pass-through")
            << ")...\n";
  const runtime::serve::ServeReport report = stack.supervisor->run(
      *stack.design.placement, stack.ladder_view(), trace);

  util::TextTable table({"metric", "value"},
                        {util::Align::kLeft, util::Align::kRight});
  table.set_title("serving report (" + stack.policy_name + " ladder)");
  table.add_row({"offered / admitted / shed",
                 std::to_string(report.offered) + " / " +
                     std::to_string(report.admitted) + " / " +
                     std::to_string(report.shed + report.shed_no_device)});
  table.add_row({"accuracy", util::fmt_pct(report.deployment.accuracy, 2)});
  std::string percentile_cell =
      util::fmt_fixed(report.p50_latency_s * 1e3, 2) + " / " +
      util::fmt_fixed(report.p95_latency_s * 1e3, 2) + " / " +
      util::fmt_fixed(report.p99_latency_s * 1e3, 2) + " ms";
  if (report.percentiles_low_confidence())
    percentile_cell += " (low confidence, n=" + std::to_string(report.completed) +
                       " < " + std::to_string(runtime::serve::ServeReport::kPercentileConfidenceMin) + ")";
  table.add_row({"p50 / p95 / p99 latency", percentile_cell});
  table.add_row({"deadline miss rate", util::fmt_pct(report.miss_rate, 2)});
  table.add_row({"watchdog fallbacks", std::to_string(report.watchdog_fallbacks)});
  table.add_row({"failovers / devices lost",
                 std::to_string(report.failovers) + " / " +
                     std::to_string(report.devices_lost)});
  table.add_row({"degraded entries", std::to_string(report.degraded_entries)});
  table.add_row({"final mode", runtime::serve::serve_mode_name(report.final_mode)});
  table.add_row({"makespan", util::fmt_fixed(report.makespan_s, 3) + " s"});
  table.add_row({"energy gain vs static",
                 util::fmt_pct(report.deployment.energy_gain, 1)});
  table.print(std::cout);

  if (const auto out = args.get("out")) {
    core::save_json(*out, report.to_json());
    std::cout << "serve report -> " << *out << "\n";
  }
  obs_write(obs_out);
  return 0;
}

int cmd_sensitivity(const Args& args) {
  const core::SearchProblem problem = search_problem(args);
  const hw::Target target = problem.target();
  const supernet::BackboneConfig backbone = tools::select_design(args).backbone;
  const core::StaticEvaluator evaluator(problem.search_space(), target);
  const auto report = core::analyze_sensitivity(evaluator, backbone);
  util::TextTable table({"gene", "choices", "max acc drop", "max energy saving",
                         "acc%/J of best save"},
                        {util::Align::kLeft, util::Align::kRight,
                         util::Align::kRight, util::Align::kRight,
                         util::Align::kRight});
  table.set_title("single-gene sensitivity of " + backbone.describe().substr(0, 44) +
                  "... on " + hw::target_name(target));
  for (const auto& gene : report) {
    if (gene.cardinality <= 1) continue;
    table.add_row({gene.name, std::to_string(gene.cardinality),
                   util::fmt_pct(gene.max_accuracy_drop, 2),
                   util::fmt_fixed(gene.max_energy_saving_j * 1e3, 2) + " mJ",
                   gene.max_energy_saving_j > 1e-9
                       ? util::fmt_fixed(gene.accuracy_per_joule * 100.0, 1)
                       : std::string("-")});
  }
  table.print(std::cout);
  return 0;
}

/// Fleet serve phase of `hadas portable`: deploy one searched design across
/// every serviceable fleet device, replay a Poisson trace through the
/// registry-wide failover plan, and fold the report's outcomes (dropouts,
/// breaker trips, final temperatures) back into device lifecycles.
int run_fleet_serve(const Args& args, core::MultiDeviceEngine& engine,
                    const core::MultiDeviceResult& result,
                    hw::fleet::FleetRegistry& registry,
                    const std::string& fleet_state_path) {
  if (result.pareto.empty())
    throw std::runtime_error("fleet serve: the search produced no designs");
  const std::size_t index = args.get_or("serve-index", std::size_t{0});
  const core::FleetDeployment deployment =
      engine.fleet_deployment(result, index);

  // Re-key the deployment (indexed by active_targets) by registry group id.
  std::vector<const dynn::MultiExitCostTable*> tables(registry.group_count(),
                                                      nullptr);
  std::vector<hw::DvfsSetting> settings(registry.group_count());
  std::size_t primary_group = 0;
  for (std::size_t i = 0; i < result.active_targets.size(); ++i)
    for (std::size_t g = 0; g < registry.group_count(); ++g)
      if (registry.group_target(g) == result.active_targets[i]) {
        tables[g] = deployment.tables[i].get();
        settings[g] = deployment.settings[i];
        if (i == 0) primary_group = g;
      }

  hw::FaultConfig fault_template;
  if (const auto faults = args.get("serve-faults"))
    fault_template = hw::parse_fault_config(*faults);
  const runtime::serve::FleetServePlan plan = runtime::serve::plan_fleet_lanes(
      registry, primary_group, tables, settings, fault_template);

  runtime::serve::ServeConfig serve_config;
  const runtime::serve::ServeSupervisor supervisor(*deployment.bank,
                                                   plan.lanes, serve_config);
  const auto ladder = runtime::serve::entropy_ladder(0.5, 0.15, 3);

  runtime::serve::TrafficConfig traffic;
  traffic.requests = args.get_or("serve-requests", std::size_t{400});
  traffic.arrival_rate_hz = args.get_or("serve-rate", 100.0);
  const data::SampleStream stream = tools::sample_stream(args, engine.task());
  const auto trace = runtime::serve::poisson_trace(stream, traffic);

  std::cout << "serving design #" << index << " across " << plan.lanes.size()
            << " fleet lane(s) (" << trace.size() << " requests)...\n";
  const runtime::serve::ServeReport report = supervisor.run(
      deployment.placement, runtime::serve::ladder_view(ladder), trace);
  const std::size_t transitions =
      runtime::serve::apply_serve_report(registry, plan, report);
  std::cout << "served " << report.admitted << "/" << report.offered
            << " requests; " << report.failovers << " failover(s), "
            << report.devices_lost << " device(s) lost, " << transitions
            << " fleet lifecycle transition(s) applied\n";
  if (!fleet_state_path.empty()) {
    registry.save(fleet_state_path);
    std::cout << "fleet state -> " << fleet_state_path << "\n";
  }
  if (const auto out = args.get("serve-out")) {
    core::save_json(*out, report.to_json());
    std::cout << "serve report -> " << *out << "\n";
  }
  return 0;
}

int cmd_portable(const Args& args) {
  core::MultiDeviceConfig config;
  config.outer_population = args.get_or("pop", std::size_t{16});
  config.outer_generations = args.get_or("gens", std::size_t{5});
  config.inner_backbones = args.get_or("backbones", std::size_t{2});
  config.inner_nsga.population = args.get_or("ioe-pop", std::size_t{24});
  config.inner_nsga.generations = args.get_or("ioe-gens", std::size_t{14});
  config.data.train_size = args.get_or("train-size", std::size_t{1500});
  config.bank.train.epochs = args.get_or("epochs", std::size_t{8});
  config.seed = args.get_or("seed", std::size_t{4242});
  config.exec.threads = args.get_or("threads", config.exec.threads);
  const ObsOutputs obs_out = obs_setup(args);

  // Fleet mode: search over a BDF-addressed device registry (one
  // measurement context per device group) under the rolling chaos schedule,
  // instead of the fixed four-target list.
  std::optional<hw::fleet::FleetRegistry> fleet;
  const std::string fleet_state = args.get_or("fleet-state", std::string());
  if (args.get("fleet") || !fleet_state.empty()) {
    tools::Fleet provisioned = tools::provision_fleet(args);
    fleet.emplace(std::move(provisioned.registry));
    if (provisioned.resumed)
      std::cout << "resumed fleet state from " << fleet_state << " (round "
                << fleet->round() << ")\n";
    config.fleet = &*fleet;
    config.fleet_state_path = fleet_state;
    std::cout << "fleet: " << fleet->size() << " devices, "
              << fleet->serviceable_count() << " serviceable";
    if (fleet->config().chaos.active())
      std::cout << " (rolling chaos: " << fleet->config().chaos.kill_per_round
                << " kill / " << fleet->config().chaos.recover_per_round
                << " recover / " << fleet->config().chaos.degrade_per_round
                << " degrade per round, " << fleet->config().chaos.rounds
                << " rounds)";
    std::cout << "\n";
  } else {
    for (const char* flag : {"fleet-seed", "kill-per-round", "recover-per-round",
                             "degrade-per-round", "chaos-rounds", "chaos-seed",
                             "serve-requests", "serve-rate", "serve-faults",
                             "serve-index", "serve-out"})
      if (args.get(flag))
        throw std::invalid_argument("--" + std::string(flag) +
                                    " requires fleet mode (--fleet N or "
                                    "--fleet-state F)");
  }

  std::cout << "cross-device joint search (one backbone+exits, per-device"
               " DVFS)...\n";
  const supernet::SearchSpace space = search_problem(args).search_space();
  core::MultiDeviceEngine engine(space, config);
  const core::MultiDeviceResult result = engine.run();

  util::TextTable table({"#", "backbone", "exits", "dyn acc", "worst gain",
                         "mean gain"},
                        {util::Align::kRight, util::Align::kLeft,
                         util::Align::kRight, util::Align::kRight,
                         util::Align::kRight, util::Align::kRight});
  table.set_title("portable Pareto designs (worst-device gain x accuracy)");
  for (std::size_t i = 0; i < result.pareto.size(); ++i) {
    const auto& sol = result.pareto[i];
    table.add_row({std::to_string(i),
                   backbone_label(sol.backbone),
                   std::to_string(sol.placement.count()),
                   util::fmt_pct(sol.oracle_accuracy, 2),
                   util::fmt_pct(sol.worst_gain, 1),
                   util::fmt_pct(sol.mean_gain, 1)});
  }
  table.print(std::cout);
  if (fleet)
    std::cout << "fleet after search: " << fleet->serviceable_count() << "/"
              << fleet->size() << " serviceable, " << result.fleet_rounds
              << " chaos round(s), " << result.fleet_restarts
              << " membership restart(s)\n";
  if (const auto out = args.get("out")) {
    core::save_json(*out, core::multi_device_result_to_json(result));
    std::cout << "result -> " << *out << "\n";
  }

  int code = 0;
  if (args.get("serve-requests") || args.get("serve-out"))
    code = run_fleet_serve(args, engine, result, *fleet, fleet_state);
  obs_write(obs_out);
  return code;
}

int cmd_metrics_dump(const Args& args) {
  if (args.positional().empty()) throw std::invalid_argument(args.usage());
  const std::string path = args.positional().front();
  const util::Json snapshot = core::load_json(path);
  const std::string format = args.get_or("format", std::string("table"));

  if (format == "prom") {
    std::cout << obs::MetricsRegistry::prometheus_from_json(snapshot);
    return 0;
  }
  if (format != "table")
    throw std::invalid_argument("unknown --format '" + format +
                                "' (expected table or prom)");

  util::TextTable table({"metric", "kind", "value"},
                        {util::Align::kLeft, util::Align::kLeft,
                         util::Align::kRight});
  table.set_title("metrics snapshot: " + path);
  if (snapshot.contains("counters"))
    for (const auto& [name, value] : snapshot.at("counters").as_object())
      table.add_row({name, "counter", std::to_string(value.as_index())});
  if (snapshot.contains("gauges"))
    for (const auto& [name, value] : snapshot.at("gauges").as_object())
      table.add_row({name, "gauge", util::fmt_fixed(value.as_number(), 4)});
  if (snapshot.contains("histograms"))
    for (const auto& [name, hist] : snapshot.at("histograms").as_object())
      table.add_row({name, "histogram",
                     std::to_string(hist.at("count").as_index()) + " obs, sum " +
                         util::fmt_fixed(hist.at("sum").as_number(), 4)});
  table.print(std::cout);
  return 0;
}

int cmd_client(const Args& args) {
  net::ClientConfig config;
  config.connect = args.get_hostport("connect");
  config.session_id = args.get_or("session", std::string("default"));
  config.state_path = args.get_or(
      "state", "hadas_client_" + config.session_id + ".json");
  config.traffic = tools::traffic(args);
  config.batch = args.get_or("batch", config.batch);
  if (config.batch == 0 || config.batch > net::kMaxRequestBatch)
    throw std::invalid_argument(
        "invalid value '" + std::to_string(config.batch) +
        "' for --batch (a request batch must fit one wire frame: 1.." +
        std::to_string(net::kMaxRequestBatch) + ")");
  config.max_connect_attempts =
      args.get_or("retries", config.max_connect_attempts);
  config.reconnect_backoff_ms = static_cast<int>(args.get_or(
      "backoff-ms", std::size_t(config.reconnect_backoff_ms)));

  net::TcpSocketHandler handler;
  net::ServeClient client(handler, config);
  std::cout << "session '" << config.session_id << "' -> "
            << config.connect.host << ":" << config.connect.port
            << " (" << config.traffic.requests << " requests at "
            << util::fmt_fixed(config.traffic.arrival_rate_hz, 0)
            << " req/s)\n";
  client.run();
  std::cout << "done (" << client.reconnects() << " reconnects); server "
            << client.server_fingerprint() << "\n";

  if (const auto out = args.get("out"))
    tools::save_report(*out, client.report());
  else
    std::cout << client.report();
  return 0;
}

/// The command table: `hadas help`, flag validation and dispatch all read it.
const std::vector<Command>& commands() {
  using tools::join;
  static const Flags budget = join(
      {{{"pop", "N", "outer population"},
        {"gens", "N", "outer generations"},
        {"ioe-pop", "N", "inner (exit + DVFS) population"},
        {"ioe-gens", "N", "inner generations"},
        {"seed", "S", "search seed"},
        tools::kThreadsFlag},
       tools::kBankFlags});
  static const Flags fleet = {
      {"fleet", "N", "devices of a freshly provisioned simulated fleet"},
      {"fleet-seed", "S", "provisioning seed of that fleet"}};
  static const Flag fleet_state = {
      "fleet-state", "F", "durable fleet state, resumed when the file exists"};
  static const std::vector<Command> table = {
      {"devices", "", "list the hardware targets and their --device keys", {},
       cmd_devices},
      {"device", "examine|validate|reset",
       "manage simulated fleet devices by BDF, xbutil-style",
       join({{{"device", "BDF|all", "one device, or every one (default)"}},
             fleet, {fleet_state}}),
       cmd_device},
      {"baselines", "", "evaluate AttentiveNAS a0..a6 on a device",
       {tools::kDeviceFlag}, cmd_baselines},
      {"search", "", "run a bi-level backbone, exit and DVFS search",
       join({{tools::kDeviceFlag,
              {"out", "F", "write the result JSON"},
              {"ioe-per-gen", "N", "backbones per generation given an IOE"},
              {"max-latency-ms", "T", "static latency budget (0 = none)"},
              {"resume", "F|auto", "warm-start from a result, or resume"},
              {"checkpoint", "F", "write a resumable checkpoint chain"},
              {"checkpoint-every", "N", "generations between checkpoints"},
              {"checkpoint-keep", "K", "checkpoint snapshots kept"},
              {"faults", "CFG", "inject faults, e.g. rate=0.05,nan=0.01"},
              {"dist", "K", "island-model search over K islands"},
              {"dist-workdir", "DIR", "durable state of a --dist run"},
              {"dist-mode", "spawn|inline|net", "where the islands run"},
              {"listen", "HOST:PORT", "accept remote workers (net mode)"},
              {"migrate-every", "N", "generations between ring migrations"},
              {"migrants", "M", "genomes each island sends per migration"},
              {"heartbeat-ms", "T", "worker silence deadline"},
              {"island-retries", "N", "island failures before quarantine"}},
             budget, fleet, tools::kObsFlags}),
       cmd_search},
      {"worker", "--connect HOST:PORT --island I",
       "run one island of a --dist search (forked, or dialing --listen)",
       {{"connect", "HOST:PORT", "coordinator endpoint"},
        {"island", "I", "island index"},
        {"state-dir", "DIR", "durable state of this island"},
        {"wait-timeout-ms", "T", "give up after this long without progress"}},
       cmd_worker},
      {"show", "<result.json>", "print a saved search result", {}, cmd_show},
      {"verify-checkpoint", "<file>",
       "check a durable state file's envelope and load its payload", {},
       cmd_verify_checkpoint},
      {"metrics-dump", "<metrics.json>", "print a --metrics-out snapshot",
       {{"format", "table|prom", "a table (default) or Prometheus text"}},
       cmd_metrics_dump},
      {"deploy", "", "simulate a saved design under a runtime exit policy",
       join({{tools::kDeviceFlag}, tools::kResultFlags, tools::kPolicyFlags,
             tools::kBankFlags, {tools::kStreamSeedFlag}}),
       cmd_deploy},
      {"sensitivity", "", "single-gene sensitivity of a design's backbone",
       join({{tools::kDeviceFlag, tools::kBaselineFlag}, tools::kResultFlags,
             {tools::kSpaceFlag}}),
       cmd_sensitivity},
      {"serve", "", "replay a traffic trace through a design",
       join({tools::kServeStackFlags, tools::kTrafficFlags,
             {{"out", "F", "write the serve report JSON"},
              {"journal", "F", "periodic durable snapshot, resumed on rerun"},
              {"journal-every", "N", "requests between journal snapshots"},
              {"journal-keep", "K", "journal snapshots kept"}},
             tools::kObsFlags}),
       cmd_serve},
      {"portable", "",
       "cross-device joint search: one backbone and exits, DVFS per device",
       join({budget,
             {{"backbones", "N", "backbones per generation given an IOE"},
              {"out", "F", "write the result JSON"}},
             fleet,
             {fleet_state,
              {"kill-per-round", "K", "chaos: devices killed per round"},
              {"recover-per-round", "R", "chaos: devices recovered per round"},
              {"degrade-per-round", "D", "chaos: devices heated per round"},
              {"chaos-rounds", "N", "chaos: rounds in the schedule"},
              {"chaos-seed", "S", "chaos: schedule seed"},
              {"serve-requests", "N", "then serve a design fleet-wide"},
              {"serve-rate", "HZ", "mean arrival rate of that trace"},
              {"serve-faults", "CFG", "faults injected into every lane"},
              {"serve-index", "I", "design index to serve"},
              {"serve-out", "F", "write that serve report JSON"},
              tools::kStreamSeedFlag},
             tools::kObsFlags}),
       cmd_portable},
      {"client", "--connect HOST:PORT",
       "stream a trace to a hadasd daemon over a resumable session",
       join({{{"connect", "HOST:PORT", "daemon endpoint"},
              {"session", "ID", "resumable session identity"},
              {"state", "F", "durable client journal"},
              {"out", "F", "write the returned serve report"},
              {"batch", "N", "requests per wire frame"},
              {"retries", "N", "connection attempts"},
              {"backoff-ms", "T", "delay between reconnects"}},
             tools::kTrafficFlags}),
       cmd_client},
  };
  return table;
}

void print_usage() {
  std::cout << "usage: hadas <command> [options]; every --flag takes one "
               "value\n\ncommands:\n";
  for (const Command& command : commands())
    tools::print_command(std::cout, command);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 2;
  }
  const std::string name = argv[1];
  try {
    // Deterministic fault-injection schedule for crash-recovery testing;
    // no-op unless HADAS_CHAOS is set (see src/exec/chaos.hpp).
    exec::ChaosEngine::install_from_env();
    if (name == "help" || name == "--help") {
      print_usage();
      return 0;
    }
    for (const Command& command : commands())
      if (command.name == name)
        return command.run(Args(argc, argv, 2, "hadas " + name, command));
    std::cerr << "unknown command '" << name << "'\n";
    print_usage();
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
