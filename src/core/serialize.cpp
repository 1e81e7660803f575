#include "core/serialize.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "util/durable/document.hpp"
#include "util/strutil.hpp"

namespace hadas::core {

using hadas::util::Json;
using hadas::util::durable::CheckpointChain;
using hadas::util::durable::CheckpointCorruptError;
using hadas::util::durable::CorruptStage;
using hadas::util::durable::DurableFile;

Json to_json(const supernet::BackboneConfig& config) {
  Json json;
  json["resolution"] = Json(config.resolution);
  json["stem_width"] = Json(config.stem_width);
  json["last_width"] = Json(config.last_width);
  Json::Array stages;
  for (const auto& stage : config.stages) {
    Json s;
    s["width"] = Json(stage.width);
    s["depth"] = Json(stage.depth);
    s["kernel"] = Json(stage.kernel);
    s["expand"] = Json(stage.expand);
    stages.push_back(std::move(s));
  }
  json["stages"] = Json(std::move(stages));
  return json;
}

supernet::BackboneConfig backbone_from_json(const Json& json) {
  supernet::BackboneConfig config;
  config.resolution = json.at("resolution").as_int();
  config.stem_width = json.at("stem_width").as_int();
  config.last_width = json.at("last_width").as_int();
  const auto& stages = json.at("stages").as_array();
  if (stages.size() != supernet::kNumStages)
    throw std::invalid_argument("backbone_from_json: wrong stage count");
  for (std::size_t s = 0; s < stages.size(); ++s) {
    config.stages[s].width = stages[s].at("width").as_int();
    config.stages[s].depth = stages[s].at("depth").as_int();
    config.stages[s].kernel = stages[s].at("kernel").as_int();
    config.stages[s].expand = stages[s].at("expand").as_int();
  }
  return config;
}

Json to_json(const dynn::ExitPlacement& placement) {
  Json json;
  json["total_layers"] = Json(placement.total_layers());
  Json::Array exits;
  for (std::size_t layer : placement.positions()) exits.push_back(Json(layer));
  json["exits"] = Json(std::move(exits));
  return json;
}

dynn::ExitPlacement placement_from_json(const Json& json) {
  std::vector<std::size_t> exits;
  for (const Json& layer : json.at("exits").as_array())
    exits.push_back(layer.as_index());
  return dynn::ExitPlacement(json.at("total_layers").as_index(), exits);
}

Json to_json(const hw::DvfsSetting& setting) {
  Json json;
  json["core_idx"] = Json(setting.core_idx);
  json["emc_idx"] = Json(setting.emc_idx);
  return json;
}

hw::DvfsSetting setting_from_json(const Json& json) {
  return {json.at("core_idx").as_index(), json.at("emc_idx").as_index()};
}

Json to_json(const StaticEval& eval) {
  Json json;
  json["accuracy"] = Json(eval.accuracy);
  json["latency_s"] = Json(eval.latency_s);
  json["energy_j"] = Json(eval.energy_j);
  return json;
}

StaticEval static_eval_from_json(const Json& json) {
  StaticEval eval;
  eval.accuracy = json.at("accuracy").as_number();
  eval.latency_s = json.at("latency_s").as_number();
  eval.energy_j = json.at("energy_j").as_number();
  return eval;
}

Json to_json(const dynn::DynamicMetrics& metrics) {
  Json json;
  json["score_eq5"] = Json(metrics.score_eq5);
  json["mean_n"] = Json(metrics.mean_n);
  json["oracle_accuracy"] = Json(metrics.oracle_accuracy);
  json["energy_per_sample_j"] = Json(metrics.energy_per_sample_j);
  json["latency_per_sample_s"] = Json(metrics.latency_per_sample_s);
  json["energy_gain"] = Json(metrics.energy_gain);
  json["latency_gain"] = Json(metrics.latency_gain);
  return json;
}

dynn::DynamicMetrics dynamic_metrics_from_json(const Json& json) {
  dynn::DynamicMetrics metrics;
  metrics.score_eq5 = json.at("score_eq5").as_number();
  metrics.mean_n = json.at("mean_n").as_number();
  metrics.oracle_accuracy = json.at("oracle_accuracy").as_number();
  metrics.energy_per_sample_j = json.at("energy_per_sample_j").as_number();
  metrics.latency_per_sample_s = json.at("latency_per_sample_s").as_number();
  metrics.energy_gain = json.at("energy_gain").as_number();
  metrics.latency_gain = json.at("latency_gain").as_number();
  return metrics;
}

Json to_json(const FinalSolution& solution) {
  Json json;
  json["backbone"] = to_json(solution.backbone);
  json["placement"] = to_json(solution.placement);
  json["setting"] = to_json(solution.setting);
  json["static"] = to_json(solution.static_eval);
  json["dynamic"] = to_json(solution.dynamic);
  return json;
}

FinalSolution final_solution_from_json(const Json& json) {
  return FinalSolution{backbone_from_json(json.at("backbone")),
                       placement_from_json(json.at("placement")),
                       setting_from_json(json.at("setting")),
                       static_eval_from_json(json.at("static")),
                       dynamic_metrics_from_json(json.at("dynamic"))};
}

Json result_to_json(const HadasResult& result, hw::Target target) {
  Json json;
  json["device"] = Json(hw::target_name(target));
  json["outer_evaluations"] = Json(result.outer_evaluations);
  json["inner_evaluations"] = Json(result.inner_evaluations);
  json["explored_backbones"] = Json(result.backbones.size());
  Json::Array pareto;
  for (const auto& solution : result.final_pareto)
    pareto.push_back(to_json(solution));
  json["final_pareto"] = Json(std::move(pareto));
  return json;
}

std::vector<FinalSolution> final_pareto_from_json(const Json& json) {
  std::vector<FinalSolution> solutions;
  for (const Json& entry : json.at("final_pareto").as_array())
    solutions.push_back(final_solution_from_json(entry));
  return solutions;
}

Json to_json(const hadas::util::Rng::State& state) {
  Json json;
  Json::Array words;
  for (std::uint64_t w : state.words) words.push_back(Json(util::hex_u64(w)));
  json["words"] = Json(std::move(words));
  json["has_cached_normal"] = Json(state.has_cached_normal);
  json["cached_normal"] = Json(state.cached_normal);
  return json;
}

hadas::util::Rng::State rng_state_from_json(const Json& json) {
  hadas::util::Rng::State state;
  const auto& words = json.at("words").as_array();
  if (words.size() != state.words.size())
    throw std::invalid_argument("rng_state_from_json: wrong word count");
  for (std::size_t i = 0; i < words.size(); ++i)
    state.words[i] = util::u64_from_hex(words[i].as_string());
  state.has_cached_normal = json.at("has_cached_normal").as_bool();
  state.cached_normal = json.at("cached_normal").as_number();
  return state;
}

Json to_json(const InnerSolution& solution) {
  Json json;
  json["placement"] = to_json(solution.placement);
  json["setting"] = to_json(solution.setting);
  json["metrics"] = to_json(solution.metrics);
  Json::Array objectives;
  for (double v : solution.objectives) objectives.push_back(Json(v));
  json["objectives"] = Json(std::move(objectives));
  return json;
}

InnerSolution inner_solution_from_json(const Json& json) {
  InnerSolution solution{placement_from_json(json.at("placement")),
                         setting_from_json(json.at("setting")),
                         dynamic_metrics_from_json(json.at("metrics")),
                         {}};
  for (const Json& v : json.at("objectives").as_array())
    solution.objectives.push_back(v.as_number());
  return solution;
}

Json to_json(const BackboneOutcome& outcome) {
  Json json;
  json["config"] = to_json(outcome.config);
  json["static"] = to_json(outcome.static_eval);
  json["ioe_ran"] = Json(outcome.ioe_ran);
  json["inner_hv"] = Json(outcome.inner_hv);
  Json::Array pareto;
  for (const auto& sol : outcome.inner_pareto) pareto.push_back(to_json(sol));
  json["inner_pareto"] = Json(std::move(pareto));
  Json::Array history;
  for (const auto& sol : outcome.inner_history) history.push_back(to_json(sol));
  json["inner_history"] = Json(std::move(history));
  return json;
}

BackboneOutcome backbone_outcome_from_json(const Json& json) {
  BackboneOutcome outcome;
  outcome.config = backbone_from_json(json.at("config"));
  outcome.static_eval = static_eval_from_json(json.at("static"));
  outcome.ioe_ran = json.at("ioe_ran").as_bool();
  outcome.inner_hv = json.at("inner_hv").as_number();
  for (const Json& sol : json.at("inner_pareto").as_array())
    outcome.inner_pareto.push_back(inner_solution_from_json(sol));
  for (const Json& sol : json.at("inner_history").as_array())
    outcome.inner_history.push_back(inner_solution_from_json(sol));
  return outcome;
}

Json genomes_to_json(const std::vector<supernet::Genome>& genomes) {
  Json::Array rows;
  for (const supernet::Genome& genome : genomes) {
    Json::Array genes;
    for (std::int32_t g : genome) genes.push_back(Json(static_cast<int>(g)));
    rows.push_back(Json(std::move(genes)));
  }
  return Json(std::move(rows));
}

std::vector<supernet::Genome> genomes_from_json(const Json& json) {
  std::vector<supernet::Genome> genomes;
  for (const Json& genes : json.as_array()) {
    supernet::Genome genome;
    for (const Json& g : genes.as_array())
      genome.push_back(static_cast<std::int32_t>(g.as_int()));
    genomes.push_back(std::move(genome));
  }
  return genomes;
}

Json checkpoint_to_json(const SearchCheckpoint& checkpoint) {
  Json json;
  json["format"] = Json("hadas-checkpoint-v1");
  json["fingerprint"] = Json(checkpoint.fingerprint);
  json["next_generation"] = Json(checkpoint.next_generation);
  json["rng"] = to_json(checkpoint.rng);
  json["population"] = genomes_to_json(checkpoint.population);
  Json::Array backbones;
  for (const auto& outcome : checkpoint.backbones)
    backbones.push_back(to_json(outcome));
  json["backbones"] = Json(std::move(backbones));
  json["outer_evaluations"] = Json(checkpoint.outer_evaluations);
  json["inner_evaluations"] = Json(checkpoint.inner_evaluations);
  return json;
}

SearchCheckpoint checkpoint_from_json(const Json& json) {
  if (!json.contains("format") ||
      json.at("format").as_string() != "hadas-checkpoint-v1")
    throw std::invalid_argument("checkpoint_from_json: unknown format");
  SearchCheckpoint checkpoint;
  checkpoint.fingerprint = json.at("fingerprint").as_string();
  checkpoint.next_generation = json.at("next_generation").as_index();
  checkpoint.rng = rng_state_from_json(json.at("rng"));
  checkpoint.population = genomes_from_json(json.at("population"));
  for (const Json& outcome : json.at("backbones").as_array())
    checkpoint.backbones.push_back(backbone_outcome_from_json(outcome));
  checkpoint.outer_evaluations = json.at("outer_evaluations").as_index();
  checkpoint.inner_evaluations = json.at("inner_evaluations").as_index();
  return checkpoint;
}

namespace {

/// Invariant helper: reject with a kInvariant error (file filled in later).
[[noreturn]] void invariant_fail(const std::string& detail) {
  throw CheckpointCorruptError("", 0, CorruptStage::kInvariant, detail);
}

void require_finite(double v, const std::string& what) {
  if (!std::isfinite(v)) invariant_fail(what + " is not finite");
}

void validate_inner_solution(const InnerSolution& solution,
                             const std::string& where) {
  if (solution.objectives.empty())
    invariant_fail(where + " has no objectives");
  for (double v : solution.objectives)
    require_finite(v, where + " objective");
  require_finite(solution.metrics.score_eq5, where + " score_eq5");
  require_finite(solution.metrics.oracle_accuracy, where + " oracle_accuracy");
  require_finite(solution.metrics.energy_gain, where + " energy_gain");
  require_finite(solution.metrics.latency_gain, where + " latency_gain");
}

}  // namespace

void validate_checkpoint(const SearchCheckpoint& checkpoint) {
  if (checkpoint.fingerprint.empty())
    invariant_fail("checkpoint has an empty fingerprint");
  if (checkpoint.population.empty())
    invariant_fail("checkpoint has an empty population");
  const std::size_t genome_size = checkpoint.population.front().size();
  if (genome_size == 0) invariant_fail("checkpoint has an empty genome");
  for (const supernet::Genome& genome : checkpoint.population)
    if (genome.size() != genome_size)
      invariant_fail("checkpoint population has mixed genome lengths (" +
                     std::to_string(genome.size()) + " vs " +
                     std::to_string(genome_size) + ")");
  require_finite(checkpoint.rng.cached_normal, "rng cached_normal");
  for (std::size_t b = 0; b < checkpoint.backbones.size(); ++b) {
    const BackboneOutcome& outcome = checkpoint.backbones[b];
    const std::string where = "backbone[" + std::to_string(b) + "]";
    require_finite(outcome.static_eval.accuracy, where + " accuracy");
    require_finite(outcome.static_eval.latency_s, where + " latency_s");
    require_finite(outcome.static_eval.energy_j, where + " energy_j");
    require_finite(outcome.inner_hv, where + " inner_hv");
    for (const InnerSolution& sol : outcome.inner_pareto)
      validate_inner_solution(sol, where + " pareto solution");
    for (const InnerSolution& sol : outcome.inner_history)
      validate_inner_solution(sol, where + " history solution");
  }
}

namespace {

/// The checkpoint document decoder: parse, then the semantic invariants.
SearchCheckpoint decode_checkpoint(const Json& json) {
  SearchCheckpoint checkpoint = checkpoint_from_json(json);
  validate_checkpoint(checkpoint);
  return checkpoint;
}

}  // namespace

void save_checkpoint(const std::string& path,
                     const SearchCheckpoint& checkpoint) {
  DurableFile::write(path, kCheckpointFormatTag,
                     checkpoint_to_json(checkpoint).dump(2) + "\n");
}

SearchCheckpoint load_checkpoint(const std::string& path) {
  return util::durable::decode_payload(
      DurableFile::read_or_legacy(path, kCheckpointFormatTag),
      decode_checkpoint, path);
}

void save_checkpoint_chain(const CheckpointChain& chain,
                           const SearchCheckpoint& checkpoint) {
  chain.save(kCheckpointFormatTag,
             checkpoint_to_json(checkpoint).dump(2) + "\n");
}

std::optional<LoadedCheckpoint> load_checkpoint_chain(
    const CheckpointChain& chain,
    const std::function<void(const std::string& warning)>& warn) {
  std::optional<SearchCheckpoint> parsed;
  const auto loaded = chain.load_newest_valid(
      kCheckpointFormatTag,
      [&parsed](const std::string& payload) {
        parsed.reset();
        parsed = util::durable::decode_payload(payload, decode_checkpoint);
      },
      warn);
  if (!loaded) return std::nullopt;
  return LoadedCheckpoint{std::move(*parsed), loaded->file, loaded->skipped};
}

void save_json(const std::string& path, const Json& json) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_json: cannot open " + path);
  out << json.dump(2) << '\n';
}

Json load_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_json: cannot open " + path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return Json::parse(text);
}

}  // namespace hadas::core
