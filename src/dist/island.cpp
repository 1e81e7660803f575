#include "dist/island.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "core/serialize.hpp"
#include "hw/faults.hpp"
#include "util/durable/checkpoint_chain.hpp"
#include "util/durable/document.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"
#include "util/strutil.hpp"

namespace hadas::dist {

using hadas::util::Json;
using hadas::util::durable::DurableFile;

namespace {

std::string numbered(const std::string& workdir, const char* stem,
                     std::size_t island, const char* suffix) {
  return workdir + "/" + stem + std::to_string(island) + suffix;
}

}  // namespace

void validate_spec(const DistSpec& spec) {
  if (spec.islands == 0)
    throw std::invalid_argument("dist: need at least one island");
  if (spec.outer_generations == 0)
    throw std::invalid_argument("dist: need at least one outer generation");
  if (spec.migration_every == 0)
    throw std::invalid_argument("dist: migration cadence must be >= 1");
  if (spec.outer_population < 2 * spec.islands)
    throw std::invalid_argument(
        "dist: population " + std::to_string(spec.outer_population) +
        " is too small for " + std::to_string(spec.islands) +
        " islands (every island needs >= 2 genomes)");
  if (spec.islands > 1 && spec.migrants == 0)
    throw std::invalid_argument("dist: need >= 1 migrant with > 1 island");
  // The fault spec must parse now, not inside K workers later.
  if (!spec.faults.empty()) hw::parse_fault_config(spec.faults);
  spec.target();
  spec.search_space();
  if (!spec.island_devices.empty()) {
    if (spec.island_devices.size() != spec.islands)
      throw std::invalid_argument(
          "dist: island_devices has " +
          std::to_string(spec.island_devices.size()) + " entries for " +
          std::to_string(spec.islands) + " islands");
    for (std::size_t i = 0; i < spec.islands; ++i) island_target(spec, i);
  }
}

Json spec_to_json(const DistSpec& spec) {
  Json json;
  json["device"] = Json(spec.device);
  json["space"] = Json(spec.space);
  json["outer_population"] = Json(spec.outer_population);
  json["outer_generations"] = Json(spec.outer_generations);
  json["ioe_backbones_per_generation"] =
      Json(spec.ioe_backbones_per_generation);
  json["ioe_population"] = Json(spec.ioe_population);
  json["ioe_generations"] = Json(spec.ioe_generations);
  json["seed_hex"] = Json(util::hex_u64(spec.seed));
  json["train_size"] = Json(spec.train_size);
  json["epochs"] = Json(spec.epochs);
  json["max_latency_s"] = Json(spec.max_latency_s);
  json["faults"] = Json(spec.faults);
  json["checkpoint_keep"] = Json(spec.checkpoint_keep);
  json["threads"] = Json(spec.threads);
  json["islands"] = Json(spec.islands);
  json["migration_every"] = Json(spec.migration_every);
  json["migrants"] = Json(spec.migrants);
  if (!spec.island_devices.empty()) {
    Json::Array devices;
    for (const std::string& device : spec.island_devices)
      devices.push_back(Json(device));
    json["island_devices"] = std::move(devices);
  }
  return json;
}

DistSpec spec_from_json(const Json& json) {
  DistSpec spec;
  spec.device = json.at("device").as_string();
  spec.space = json.at("space").as_string();
  spec.outer_population = json.at("outer_population").as_index();
  spec.outer_generations = json.at("outer_generations").as_index();
  spec.ioe_backbones_per_generation =
      json.at("ioe_backbones_per_generation").as_index();
  spec.ioe_population = json.at("ioe_population").as_index();
  spec.ioe_generations = json.at("ioe_generations").as_index();
  spec.seed = util::u64_from_hex(json.at("seed_hex").as_string());
  spec.train_size = json.at("train_size").as_index();
  spec.epochs = json.at("epochs").as_index();
  spec.max_latency_s = json.at("max_latency_s").as_number();
  spec.faults = json.at("faults").as_string();
  spec.checkpoint_keep = json.at("checkpoint_keep").as_index();
  spec.threads = json.at("threads").as_index();
  spec.islands = json.at("islands").as_index();
  spec.migration_every = json.at("migration_every").as_index();
  spec.migrants = json.at("migrants").as_index();
  if (json.contains("island_devices"))
    for (const Json& device : json.at("island_devices").as_array())
      spec.island_devices.push_back(device.as_string());
  return spec;
}

void save_spec(const std::string& path, const DistSpec& spec) {
  validate_spec(spec);
  DurableFile::write(path, kDistSpecFormatTag, spec_to_json(spec).dump(2) + "\n");
}

DistSpec load_spec(const std::string& path) {
  return util::durable::load_document(
      path, kDistSpecFormatTag, [](const Json& json) {
        DistSpec spec = spec_from_json(json);
        validate_spec(spec);
        return spec;
      });
}

bool ensure_spec_file(const std::string& path, const DistSpec& spec) {
  if (std::filesystem::exists(path)) {
    try {
      return spec_to_json(load_spec(path)).dump(0) ==
             spec_to_json(spec).dump(0);
    } catch (const util::durable::CheckpointCorruptError&) {
    }
  }
  save_spec(path, spec);
  return true;
}

std::string spec_path(const std::string& workdir) {
  return workdir + "/dist_spec.json";
}
std::string chain_path(const std::string& workdir, std::size_t island) {
  return numbered(workdir, "island", island, ".ck.json");
}
std::string final_path(const std::string& workdir, std::size_t island) {
  return numbered(workdir, "island", island, ".final.json");
}
std::string migrants_path(const std::string& workdir, std::size_t island,
                          std::size_t round) {
  return workdir + "/migrants_i" + std::to_string(island) + "_r" +
         std::to_string(round) + ".json";
}
std::string worker_dir(const std::string& workdir, std::size_t island) {
  return workdir + "/worker-" + std::to_string(island);
}
std::string log_path(const std::string& workdir, std::size_t island) {
  return worker_dir(workdir, island) + "/worker.log";
}

std::size_t round_count(const DistSpec& spec) {
  return (spec.outer_generations + spec.migration_every - 1) /
         spec.migration_every;
}

std::size_t round_end_generation(const DistSpec& spec, std::size_t round) {
  return std::min((round + 1) * spec.migration_every, spec.outer_generations);
}

std::size_t inbound_neighbor(const DistSpec& spec, std::size_t island) {
  return (island + spec.islands - 1) % spec.islands;
}

std::uint64_t island_seed(std::uint64_t seed, std::size_t island,
                          std::size_t islands) {
  if (islands <= 1) return seed;  // 1-island run == plain search, bit for bit
  util::SplitMix64 mix(seed ^ (0xD1B54A32D192ED03ULL *
                               static_cast<std::uint64_t>(island + 1)));
  return mix.next();
}

std::size_t island_population(const DistSpec& spec, std::size_t island) {
  if (spec.islands <= 1) return spec.outer_population;
  return spec.outer_population / spec.islands +
         (island < spec.outer_population % spec.islands ? 1 : 0);
}

core::HadasConfig island_config(const DistSpec& spec,
                                const std::string& workdir,
                                std::size_t island) {
  core::HadasConfig config = spec.config();
  config.outer_population = island_population(spec, island);
  config.seed = island_seed(spec.seed, island, spec.islands);
  config.checkpoint_path = chain_path(workdir, island);
  // Checkpoints land exactly on round boundaries, so a mid-round crash
  // replays the whole round — deterministically, since the inbound migrant
  // files it re-reads are durable.
  config.checkpoint_every = spec.migration_every;
  config.fingerprint_salt = "island:" + std::to_string(island) + "/" +
                            std::to_string(spec.islands);
  return config;
}

hw::Target island_target(const DistSpec& spec, std::size_t island) {
  if (spec.island_devices.empty()) return spec.target();
  if (island >= spec.island_devices.size())
    throw std::invalid_argument("dist: island index out of range");
  return hw::target_from_key(spec.island_devices[island]);
}

std::vector<supernet::Genome> select_migrants(
    const supernet::SearchSpace& space, const DistSpec& spec,
    const core::SearchCheckpoint& checkpoint) {
  // Elite order over every backbone the island has evaluated: fronts of the
  // constrained static objectives, crowding-sorted within each front — the
  // same ordering the engine's early selection uses, so migration exports
  // the genomes the sender itself considers best.
  std::vector<core::Objectives> points;
  points.reserve(checkpoint.backbones.size());
  for (const core::BackboneOutcome& outcome : checkpoint.backbones)
    points.push_back(
        core::constrained_objectives(outcome.static_eval, spec.max_latency_s));
  const auto fronts = core::non_dominated_sort(points);

  std::vector<supernet::Genome> selected;
  for (const auto& front : fronts) {
    const auto dist = core::crowding_distance(points, front);
    std::vector<std::size_t> by_crowding(front.size());
    for (std::size_t i = 0; i < front.size(); ++i) by_crowding[i] = i;
    std::sort(by_crowding.begin(), by_crowding.end(),
              [&](std::size_t a, std::size_t b) { return dist[a] > dist[b]; });
    for (std::size_t i : by_crowding) {
      if (selected.size() == spec.migrants) return selected;
      selected.push_back(
          supernet::encode(space, checkpoint.backbones[front[i]].config));
    }
    if (selected.size() == spec.migrants) break;
  }
  return selected;
}

void write_migrants_file(const std::string& path, const MigrantSet& migrants,
                         bool failpoints_on) {
  Json json;
  json["island"] = Json(migrants.island);
  json["round"] = Json(migrants.round);
  json["genomes"] = core::genomes_to_json(migrants.genomes);
  DurableFile::write(path, kMigrantsFormatTag, json.dump(2) + "\n");
  if (failpoints_on)
    hadas::util::failpoint_file("dist.migrate.write", path.c_str());
}

MigrantSet load_migrants_file(const std::string& path) {
  return util::durable::load_document(
      path, kMigrantsFormatTag, [](const Json& json) {
        MigrantSet migrants;
        migrants.island = json.at("island").as_index();
        migrants.round = json.at("round").as_index();
        migrants.genomes = core::genomes_from_json(json.at("genomes"));
        return migrants;
      });
}

bool ensure_migrants_file(const supernet::SearchSpace& space,
                          const DistSpec& spec, const std::string& workdir,
                          std::size_t island, std::size_t round,
                          bool failpoints_on) {
  const std::string path = migrants_path(workdir, island, round);
  if (DurableFile::holds(path, kMigrantsFormatTag)) return true;
  // Find the chain slot holding the end-of-round boundary. The newest slot
  // holds it in the normal (crash-before-write) case; older slots cover a
  // cross-process repair after the owner already advanced.
  const std::size_t boundary = round_end_generation(spec, round);
  const hadas::util::durable::CheckpointChain chain(
      chain_path(workdir, island), std::max<std::size_t>(1, spec.checkpoint_keep));
  for (std::size_t slot = 0; slot < chain.keep(); ++slot) {
    core::SearchCheckpoint checkpoint;
    try {
      checkpoint = core::load_checkpoint(chain.slot_path(slot));
    } catch (const std::exception&) {
      continue;  // missing or corrupt slot — keep walking down the chain
    }
    if (checkpoint.next_generation != boundary) continue;
    MigrantSet migrants;
    migrants.island = island;
    migrants.round = round;
    migrants.genomes = select_migrants(space, spec, checkpoint);
    write_migrants_file(path, migrants, failpoints_on);
    return true;
  }
  return false;
}

void write_island_final(const DistSpec& spec, const std::string& workdir,
                        std::size_t island, bool failpoints_on) {
  const std::string path = final_path(workdir, island);
  if (DurableFile::holds(path, kIslandResultFormatTag)) return;
  const hadas::util::durable::CheckpointChain chain(
      chain_path(workdir, island), std::max<std::size_t>(1, spec.checkpoint_keep));
  const auto loaded = core::load_checkpoint_chain(chain);
  if (!loaded || loaded->checkpoint.next_generation < spec.outer_generations)
    throw std::logic_error("dist: island " + std::to_string(island) +
                           " asked to finalize before its last round");
  // Derived purely from the boundary checkpoint — a crashed-and-restarted
  // worker and an undisturbed one write the same bytes.
  core::HadasResult result;
  result.backbones = loaded->checkpoint.backbones;
  result.outer_evaluations = loaded->checkpoint.outer_evaluations;
  result.inner_evaluations = loaded->checkpoint.inner_evaluations;
  result.final_pareto = core::final_pareto_of(result.backbones);
  Json json = core::result_to_json(result, island_target(spec, island));
  json["island"] = Json(island);
  json["next_generation"] = Json(loaded->checkpoint.next_generation);
  DurableFile::write(path, kIslandResultFormatTag, json.dump(2) + "\n");
  if (failpoints_on)
    hadas::util::failpoint_file("dist.worker.final", path.c_str());
}

Json load_island_result(const std::string& path) {
  return util::durable::load_document(
      path, kIslandResultFormatTag, [](const Json& json) {
        (void)core::final_pareto_from_json(json);  // shape check
        (void)json.at("island").as_index();
        (void)json.at("next_generation").as_index();
        return json;
      });
}

Json merge_islands(const DistSpec& spec, const std::string& workdir) {
  std::vector<core::FinalSolution> pool;
  std::size_t outer = 0, inner = 0, explored = 0;
  for (std::size_t i = 0; i < spec.islands; ++i) {
    const Json island = load_island_result(final_path(workdir, i));
    outer += island.at("outer_evaluations").as_index();
    inner += island.at("inner_evaluations").as_index();
    explored += island.at("explored_backbones").as_index();
    for (core::FinalSolution& sol : core::final_pareto_from_json(island))
      pool.push_back(std::move(sol));
  }
  // Union front in deterministic island order.
  core::ParetoArchive archive;
  for (std::size_t p = 0; p < pool.size(); ++p)
    archive.insert(
        {pool[p].dynamic.energy_gain, pool[p].dynamic.oracle_accuracy}, p);

  Json json;
  if (spec.island_devices.empty()) {
    json["device"] = Json(hw::target_name(spec.target()));
  } else {
    // Fleet-scoped islands: name every distinct device group, island order.
    std::string devices;
    for (std::size_t i = 0; i < spec.islands; ++i) {
      const std::string name = hw::target_name(island_target(spec, i));
      if (devices.find(name) == std::string::npos)
        devices += (devices.empty() ? "" : " + ") + name;
    }
    json["device"] = Json(devices);
  }
  json["islands"] = Json(spec.islands);
  json["migration_every"] = Json(spec.migration_every);
  json["migrants"] = Json(spec.migrants);
  json["outer_evaluations"] = Json(outer);
  json["inner_evaluations"] = Json(inner);
  json["explored_backbones"] = Json(explored);
  Json::Array pareto;
  for (std::size_t payload : archive.payloads())
    pareto.push_back(core::to_json(pool[payload]));
  json["final_pareto"] = Json(std::move(pareto));
  return json;
}

}  // namespace hadas::dist
