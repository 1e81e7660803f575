#pragma once

#include <optional>
#include <string>

#include "core/hadas_engine.hpp"
#include "util/durable/checkpoint_chain.hpp"
#include "util/json.hpp"

namespace hadas::core {

/// JSON (de)serialization of the search artifacts, so designs found by a
/// search can be saved, diffed, shipped to a deployment host, and re-loaded
/// without re-running the search. All functions throw std::logic_error /
/// std::invalid_argument on malformed input.

hadas::util::Json to_json(const supernet::BackboneConfig& config);
supernet::BackboneConfig backbone_from_json(const hadas::util::Json& json);

hadas::util::Json to_json(const dynn::ExitPlacement& placement);
dynn::ExitPlacement placement_from_json(const hadas::util::Json& json);

hadas::util::Json to_json(const hw::DvfsSetting& setting);
hw::DvfsSetting setting_from_json(const hadas::util::Json& json);

hadas::util::Json to_json(const StaticEval& eval);
StaticEval static_eval_from_json(const hadas::util::Json& json);

hadas::util::Json to_json(const dynn::DynamicMetrics& metrics);
dynn::DynamicMetrics dynamic_metrics_from_json(const hadas::util::Json& json);

hadas::util::Json to_json(const FinalSolution& solution);
FinalSolution final_solution_from_json(const hadas::util::Json& json);

/// The full deliverable of a search: device, budgets and the final Pareto
/// set. (Exploration history is not persisted — re-run for that.)
hadas::util::Json result_to_json(const HadasResult& result,
                                 hw::Target target);
std::vector<FinalSolution> final_pareto_from_json(const hadas::util::Json& json);

/// --- Checkpoint serialization (see HadasConfig::checkpoint_path). ---
///
/// Doubles survive the JSON round trip exactly (emitted at %.17g), and RNG
/// words are stored as hex strings (they do not fit in a double), so a
/// resumed search is bit-identical to the uninterrupted one.

hadas::util::Json to_json(const hadas::util::Rng::State& state);
hadas::util::Rng::State rng_state_from_json(const hadas::util::Json& json);

hadas::util::Json to_json(const InnerSolution& solution);
InnerSolution inner_solution_from_json(const hadas::util::Json& json);

hadas::util::Json to_json(const BackboneOutcome& outcome);
BackboneOutcome backbone_outcome_from_json(const hadas::util::Json& json);

/// A genome list (checkpoint population, migrant set): one gene array each.
hadas::util::Json genomes_to_json(const std::vector<supernet::Genome>& genomes);
std::vector<supernet::Genome> genomes_from_json(const hadas::util::Json& json);

hadas::util::Json checkpoint_to_json(const SearchCheckpoint& checkpoint);
SearchCheckpoint checkpoint_from_json(const hadas::util::Json& json);

/// Durable-envelope format tag of search checkpoints.
inline constexpr const char* kCheckpointFormatTag = "hadas-checkpoint-v1";

/// Semantic invariants a checkpoint must satisfy beyond JSON
/// well-formedness: non-empty population of equal-length genomes, finite
/// objective/metric values, and a non-empty fingerprint. (The RNG word
/// count is enforced during parsing by rng_state_from_json.) Throws
/// util::durable::CheckpointCorruptError with stage kInvariant — the file
/// name is filled in by whichever load path knows it.
void validate_checkpoint(const SearchCheckpoint& checkpoint);

/// Crash-safe save through util::durable::DurableFile: write-to-temp +
/// fsync + atomic rename, with a versioned header and CRC-64 footer.
void save_checkpoint(const std::string& path,
                     const SearchCheckpoint& checkpoint);

/// Load + validate one checkpoint file. Envelope, parse or invariant
/// failures throw util::durable::CheckpointCorruptError naming the file,
/// byte offset and failing stage. A file with no durable envelope is
/// accepted as a legacy (pre-durable) raw-JSON checkpoint.
SearchCheckpoint load_checkpoint(const std::string& path);

/// A checkpoint recovered from a rotating chain: which slot supplied it and
/// how many newer (corrupt) slots were skipped to reach it.
struct LoadedCheckpoint {
  SearchCheckpoint checkpoint;
  std::string file;
  std::size_t skipped = 0;
};

/// Rotate `chain` and durably write `checkpoint` as the newest slot.
void save_checkpoint_chain(const hadas::util::durable::CheckpointChain& chain,
                           const SearchCheckpoint& checkpoint);

/// Newest chain slot that passes envelope + parse + invariant validation;
/// every rejected newer slot is reported through `warn`. Returns nullopt if
/// no slot exists; throws CheckpointCorruptError if every slot is corrupt.
std::optional<LoadedCheckpoint> load_checkpoint_chain(
    const hadas::util::durable::CheckpointChain& chain,
    const std::function<void(const std::string& warning)>& warn = {});

/// File helpers.
void save_json(const std::string& path, const hadas::util::Json& json);
hadas::util::Json load_json(const std::string& path);

}  // namespace hadas::core
