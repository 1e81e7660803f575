#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/hadas_engine.hpp"
#include "util/json.hpp"

namespace hadas::dist {

/// Durable-envelope format tags of the dist layer's on-disk artifacts.
inline constexpr const char* kDistSpecFormatTag = "hadas-dist-spec-v1";
inline constexpr const char* kMigrantsFormatTag = "hadas-migrants-v1";
inline constexpr const char* kIslandResultFormatTag = "hadas-island-result-v1";

/// Worker-process exit codes the coordinator distinguishes. Anything else
/// (including the chaos crash code 86 and signal deaths) counts as a
/// failure and triggers restart-with-backoff.
inline constexpr int kWorkerExitDone = 0;         ///< island result written
inline constexpr int kWorkerExitInterrupted = 75; ///< SIGTERM, checkpointed
inline constexpr int kWorkerExitWaitTimeout = 3;  ///< inbound migrants never came

/// The complete, serializable description of one distributed search: the
/// base search problem (`threads` is per worker) plus the island topology.
/// The coordinator writes it durably into the workdir and hands it to every
/// worker in the session WELCOME; a worker reconstructs its island
/// configuration from it alone, so it needs nothing but the coordinator
/// endpoint and `--island I`.
struct DistSpec : core::SearchProblem {
  // Island topology. Migration is a deterministic ring: after every
  // `migration_every` generations island i sends its `migrants` best
  // genomes to island (i+1) % islands.
  std::size_t islands = 2;
  std::size_t migration_every = 2;
  std::size_t migrants = 2;
  /// Fleet scoping: per-island device keys — island i searches
  /// island_devices[i] instead of the spec-wide `device`, so a coordinator
  /// can pin each island to one fleet device group (`--fleet` on the dist
  /// CLI). Empty = homogeneous. Non-empty must have exactly `islands`
  /// entries; serialized only when present, so homogeneous specs round-trip
  /// byte-identically with pre-fleet coordinators.
  std::vector<std::string> island_devices;
};

/// Throws std::invalid_argument when the topology cannot work: zero islands
/// or rounds, or islands so numerous that some island's population share
/// would drop below 2 genomes (NSGA-II needs a pair to cross over).
void validate_spec(const DistSpec& spec);

util::Json spec_to_json(const DistSpec& spec);
DistSpec spec_from_json(const util::Json& json);

/// Durable spec I/O. load_spec throws util::durable::CheckpointCorruptError
/// (stage kParse/kInvariant) on a well-enveloped but malformed payload, so
/// `hadas verify-checkpoint` can triage spec files like checkpoints.
void save_spec(const std::string& path, const DistSpec& spec);
DistSpec load_spec(const std::string& path);
/// save_spec unless `path` already holds `spec`; an unreadable file is
/// replaced. False, writing nothing, when it holds a different spec: the
/// directory belongs to another run.
bool ensure_spec_file(const std::string& path, const DistSpec& spec);

/// --- Workdir layout. Every path of the distributed run lives under one
/// directory so a run is resumed (or post-mortemed) from the workdir alone.
std::string spec_path(const std::string& workdir);
std::string chain_path(const std::string& workdir, std::size_t island);
std::string final_path(const std::string& workdir, std::size_t island);
std::string migrants_path(const std::string& workdir, std::size_t island,
                          std::size_t round);
/// State directory of island `island`'s spawned worker (its --state-dir).
/// The worker is the only process that writes under it.
std::string worker_dir(const std::string& workdir, std::size_t island);
/// stdout/stderr of island `island`'s spawned worker, inside worker_dir.
std::string log_path(const std::string& workdir, std::size_t island);

/// --- Round arithmetic. A round is `migration_every` generations (the last
/// round may be shorter); checkpoints are written exactly at round
/// boundaries, so every crash replays at most one round — deterministically,
/// because the inbound migrant files it consumes are already durable.
std::size_t round_count(const DistSpec& spec);
std::size_t round_end_generation(const DistSpec& spec, std::size_t round);
/// The island whose emigrants island `i` receives (ring predecessor).
std::size_t inbound_neighbor(const DistSpec& spec, std::size_t island);

/// Deterministic per-island seed: the base seed for a single island (so a
/// 1-island dist run is bit-identical to a plain `hadas search`), an
/// island-indexed SplitMix64 derivation otherwise.
std::uint64_t island_seed(std::uint64_t seed, std::size_t island,
                          std::size_t islands);

/// Outer-population share of one island (pop/K, the first pop%K islands get
/// one extra).
std::size_t island_population(const DistSpec& spec, std::size_t island);

/// The HadasConfig island `island` evolves: its population share and seed,
/// a fingerprint salt ("island:<i>/<K>") so islands can never resume each
/// other's chains, and checkpoint cadence locked to the migration cadence.
core::HadasConfig island_config(const DistSpec& spec,
                                const std::string& workdir,
                                std::size_t island);

/// Target island `island` searches: its island_devices entry when the spec
/// is fleet-scoped, otherwise the spec-wide device.
hw::Target island_target(const DistSpec& spec, std::size_t island);

/// --- Migrant files. A migrant set is a pure function of the sender's
/// round-boundary checkpoint (non-dominated sort + crowding order over its
/// evaluated backbones, constrained by the latency budget), so a file lost
/// with a crashed worker is regenerated byte-identically from the chain.
struct MigrantSet {
  std::size_t island = 0;
  std::size_t round = 0;
  std::vector<supernet::Genome> genomes;
};

/// The spec.migrants best genomes of a round-boundary checkpoint, in elite
/// (front, then crowding) order.
std::vector<supernet::Genome> select_migrants(
    const supernet::SearchSpace& space, const DistSpec& spec,
    const core::SearchCheckpoint& checkpoint);

/// `failpoints_on = false` (coordinator salvage) suppresses the
/// dist.migrate.write failpoint, so a chaos schedule that kills workers
/// cannot also kill the supervisor performing last-resort recovery.
void write_migrants_file(const std::string& path, const MigrantSet& migrants,
                         bool failpoints_on = true);
/// Throws CheckpointCorruptError on a corrupt envelope or payload.
MigrantSet load_migrants_file(const std::string& path);

/// Regenerate (or verify) the migrant file island `island` emits after
/// `round`: a no-op when a valid file already exists, otherwise the island's
/// chain is searched for the round-boundary checkpoint and the file
/// rewritten from it. Returns false when no slot holds that boundary (the
/// caller keeps waiting — the owner is still evolving toward it). Only the
/// process that owns `workdir` calls it: the write goes through a fixed
/// `<path>.tmp`, so two writers of one directory could collide.
bool ensure_migrants_file(const supernet::SearchSpace& space,
                          const DistSpec& spec, const std::string& workdir,
                          std::size_t island, std::size_t round,
                          bool failpoints_on = true);

/// --- Island results. The final file is always derived from the island's
/// newest checkpoint (never from in-memory engine state), so a worker that
/// crashes after its last round and a worker that finishes undisturbed
/// write byte-identical results.
void write_island_final(const DistSpec& spec, const std::string& workdir,
                        std::size_t island, bool failpoints_on = true);
/// Parsed + validated island result payload. Throws CheckpointCorruptError.
util::Json load_island_result(const std::string& path);

/// --- Merge. Union of the island fronts, re-filtered through a Pareto
/// archive in island order; evaluation counters are summed. The result JSON
/// has the `hadas search` result shape plus the topology fields, so
/// `hadas show` renders it unchanged.
util::Json merge_islands(const DistSpec& spec, const std::string& workdir);

}  // namespace hadas::dist
