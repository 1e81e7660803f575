#include "dist/worker.hpp"

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "core/serialize.hpp"
#include "util/durable/checkpoint_chain.hpp"
#include "util/durable/durable_file.hpp"
#include "util/failpoint.hpp"
#include "util/strutil.hpp"

namespace hadas::dist {

using util::durable::DurableFile;

namespace {

bool cancelled(const std::atomic<bool>* cancel) {
  return cancel != nullptr && cancel->load(std::memory_order_relaxed);
}

/// Test hook: HADAS_DIST_HANG="<island>:<round>" freezes the process
/// stepping that island (without heartbeats) before it runs that round, so
/// the coordinator's hang watchdog can be exercised deterministically. The
/// coordinator strips it from a respawned worker's environment.
bool should_hang(std::size_t island, std::size_t round) {
  const char* spec = std::getenv("HADAS_DIST_HANG");
  if (spec == nullptr || *spec == '\0') return false;
  const auto parts = util::split(spec, ':');
  if (parts.size() != 2) return false;
  try {
    return util::parse_size("HADAS_DIST_HANG island", parts[0]) == island &&
           util::parse_size("HADAS_DIST_HANG round", parts[1]) == round;
  } catch (const std::exception&) {
    return false;
  }
}

/// What the island's durable state says about where to continue. Derived
/// entirely from on-disk inspection, so a respawned worker (or the salvage
/// path in the coordinator) needs no memory of the crashed process.
struct IslandProgress {
  bool final_written = false;  ///< valid island result file exists
  std::size_t next_round = 0;  ///< first round not yet checkpointed past
};

IslandProgress inspect_island(const DistSpec& spec, const std::string& workdir,
                              std::size_t island) {
  IslandProgress progress;
  if (DurableFile::holds(final_path(workdir, island),
                         kIslandResultFormatTag)) {
    progress.final_written = true;
    progress.next_round = round_count(spec);
    return progress;
  }
  const hadas::util::durable::CheckpointChain chain(
      chain_path(workdir, island),
      std::max<std::size_t>(1, spec.checkpoint_keep));
  const auto loaded = core::load_checkpoint_chain(chain);
  if (!loaded) return progress;  // nothing yet: start at round 0
  const std::size_t next_gen = loaded->checkpoint.next_generation;
  // A boundary checkpoint maps to the round starting there; a mid-round one
  // (graceful-shutdown save) maps to the round it interrupted.
  progress.next_round = next_gen >= spec.outer_generations
                            ? round_count(spec)
                            : next_gen / spec.migration_every;
  return progress;
}

/// Apply the inbound migrant set (rounds > 0), extend the engine to the
/// round's end generation (resuming from the chain), then emit this round's
/// migrants — or, after the last round, the island result file. Returns
/// false when `cancel` interrupted the round (state checkpointed).
bool run_island_round(const supernet::SearchSpace& space, const DistSpec& spec,
                      const std::string& workdir, std::size_t island,
                      std::size_t round, bool failpoints_on,
                      const std::atomic<bool>* cancel,
                      const std::function<void(std::size_t)>& on_generation) {
  if (failpoints_on) hadas::util::failpoint("dist.worker.round.begin");
  core::HadasConfig config = island_config(spec, workdir, island);
  config.outer_generations = round_end_generation(spec, round);
  config.cancel = cancel;
  config.on_generation = on_generation;

  core::WarmStart warm;
  if (round > 0 && spec.islands > 1) {
    if (failpoints_on) hadas::util::failpoint("dist.migrate.read");
    const MigrantSet inbound = load_migrants_file(
        migrants_path(workdir, inbound_neighbor(spec, island), round - 1));
    warm.immigrants = inbound.genomes;
    warm.immigrants_at_generation = round * spec.migration_every;
  }

  core::HadasEngine engine(space, island_target(spec, island), config);
  const core::HadasResult result = engine.run(warm);
  if (result.interrupted) return false;
  if (failpoints_on) hadas::util::failpoint("dist.worker.round.end");

  if (round + 1 == round_count(spec)) {
    write_island_final(spec, workdir, island, failpoints_on);
  } else if (spec.islands > 1) {
    ensure_migrants_file(space, spec, workdir, island, round, failpoints_on);
  }
  return true;
}

}  // namespace

IslandStep step_island(const supernet::SearchSpace& space, const DistSpec& spec,
                       const std::string& workdir, std::size_t island,
                       bool failpoints_on, const std::atomic<bool>* cancel,
                       const std::function<void(std::size_t)>& on_generation) {
  const IslandProgress progress = inspect_island(spec, workdir, island);
  if (progress.final_written) return IslandStep::kFinished;
  const std::size_t round = progress.next_round;
  if (round >= round_count(spec)) {
    // The last round is checkpointed but its result file is missing.
    write_island_final(spec, workdir, island, failpoints_on);
    return IslandStep::kAdvanced;
  }
  if (round > 0 && spec.islands > 1) {
    // A crash between the boundary checkpoint and the migrant write lost
    // our previous outbound file. Regenerate it (a pure function of the
    // boundary checkpoint, so the bytes match what the crashed process
    // would have written) before waiting on our own inbound set: in a
    // worker, nobody else can, and the ring would deadlock.
    if (!ensure_migrants_file(space, spec, workdir, island, round - 1,
                              failpoints_on))
      throw std::runtime_error(
          "dist: island " + std::to_string(island) + " lost both round " +
          std::to_string(round - 1) +
          " boundary checkpoint and its migrant file");
    // The inbound file; in a shared directory (inline mode, salvage) it is
    // regenerated from the sender's chain when that holds the boundary.
    if (!ensure_migrants_file(space, spec, workdir,
                              inbound_neighbor(spec, island), round - 1,
                              failpoints_on))
      return IslandStep::kBlocked;
  }
  if (failpoints_on && should_hang(island, round)) {
    // Simulated hang: alive but silent until SIGKILL (or cancel) ends it.
    while (!cancelled(cancel))
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return IslandStep::kCancelled;
  }
  if (!run_island_round(space, spec, workdir, island, round, failpoints_on,
                        cancel, on_generation))
    return IslandStep::kCancelled;
  return IslandStep::kAdvanced;
}

NetWorker::NetWorker(net::SocketHandler* handler, NetWorkerConfig config)
    : config_(std::move(config)),
      owned_handler_(handler == nullptr
                         ? std::make_unique<net::TcpSocketHandler>()
                         : nullptr),
      endpoint_(handler != nullptr ? *handler : *owned_handler_,
                {.label = "NetWorker",
                 .peer = "coordinator",
                 .connect = config_.connect,
                 .session_id = dist_session_id(config_.island),
                 .state_path =
                     dist_session_path(config_.state_dir, config_.island),
                 .format_tag = kDistSessionFormatTag,
                 .max_handshake_failures = config_.max_handshake_failures,
                 .reconnects = &dist_net_metrics().reconnects},
                *this) {
  if (config_.state_dir.empty())
    throw std::invalid_argument("NetWorker: a state directory is required");
  std::filesystem::create_directories(config_.state_dir);
  endpoint_.restore([this](const util::Json& app) {
    sent_ = rounds_from_json(app.at("sent"));
    final_sent_ = app.at("final_sent").as_bool();
    inbound_.partial = app.at("partial").as_string();
    inbound_.key = app.at("partial_key").as_string();
  });
  // A spec durably adopted by a previous incarnation lets this worker keep
  // computing rounds while disconnected; only migrant exchange stalls.
  const std::string spec_file = spec_path(config_.state_dir);
  if (std::filesystem::exists(spec_file)) {
    try {
      DistSpec spec = load_spec(spec_file);
      if (!endpoint_.fingerprint().empty() &&
          spec_fingerprint(spec) != endpoint_.fingerprint())
        throw net::ProtocolError(
            "NetWorker: state dir '" + config_.state_dir +
            "' holds a spec that does not match its session journal — it "
            "mixes two runs; use a fresh state dir");
      space_ = spec.search_space();
      spec_ = std::move(spec);
    } catch (const util::durable::CheckpointCorruptError&) {
      // Unreadable local spec: the next WELCOME re-delivers it.
    }
  }
}

util::Json NetWorker::journal() {
  util::Json::Object app;
  app["sent"] = rounds_to_json(sent_);
  app["final_sent"] = util::Json(final_sent_);
  app["partial"] = util::Json(inbound_.partial);
  app["partial_key"] = util::Json(inbound_.key);
  return util::Json(std::move(app));
}

std::string NetWorker::welcome_fingerprint(const std::string& payload,
                                           std::size_t at) {
  if (payload.size() < at + 4)
    throw net::ProtocolError("NetWorker: malformed welcome frame");
  const std::uint32_t length = net::get_u32(payload, at);
  if (payload.size() < at + 4 + length)
    throw net::ProtocolError("NetWorker: malformed welcome frame");
  return payload.substr(at + 4, length);
}

void NetWorker::welcomed(const std::string& payload, std::size_t at) {
  const std::string fingerprint = welcome_fingerprint(payload, at);
  std::optional<DistSpec> delivered;
  if (!spec_.has_value()) {
    try {
      delivered = spec_from_json(
          util::Json::parse(payload.substr(at + 4 + fingerprint.size())));
      validate_spec(*delivered);
    } catch (const std::exception& error) {
      throw net::ProtocolError(
          std::string("NetWorker: malformed spec in welcome: ") + error.what());
    }
  }
  // Checked before a delivered spec is persisted: a state dir never adopts
  // a spec its coordinator does not run.
  const DistSpec& spec = spec_.has_value() ? *spec_ : *delivered;
  if (spec_fingerprint(spec) != fingerprint)
    throw net::ProtocolError("NetWorker: spec fingerprint " +
                             spec_fingerprint(spec) +
                             " does not match the coordinator's " +
                             fingerprint);
  if (spec_.has_value()) return;
  if (config_.island >= spec.islands)
    throw net::ProtocolError(
        "NetWorker: island " + std::to_string(config_.island) +
        " out of range for the delivered spec (" +
        std::to_string(spec.islands) + " islands)");
  // Persist the spec so a respawn (and step_island) sees the exact topology
  // the coordinator runs; reject a state dir from another run.
  if (!ensure_spec_file(spec_path(config_.state_dir), spec))
    throw net::ProtocolError(
        "NetWorker: state dir '" + config_.state_dir +
        "' already holds a different spec — use a fresh state dir");
  space_ = spec.search_space();
  spec_ = std::move(delivered);
}

void NetWorker::apply(const net::Frame& frame) {
  const DistChunk chunk = parse_dist_chunk(frame);
  if (chunk.type != net::FrameType::kDistMigrants)
    throw net::ProtocolError(std::string("NetWorker: unexpected app frame '") +
                             net::frame_type_name(chunk.type) + "'");
  if (chunk.island != inbound_neighbor(*spec_, config_.island))
    throw net::ProtocolError(
        "NetWorker: pushed migrants labelled island " +
        std::to_string(chunk.island) + " but island " +
        std::to_string(config_.island) + "'s inbound neighbor is " +
        std::to_string(inbound_neighbor(*spec_, config_.island)));
  inbound_.accept(chunk, config_.state_dir);
}

void NetWorker::beat() {
  hadas::util::failpoint("dist.heartbeat");
  const auto now = Clock::now();
  if (config_.beat_every_ms > 0 &&
      now - last_beat_ < std::chrono::milliseconds(config_.beat_every_ms))
    return;
  last_beat_ = now;
  // A duplicate ack is a no-op for the stream but proves this island alive
  // to the coordinator's watchdog while the engine grinds through a round.
  endpoint_.heartbeat();
}

bool NetWorker::work() {
  bool did = false;
  if (spec_.has_value()) {
    const DistSpec& spec = *spec_;
    net::BackedWriter& writer = endpoint_.writer();
    switch (step_island(*space_, spec, config_.state_dir, config_.island,
                        /*failpoints_on=*/true, config_.cancel,
                        [this](std::size_t) { beat(); })) {
      case IslandStep::kFinished:
        if (final_sent_) break;
        append_blob(writer, net::FrameType::kDistFinal, config_.island, 0,
                    DurableFile::read(
                        final_path(config_.state_dir, config_.island),
                        kIslandResultFormatTag));
        final_sent_ = true;
        // Journal the queued upload before any pump can flush it.
        endpoint_.save();
        did = true;
        break;
      case IslandStep::kAdvanced:
        did = true;
        break;
      case IslandStep::kBlocked:
      case IslandStep::kCancelled:  // state checkpointed
        break;
    }
    if (spec.islands > 1) {
      bool queued = false;
      for (std::size_t round = 0; round + 1 < round_count(spec); ++round) {
        if (sent_.count(round) != 0) continue;
        const std::string path =
            migrants_path(config_.state_dir, config_.island, round);
        if (!DurableFile::holds(path, kMigrantsFormatTag)) continue;
        append_blob(writer, net::FrameType::kDistMigrants, config_.island,
                    round, DurableFile::read(path, kMigrantsFormatTag));
        sent_.insert(round);
        dist_net_metrics().migrant_sets_sent.inc();
        queued = true;
      }
      if (queued) {
        endpoint_.save();
        did = true;
      }
    }
  }
  // An idle worker (waiting on inbound migrants) still beats: a partition
  // of *another* island must not make this one look silent to the watchdog.
  if (endpoint_.live()) beat();
  return did;
}

int NetWorker::run() {
  hadas::util::failpoint("dist.worker.start");
  auto last_progress = Clock::now();
  while (!done()) {
    if (cancelled(config_.cancel)) return kWorkerExitInterrupted;
    if (endpoint_.connect_failures() >= config_.max_connect_attempts)
      throw net::ConnectError(
          "NetWorker: cannot reach " + config_.connect.host + ":" +
          std::to_string(config_.connect.port) + " after " +
          std::to_string(endpoint_.connect_failures()) + " attempts");
    const bool progress = step();
    if (done()) break;
    const auto now = Clock::now();
    if (progress) {
      last_progress = now;
    } else {
      if (now - last_progress >
          std::chrono::milliseconds(config_.wait_timeout_ms))
        return kWorkerExitWaitTimeout;
      endpoint_.wait(static_cast<int>(
          std::max<std::size_t>(1, config_.reconnect_backoff_ms)));
    }
  }
  return kWorkerExitDone;
}

int run_net_worker(net::SocketHandler* handler, const NetWorkerConfig& config) {
  NetWorker worker(handler, config);
  return worker.run();
}

}  // namespace hadas::dist
