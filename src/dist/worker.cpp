#include "dist/worker.hpp"

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "core/serialize.hpp"
#include "net/session.hpp"
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
    : config_(std::move(config)) {
  if (config_.state_dir.empty())
    throw std::invalid_argument("NetWorker: a state directory is required");
  std::filesystem::create_directories(config_.state_dir);
  if (handler == nullptr) {
    owned_handler_ = std::make_unique<net::TcpSocketHandler>();
    handler_ = owned_handler_.get();
  } else {
    handler_ = handler;
  }
  state_path_ = dist_session_path(config_.state_dir, config_.island);
  if (std::filesystem::exists(state_path_)) restore();
  // A spec durably adopted by a previous incarnation lets this worker keep
  // computing rounds while disconnected; only migrant exchange stalls.
  const std::string spec_file = spec_path(config_.state_dir);
  if (std::filesystem::exists(spec_file)) {
    try {
      DistSpec spec = load_spec(spec_file);
      if (!fingerprint_.empty() && spec_fingerprint(spec) != fingerprint_)
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

net::SocketHandler& NetWorker::handler() { return *handler_; }

bool NetWorker::cancelled() const {
  return config_.cancel != nullptr &&
         config_.cancel->load(std::memory_order_relaxed);
}

void NetWorker::save() {
  net::SessionState state;
  state.session_id = dist_session_id(config_.island);
  state.fingerprint = fingerprint_;
  state.write_acked = writer_.acked();
  state.write_unacked = writer_.unacked();
  state.read_seq = reader_.read_seq();
  util::Json::Object app;
  app["sent"] = rounds_to_json(sent_);
  app["final_sent"] = util::Json(final_sent_);
  app["partial"] = util::Json(inbound_.partial);
  app["partial_key"] = util::Json(inbound_.key);
  state.app = util::Json(std::move(app));
  net::save_session_state(state_path_, std::move(state),
                          kDistSessionFormatTag);
}

void NetWorker::restore() {
  std::optional<net::SessionState> state =
      net::load_session_state(state_path_, kDistSessionFormatTag);
  if (!state)
    throw std::invalid_argument("NetWorker: cannot restore from '" +
                                state_path_ + "'");
  if (state->session_id != dist_session_id(config_.island))
    throw std::invalid_argument(
        "NetWorker: journal '" + state_path_ + "' belongs to session '" +
        state->session_id + "', not '" + dist_session_id(config_.island) +
        "'");
  writer_.restore(state->write_acked, state->write_unacked);
  reader_.restore(state->read_seq);
  fingerprint_ = state->fingerprint;
  sent_ = rounds_from_json(state->app.at("sent"));
  final_sent_ = state->app.at("final_sent").as_bool();
  inbound_.partial = state->app.at("partial").as_string();
  inbound_.key = state->app.at("partial_key").as_string();
}

void NetWorker::adopt_spec(const std::string& spec_json) {
  DistSpec spec = spec_from_json(util::Json::parse(spec_json));
  validate_spec(spec);
  if (config_.island >= spec.islands)
    throw net::ProtocolError(
        "NetWorker: island " + std::to_string(config_.island) +
        " out of range for the delivered spec (" +
        std::to_string(spec.islands) + " islands)");
  // Persist the spec so a respawn (and step_island) sees the
  // exact topology the coordinator runs; reject a state dir from another run.
  if (!ensure_spec_file(spec_path(config_.state_dir), spec))
    throw net::ProtocolError(
        "NetWorker: state dir '" + config_.state_dir +
        "' already holds a different spec — use a fresh state dir");
  space_ = spec.search_space();
  spec_ = std::move(spec);
}

bool NetWorker::try_connect() {
  std::unique_ptr<net::Socket> socket;
  try {
    socket = handler().connect(config_.connect);
  } catch (const net::ConnectError&) {
    ++connect_failures_;
    return false;
  }
  connect_failures_ = 0;
  transport_.attach(std::move(socket));
  handshaken_ = false;
  if (connected_once_) {
    ++reconnects_;
    dist_net_metrics().reconnects.inc();
  }
  connected_once_ = true;
  net::Frame hello;
  hello.type = net::FrameType::kHello;
  net::put_u32(hello.payload, net::kProtocolVersion);
  net::put_u64(hello.payload, reader_.read_seq());
  hello.payload += dist_session_id(config_.island);
  transport_.send_frame(hello);
  return true;
}

void NetWorker::complete() {
  done_ = true;
  transport_.drop();
  std::error_code ec;
  std::filesystem::remove(state_path_, ec);
}

void NetWorker::handle_welcome(const net::Frame& frame) {
  if (frame.payload.size() < 12)
    throw net::ProtocolError("NetWorker: malformed welcome frame");
  const std::uint64_t coord_read_seq = net::get_u64(frame.payload, 0);
  const std::uint32_t fp_len = net::get_u32(frame.payload, 8);
  if (frame.payload.size() < 12 + fp_len)
    throw net::ProtocolError("NetWorker: malformed welcome frame");
  const std::string fingerprint = frame.payload.substr(12, fp_len);
  const std::string spec_json = frame.payload.substr(12 + fp_len);
  if (coord_read_seq == net::kSessionCompleted) {
    // The coordinator holds the island result and GC'd the session; it only
    // acks the final after durably writing it, so we are done.
    if (!final_sent_)
      throw net::ProtocolError(
          "NetWorker: coordinator reports island " +
          std::to_string(config_.island) +
          " complete but this worker never uploaded a result — stale state "
          "dir?");
    complete();
    return;
  }
  if (!fingerprint_.empty() && fingerprint_ != fingerprint)
    throw net::ProtocolError(
        "NetWorker: coordinator spec changed mid-session (journaled '" +
        fingerprint_ + "', coordinator sent '" + fingerprint +
        "') — refusing to mix two searches in one island");
  if (!spec_.has_value()) adopt_spec(spec_json);
  if (spec_fingerprint(*spec_) != fingerprint)
    throw net::ProtocolError(
        "NetWorker: local spec fingerprint " + spec_fingerprint(*spec_) +
        " does not match the coordinator's " + fingerprint);
  if (coord_read_seq < writer_.acked() ||
      coord_read_seq > writer_.write_seq())
    throw net::ProtocolError(
        "NetWorker: coordinator read_seq " + std::to_string(coord_read_seq) +
        " outside our replay window [" + std::to_string(writer_.acked()) +
        ", " + std::to_string(writer_.write_seq()) + "]");
  const bool first = fingerprint_.empty();
  fingerprint_ = fingerprint;
  writer_.ack(coord_read_seq);
  reader_.clear_inbox();
  transport_.set_flush_cursor(coord_read_seq);
  handshaken_ = true;
  handshake_failures_ = 0;
  if (first) save();  // journal the fingerprint we committed to
}

bool NetWorker::advance() {
  bool mutated = false;
  while (std::optional<net::PeekedFrame> peeked =
             net::peek_frame(reader_.inbox())) {
    const DistChunk chunk = parse_dist_chunk(peeked->frame);
    if (chunk.type != net::FrameType::kDistMigrants)
      throw net::ProtocolError(
          std::string("NetWorker: unexpected app frame '") +
          net::frame_type_name(chunk.type) + "'");
    if (chunk.island != inbound_neighbor(*spec_, config_.island))
      throw net::ProtocolError(
          "NetWorker: pushed migrants labelled island " +
          std::to_string(chunk.island) + " but island " +
          std::to_string(config_.island) + "'s inbound neighbor is " +
          std::to_string(inbound_neighbor(*spec_, config_.island)));
    inbound_.accept(chunk, config_.state_dir);
    reader_.consume(peeked->encoded_size);
    mutated = true;
  }
  if (!mutated) return false;
  // save-before-ack: journal the consumed bytes (and any durably written
  // migrant file) before the ack can reach the coordinator.
  save();
  transport_.send_frame(ack_frame(reader_.read_seq()));
  return true;
}

void NetWorker::beat() {
  hadas::util::failpoint("dist.heartbeat");
  const auto now = Clock::now();
  if (config_.beat_every_ms > 0 &&
      now - last_beat_ < std::chrono::milliseconds(config_.beat_every_ms))
    return;
  last_beat_ = now;
  if (!handshaken_ || !transport_.attached()) return;
  // A duplicate ack is a no-op for the stream but proves this island alive
  // to the coordinator's watchdog while the engine grinds through a round.
  transport_.send_frame(ack_frame(reader_.read_seq()));
  transport_.pump(writer_);
}

bool NetWorker::work_step() {
  if (!spec_.has_value()) return false;
  const DistSpec& spec = *spec_;
  bool did = false;
  switch (step_island(*space_, spec, config_.state_dir, config_.island,
                      /*failpoints_on=*/true, config_.cancel,
                      [this](std::size_t) { beat(); })) {
    case IslandStep::kFinished:
      if (final_sent_) break;
      append_blob(writer_, net::FrameType::kDistFinal, config_.island, 0,
                  DurableFile::read(
                      final_path(config_.state_dir, config_.island),
                      kIslandResultFormatTag));
      final_sent_ = true;
      // Journal the queued upload before any pump can flush it.
      save();
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
      append_blob(writer_, net::FrameType::kDistMigrants, config_.island,
                  round, DurableFile::read(path, kMigrantsFormatTag));
      sent_.insert(round);
      dist_net_metrics().migrant_sets_sent.inc();
      queued = true;
    }
    if (queued) {
      save();
      did = true;
    }
  }
  return did;
}

bool NetWorker::step() {
  if (done_) return false;
  if (handshake_failures_ >= config_.max_handshake_failures)
    throw net::ProtocolError(
        "NetWorker: coordinator at " + config_.connect.host + ":" +
        std::to_string(config_.connect.port) + " dropped " +
        std::to_string(handshake_failures_) +
        " consecutive connections before completing a handshake");
  // The pump that saw the last connection close (in beat() or the flush at
  // the end of step()) may have decoded the coordinator's last frames with
  // it: the ack of our result, after which a coordinator holding every
  // result exits. Take that ack before try_connect()'s attach() discards it.
  if (handshaken_ && !transport_.attached()) {
    try {
      while (std::optional<net::Frame> frame = transport_.next())
        if (frame->type == net::FrameType::kAck)
          writer_.ack(net::get_u64(frame->payload, 0));
    } catch (const net::FrameError&) {
      // A corrupt tail of the dead connection: the next handshake replays.
    }
    if (final_sent_ && writer_.acked() == writer_.write_seq()) {
      complete();
      return true;
    }
  }
  // A failed dial does NOT end the step: a worker holding the spec keeps
  // computing rounds while the coordinator is unreachable.
  const bool online = transport_.attached() || try_connect();
  bool progress = false;
  bool died = false;
  if (online) {
    const bool alive = transport_.pump(writer_);
    try {
      std::optional<net::Frame> frame;
      while ((frame = transport_.next())) {
        progress = true;
        if (frame->type == net::FrameType::kRefuse) {
          throw net::ProtocolError("NetWorker: coordinator refused session '" +
                                   dist_session_id(config_.island) +
                                   "': " + frame->payload);
        } else if (!handshaken_) {
          if (frame->type != net::FrameType::kWelcome)
            throw net::ProtocolError(
                std::string("NetWorker: expected welcome, got '") +
                net::frame_type_name(frame->type) + "'");
          handle_welcome(*frame);
          if (done_) return true;
        } else if (frame->type == net::FrameType::kData) {
          if (frame->payload.size() < 8)
            throw net::ProtocolError("NetWorker: malformed data frame");
          reader_.offer(net::get_u64(frame->payload, 0),
                        std::string_view(frame->payload).substr(8));
        } else if (frame->type == net::FrameType::kAck) {
          writer_.ack(net::get_u64(frame->payload, 0));
        } else {
          throw net::ProtocolError(
              std::string("NetWorker: unexpected transport frame '") +
              net::frame_type_name(frame->type) + "'");
        }
      }
      if (handshaken_) progress |= advance();
    } catch (const net::FrameError&) {
      transport_.drop();  // corrupt transport bytes: reconnect and replay
      return true;
    }
    if (!alive) {
      // A connection that died without reaching WELCOME: a silently-
      // rejecting coordinator would otherwise look like endless clean
      // reconnects — count it so step() can give up loudly.
      if (!handshaken_) ++handshake_failures_;
      handshaken_ = false;
      died = true;
    }
  }
  progress |= work_step();
  // An idle worker (waiting on inbound migrants) still beats: a partition
  // of *another* island must not make this one look silent to the watchdog.
  if (handshaken_ && transport_.attached()) beat();
  if (final_sent_ && writer_.acked() == writer_.write_seq()) {
    // The coordinator durably consumed everything including the final.
    complete();
    return true;
  }
  if (transport_.attached()) transport_.pump(writer_);
  return progress || died;
}

int NetWorker::run() {
  hadas::util::failpoint("dist.worker.start");
  auto last_progress = Clock::now();
  while (!done_) {
    if (cancelled()) return kWorkerExitInterrupted;
    if (connect_failures_ >= config_.max_connect_attempts)
      throw net::ConnectError(
          "NetWorker: cannot reach " + config_.connect.host + ":" +
          std::to_string(config_.connect.port) + " after " +
          std::to_string(connect_failures_) + " attempts");
    const bool progress = step();
    if (done_) break;
    const auto now = Clock::now();
    if (progress) {
      last_progress = now;
    } else {
      if (now - last_progress >
          std::chrono::milliseconds(config_.wait_timeout_ms))
        return kWorkerExitWaitTimeout;
      handler().wait(static_cast<int>(
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
