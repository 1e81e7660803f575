#include "dist/net_transport.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include "dist/metrics.hpp"
#include "dist/worker.hpp"
#include "obs/metrics.hpp"
#include "util/durable/durable_file.hpp"
#include "util/failpoint.hpp"
#include "util/strutil.hpp"

extern char** environ;

namespace hadas::dist {

using util::durable::DurableFile;

namespace {

const net::BackedWriter& empty_writer() {
  static const net::BackedWriter writer;
  return writer;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf, 16);
}

std::string describe_exit(int status) {
  if (WIFEXITED(status))
    return "exit code " + std::to_string(WEXITSTATUS(status));
  if (WIFSIGNALED(status))
    return "signal " + std::to_string(WTERMSIG(status));
  return "status " + std::to_string(status);
}

/// A spawned worker's environment: HADAS_DIST_HANG never survives a respawn
/// (it is a one-shot hang injection), and HADAS_CHAOS only does in keep
/// mode — a plain crash schedule gets exactly one incarnation to fire, so
/// recovery runs clean, while keep mode deliberately produces a crash loop
/// for the quarantine path.
std::vector<std::string> child_environment(bool respawn, bool chaos_keep) {
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry(*e);
    if (respawn && util::starts_with(entry, "HADAS_DIST_HANG=")) continue;
    if (respawn && !chaos_keep && util::starts_with(entry, "HADAS_CHAOS="))
      continue;
    env.push_back(entry);
  }
  return env;
}

/// NULL-terminated pointer array over `strings` for execve.
std::vector<char*> c_strings(std::vector<std::string>& strings) {
  std::vector<char*> pointers;
  pointers.reserve(strings.size() + 1);
  for (std::string& entry : strings) pointers.push_back(entry.data());
  pointers.push_back(nullptr);
  return pointers;
}

}  // namespace

net::Frame ack_frame(std::uint64_t read_seq) {
  net::Frame frame;
  frame.type = net::FrameType::kAck;
  net::put_u64(frame.payload, read_seq);
  return frame;
}

util::Json rounds_to_json(const std::set<std::size_t>& rounds) {
  util::Json::Array array;
  for (std::size_t round : rounds)
    array.emplace_back(std::to_string(round));
  return util::Json(std::move(array));
}

std::set<std::size_t> rounds_from_json(const util::Json& json) {
  std::set<std::size_t> rounds;
  for (const util::Json& entry : json.as_array())
    rounds.insert(util::parse_size("session round", entry.as_string()));
  return rounds;
}

std::string dist_session_id(std::size_t island) {
  return "island-" + std::to_string(island);
}

std::optional<std::size_t> parse_dist_session_id(const std::string& id) {
  const std::string prefix = "island-";
  if (!util::starts_with(id, prefix)) return std::nullopt;
  try {
    return util::parse_size("dist session island", id.substr(prefix.size()));
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::string dist_session_path(const std::string& workdir, std::size_t island) {
  return workdir + "/session-" + dist_session_id(island) + ".json";
}

std::string spec_fingerprint(const DistSpec& spec) {
  return "spec-" + hex16(util::durable::crc64(spec_to_json(spec).dump(0)));
}

void append_blob(net::BackedWriter& writer, net::FrameType type,
                 std::size_t island, std::size_t round,
                 const std::string& text) {
  for (std::size_t at = 0;; at += kDistChunkBytes) {
    const bool last = at + kDistChunkBytes >= text.size();
    std::string payload;
    net::put_u64(payload, island);
    net::put_u64(payload, round);
    net::put_u32(payload, last ? 1 : 0);
    payload += text.substr(at, kDistChunkBytes);
    writer.append(net::encode_frame(type, payload));
    if (last) break;
  }
}

DistChunk parse_dist_chunk(const net::Frame& frame) {
  if (frame.payload.size() < 8 + 8 + 4)
    throw net::ProtocolError(std::string("dist-net: malformed ") +
                             net::frame_type_name(frame.type) + " frame");
  DistChunk chunk;
  chunk.type = frame.type;
  chunk.island = net::get_u64(frame.payload, 0);
  chunk.round = net::get_u64(frame.payload, 8);
  chunk.last = (net::get_u32(frame.payload, 16) & 1) != 0;
  chunk.bytes = frame.payload.substr(20);
  return chunk;
}

std::string dist_chunk_key(const DistChunk& chunk) {
  if (chunk.type == net::FrameType::kDistFinal)
    return "f:" + std::to_string(chunk.island);
  return "m:" + std::to_string(chunk.island) + ":" +
         std::to_string(chunk.round);
}

bool ChunkRun::accept(const DistChunk& chunk, const std::string& dir) {
  const std::string chunk_key = dist_chunk_key(chunk);
  if (!key.empty() && key != chunk_key)
    throw net::ProtocolError("dist-net: interleaved chunk runs ('" + key +
                             "' interrupted by '" + chunk_key + "')");
  if (!chunk.last) {
    key = chunk_key;
    partial += chunk.bytes;
    return false;
  }
  const std::string text = partial + chunk.bytes;
  partial.clear();
  key.clear();

  const bool result = chunk.type == net::FrameType::kDistFinal;
  const std::string path = result
                               ? final_path(dir, chunk.island)
                               : migrants_path(dir, chunk.island, chunk.round);
  const bool wrote = DurableFile::write_idempotent(
      path, result ? kIslandResultFormatTag : kMigrantsFormatTag, text);
  std::string problem;
  try {
    if (result) {
      (void)load_island_result(path);
    } else if (const MigrantSet set = load_migrants_file(path);
               set.island != chunk.island || set.round != chunk.round) {
      problem = "it carries island " + std::to_string(set.island) +
                " round " + std::to_string(set.round);
    }
  } catch (const util::durable::CheckpointCorruptError& error) {
    problem = error.what();
  }
  if (!problem.empty()) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
    throw net::ProtocolError("dist-net: malformed payload for '" + chunk_key +
                             "': " + problem);
  }
  DistNetMetrics& metrics = dist_net_metrics();
  if (result) {
    metrics.finals_received.inc();
  } else {
    metrics.migrant_sets_received.inc();
    if (!wrote) metrics.migrant_sets_replayed.inc();
  }
  return true;
}

DistNetMetrics& dist_net_metrics() {
  static DistNetMetrics metrics;
  return metrics;
}

NetTransport::NetTransport(DistSpec spec, std::string workdir,
                           const DistOptions& options,
                           std::function<void(const std::string&)> say)
    : spec_(std::move(spec)),
      workdir_(std::move(workdir)),
      options_(options),
      say_(std::move(say)),
      fingerprint_(spec_fingerprint(spec_)),
      space_(spec_.search_space()) {
  if (spawning() && options_.socket_handler != nullptr)
    throw std::invalid_argument(
        "NetTransport: spawned workers dial real TCP; a custom socket "
        "handler needs options.listen");
  if (options_.socket_handler == nullptr)
    owned_handler_ = std::make_unique<net::TcpSocketHandler>();
  // Materialize the dist.net.* family up front so a --metrics-out snapshot
  // lists it (at zero) even for a run with no network traffic at all.
  dist_net_metrics();
}

NetTransport::~NetTransport() {
  stop_workers(std::chrono::milliseconds(0));
  for (const std::unique_ptr<Conn>& conn : connections_)
    if (conn != nullptr) conn->transport.drop();
  if (started_) handler().close_listener(listener_);
}

net::SocketHandler& NetTransport::handler() {
  return options_.socket_handler != nullptr ? *options_.socket_handler
                                            : *owned_handler_;
}

bool NetTransport::cancelled() const {
  return options_.cancel != nullptr &&
         options_.cancel->load(std::memory_order_relaxed);
}

void NetTransport::start() {
  if (started_) return;
  std::filesystem::create_directories(workdir_);
  sessions_.resize(spec_.islands);
  done_.assign(spec_.islands, false);
  const auto now = Clock::now();
  for (std::size_t i = 0; i < spec_.islands; ++i) {
    done_[i] =
        DurableFile::holds(final_path(workdir_, i), kIslandResultFormatTag);
    sessions_[i].last_activity = now;
  }
  if (spawning()) {
    listener_ = owned_handler_->listen({"127.0.0.1", 0});
    port_ = owned_handler_->bound_port(listener_);
    local_.resize(spec_.islands);
  } else {
    listener_ = handler().listen(*options_.listen);
  }
  started_ = true;
}

bool NetTransport::finished() const {
  for (std::size_t i = 0; i < done_.size(); ++i)
    if (!done_[i]) return false;
  return !done_.empty();
}

std::size_t NetTransport::quarantined_count() const {
  std::size_t count = 0;
  for (const IslandSession& session : sessions_)
    if (session.quarantined) ++count;
  return count;
}

void NetTransport::touch_activity(std::size_t island) {
  IslandSession& session = sessions_[island];
  session.last_activity = Clock::now();
  session.misses = 0;
}

void NetTransport::observe_acked(IslandSession& session,
                                 std::uint64_t acked) {
  if (session.inflight.empty()) return;
  const auto now = Clock::now();
  auto& inflight = session.inflight;
  std::size_t kept = 0;
  for (auto& entry : inflight) {
    if (entry.first <= acked) {
      dist_net_metrics().migration_latency.observe(
          std::chrono::duration<double>(now - entry.second).count());
    } else {
      inflight[kept++] = entry;
    }
  }
  inflight.resize(kept);
}

NetTransport::IslandSession* NetTransport::find_session(std::size_t island) {
  IslandSession& session = sessions_[island];
  if (session.live) return &session;
  std::optional<net::SessionState> state = net::load_session_state(
      dist_session_path(workdir_, island), kDistSessionFormatTag);
  if (!state) return nullptr;
  if (state->fingerprint != fingerprint_)
    throw net::ProtocolError(
        "dist-net: session journal of island " + std::to_string(island) +
        " was written under a different spec (journaled '" +
        state->fingerprint + "', running '" + fingerprint_ + "')");
  session.writer.restore(state->write_acked, state->write_unacked);
  session.reader.restore(state->read_seq);
  session.pushed = rounds_from_json(state->app.at("pushed"));
  session.inbound.partial = state->app.at("partial").as_string();
  session.inbound.key = state->app.at("partial_key").as_string();
  session.live = true;
  dist_net_metrics().sessions_resumed.inc();
  return &session;
}

void NetTransport::save_session(std::size_t island) {
  const IslandSession& session = sessions_[island];
  net::SessionState state;
  state.session_id = dist_session_id(island);
  state.fingerprint = fingerprint_;
  state.write_acked = session.writer.acked();
  state.write_unacked = session.writer.unacked();
  state.read_seq = session.reader.read_seq();
  util::Json::Object app;
  app["pushed"] = rounds_to_json(session.pushed);
  app["partial"] = util::Json(session.inbound.partial);
  app["partial_key"] = util::Json(session.inbound.key);
  state.app = util::Json(std::move(app));
  net::save_session_state(dist_session_path(workdir_, island),
                          std::move(state), kDistSessionFormatTag);
}

bool NetTransport::refuse(Conn& conn, const std::string& reason) {
  net::Frame frame;
  frame.type = net::FrameType::kRefuse;
  frame.payload = reason;
  conn.transport.send_frame(frame);
  conn.closing = true;  // drain the refusal, then drop
  dist_net_metrics().refusals.inc();
  return true;
}

bool NetTransport::handle_hello(Conn& conn, const net::Frame& frame) {
  if (frame.payload.size() < 4 + 8)
    return refuse(conn, "malformed hello frame");
  const std::uint32_t version = net::get_u32(frame.payload, 0);
  if (version != net::kProtocolVersion)
    return refuse(conn, "protocol version " + std::to_string(version) +
                            " not supported (coordinator speaks " +
                            std::to_string(net::kProtocolVersion) + ")");
  const std::uint64_t worker_read_seq = net::get_u64(frame.payload, 4);
  const std::string id = frame.payload.substr(12);
  const std::optional<std::size_t> island = parse_dist_session_id(id);
  if (!island.has_value())
    return refuse(conn, "invalid dist session id '" + id +
                            "' (expected island-<index>)");
  if (*island >= spec_.islands)
    return refuse(conn, "island " + std::to_string(*island) +
                            " out of range (spec has " +
                            std::to_string(spec_.islands) + " islands)");
  if (sessions_[*island].quarantined)
    return refuse(conn, "island " + std::to_string(*island) +
                            " was quarantined after repeated partitions and "
                            "is being finished inline by the coordinator");

  // A newer connection for an island steals the session from a stale one (a
  // worker that rebooted while its old socket is still half-open).
  for (const std::unique_ptr<Conn>& other : connections_) {
    if (other != nullptr && other.get() != &conn && other->island == *island)
      other->transport.drop();
  }

  IslandSession* session = nullptr;
  try {
    session = find_session(*island);
  } catch (const net::ProtocolError& error) {
    return refuse(conn, error.what());
  } catch (const util::durable::CheckpointCorruptError& error) {
    // An unreadable coordinator journal cannot serve this session; the
    // refusal loop ends in quarantine + inline salvage, which converges.
    return refuse(conn, std::string("dist-net: session journal corrupt: ") +
                            error.what());
  }
  const auto welcome_tail = [&](net::Frame& welcome) {
    const std::string spec_json = spec_to_json(spec_).dump(0);
    net::put_u32(welcome.payload,
                 static_cast<std::uint32_t>(fingerprint_.size()));
    welcome.payload += fingerprint_;
    welcome.payload += spec_json;
  };
  if (session == nullptr && done_[*island]) {
    // The island's result is durable and its session was garbage-collected:
    // the worker only needs to learn that it is done.
    net::Frame welcome;
    welcome.type = net::FrameType::kWelcome;
    net::put_u64(welcome.payload, net::kSessionCompleted);
    welcome_tail(welcome);
    conn.transport.send_frame(welcome);
    conn.island = *island;
    conn.handshaken = true;
    conn.closing = true;
    return true;
  }
  if (session == nullptr && worker_read_seq > 0)
    // The worker durably consumed stream bytes this coordinator has no
    // journal for, and the island is not finished — unservable.
    return refuse(conn, "durable read_seq " + std::to_string(worker_read_seq) +
                            " for island " + std::to_string(*island) +
                            " but the coordinator holds no session journal — "
                            "worker journal and coordinator workdir disagree");
  if (session == nullptr) {
    session = &sessions_[*island];
    session->live = true;
  }
  if (worker_read_seq < session->writer.acked() ||
      worker_read_seq > session->writer.write_seq())
    return refuse(conn, "durable read_seq " + std::to_string(worker_read_seq) +
                            " is outside island " + std::to_string(*island) +
                            " replay window [" +
                            std::to_string(session->writer.acked()) + ", " +
                            std::to_string(session->writer.write_seq()) +
                            "] — worker journal lost or regressed");

  session->writer.ack(worker_read_seq);
  session->reader.clear_inbox();  // un-consumed bytes come back via replay
  conn.transport.set_flush_cursor(worker_read_seq);

  net::Frame welcome;
  welcome.type = net::FrameType::kWelcome;
  net::put_u64(welcome.payload, session->reader.read_seq());
  welcome_tail(welcome);
  conn.transport.send_frame(welcome);
  conn.island = *island;
  conn.handshaken = true;
  touch_activity(*island);
  return true;
}

bool NetTransport::apply_app_frame(std::size_t island, IslandSession& session,
                                   const net::Frame& frame) {
  if (frame.type != net::FrameType::kDistMigrants &&
      frame.type != net::FrameType::kDistFinal)
    throw net::ProtocolError(
        std::string("dist-net: unexpected app frame '") +
        net::frame_type_name(frame.type) + "' from island " +
        std::to_string(island));
  const DistChunk chunk = parse_dist_chunk(frame);
  if (chunk.island != island)
    throw net::ProtocolError(
        "dist-net: island " + std::to_string(island) +
        " sent an artifact labelled island " + std::to_string(chunk.island));
  if (chunk.type == net::FrameType::kDistMigrants &&
      chunk.round + 1 >= round_count(spec_))
    throw net::ProtocolError("dist-net: migrant round " +
                             std::to_string(chunk.round) + " out of range");
  if (!session.inbound.accept(chunk, workdir_) ||
      chunk.type != net::FrameType::kDistFinal)
    return false;
  // The island result is durable: the session completes (journal GC'd
  // after the ack in advance_session).
  done_[island] = true;
  return true;
}

bool NetTransport::advance_session(Conn& conn) {
  IslandSession& session = sessions_[conn.island];
  bool mutated = false;
  bool completed = false;
  while (std::optional<net::PeekedFrame> peeked =
             net::peek_frame(session.reader.inbox())) {
    completed |= apply_app_frame(conn.island, session, peeked->frame);
    session.reader.consume(peeked->encoded_size);
    mutated = true;
  }
  if (!mutated) return false;
  touch_activity(conn.island);
  if (completed) {
    // Ack the final so the worker can exit, then garbage-collect. A lost
    // ack is covered by the kSessionCompleted handshake answer.
    conn.transport.send_frame(ack_frame(session.reader.read_seq()));
    std::error_code ec;
    std::filesystem::remove(dist_session_path(workdir_, conn.island), ec);
    const bool quarantined = session.quarantined;
    session = IslandSession{};
    session.quarantined = quarantined;
    session.last_activity = Clock::now();
    conn.closing = true;
    say_("dist-net: island " + std::to_string(conn.island) +
         " result received; session complete");
  } else {
    // save-before-ack: the ack must never outrun the journal.
    save_session(conn.island);
    conn.transport.send_frame(ack_frame(session.reader.read_seq()));
  }
  return true;
}

bool NetTransport::push_migrants(Conn& conn) {
  if (spec_.islands <= 1) return false;
  IslandSession& session = sessions_[conn.island];
  if (!session.live) return false;
  const std::size_t sender = inbound_neighbor(spec_, conn.island);
  const bool timed = obs::enabled();
  bool appended = false;
  for (std::size_t round = 0; round + 1 < round_count(spec_); ++round) {
    if (session.pushed.count(round) != 0) continue;
    const std::string path = migrants_path(workdir_, sender, round);
    if (!DurableFile::holds(path, kMigrantsFormatTag)) continue;
    const std::string text = DurableFile::read(path, kMigrantsFormatTag);
    append_blob(session.writer, net::FrameType::kDistMigrants, sender, round,
                text);
    session.pushed.insert(round);
    dist_net_metrics().migrant_sets_sent.inc();
    if (timed)
      session.inflight.emplace_back(session.writer.write_seq(), Clock::now());
    appended = true;
  }
  // Journal the appended bytes before any pump can flush them: a crash
  // after sending un-journaled bytes would leave the worker's durable
  // read_seq ahead of the restored writer — an unservable session.
  if (appended) save_session(conn.island);
  return appended;
}

void NetTransport::quarantine(std::size_t island, const std::string& reason,
                              DistReport& report) {
  IslandSession& session = sessions_[island];
  session.quarantined = true;
  ++report.workers_quarantined;
  dist_metrics().quarantined.inc();
  dist_net_metrics().quarantines.inc();
  hadas::util::failpoint("dist.salvage");
  for (const std::unique_ptr<Conn>& conn : connections_)
    if (conn != nullptr && conn->island == island) conn->transport.drop();
  say_("dist: WARNING island " + std::to_string(island) + " quarantined after " +
       reason + "; finishing it inline");
}

bool NetTransport::watchdog(DistReport& report) {
  const auto now = Clock::now();
  const auto window = std::chrono::milliseconds(
      std::max<std::size_t>(1, options_.heartbeat_ms));
  const std::size_t threshold =
      std::max<std::size_t>(1, options_.island_failure_threshold);
  bool progress = false;
  for (std::size_t island = 0; island < sessions_.size(); ++island) {
    IslandSession& session = sessions_[island];
    if (done_[island] || session.quarantined) continue;
    // A spawned worker that is not running cannot be silent: its restart
    // backoff is ours.
    if (spawning() && local_[island].pid < 0) continue;
    if (now - session.last_activity <= window) continue;
    session.last_activity = now;
    ++report.heartbeat_misses;
    dist_metrics().heartbeat_misses.inc();
    progress = true;
    if (spawning()) {
      // A local worker gets one window: it is hung, not partitioned.
      ::kill(local_[island].pid, SIGKILL);
      int status = 0;
      ::waitpid(local_[island].pid, &status, 0);
      worker_failed(island, "heartbeat stalled, SIGKILLed", report);
      continue;
    }
    ++session.misses;
    say_("dist-net: island " + std::to_string(island) +
         " heartbeat window missed (" + std::to_string(session.misses) + "/" +
         std::to_string(threshold) + ")");
    if (session.misses >= threshold)
      quarantine(island,
                 std::to_string(threshold) +
                     " missed heartbeat windows (partitioned?)",
                 report);
  }
  return progress;
}

bool NetTransport::salvage_step() {
  bool progress = false;
  bool ran = false;
  for (std::size_t island = 0; island < sessions_.size(); ++island) {
    if (!sessions_[island].quarantined || done_[island]) continue;
    if (cancelled()) return progress;
    // Dist failpoints stay off: the chaos schedule that broke the workers
    // must not also kill the last-resort recovery. A blocked island waits
    // for its sender's migrants — uploaded by a healthy worker or written
    // by this same salvage — and is retried next step.
    switch (step_island(space_, spec_, workdir_, island,
                        /*failpoints_on=*/false, options_.cancel)) {
      case IslandStep::kFinished:
        done_[island] = true;
        progress = true;
        break;
      case IslandStep::kAdvanced:
        ran = true;
        progress = true;
        break;
      case IslandStep::kBlocked:
        break;
      case IslandStep::kCancelled:
        return progress;  // state checkpointed
    }
  }
  if (ran) {
    // An inline step blocked this loop for seconds; the silence was ours,
    // not the workers' — restart every live island's activity window.
    const auto now = Clock::now();
    for (IslandSession& session : sessions_) session.last_activity = now;
  }
  return progress;
}

bool NetTransport::reap_and_spawn(DistReport& report) {
  bool progress = false;
  const auto now = Clock::now();
  for (std::size_t island = 0; island < local_.size(); ++island) {
    LocalWorker& worker = local_[island];
    if (worker.pid > 0) {
      int status = 0;
      if (::waitpid(worker.pid, &status, WNOHANG) != worker.pid) continue;
      worker.pid = -1;
      progress = true;
      // A worker exits 0 only after the ack of its durable result, so an
      // island still open here lost its worker.
      if (!done_[island]) worker_failed(island, describe_exit(status), report);
    } else if (!done_[island] && !sessions_[island].quarantined &&
               now >= worker.next_start) {
      spawn_worker(island, report);
      progress = true;
    }
  }
  return progress;
}

void NetTransport::spawn_worker(std::size_t island, DistReport& report) {
  LocalWorker& worker = local_[island];
  hadas::util::failpoint("dist.spawn");
  const bool respawn = worker.failures > 0;
  const std::string dir = worker_dir(workdir_, island);
  std::filesystem::create_directories(dir);
  const std::string log_file = log_path(workdir_, island);
  // Everything the child needs is built before fork(): between fork and
  // exec it only makes async-signal-safe calls.
  std::vector<std::string> args = {
      "/proc/self/exe",
      "worker",
      "--connect",
      "127.0.0.1:" + std::to_string(port_),
      "--island",
      std::to_string(island),
      "--state-dir",
      dir,
      "--wait-timeout-ms",
      std::to_string(options_.worker_wait_timeout_ms)};
  std::vector<std::string> env =
      child_environment(respawn, options_.chaos_respawn_keep);
  const std::vector<char*> argv = c_strings(args);
  const std::vector<char*> envp = c_strings(env);
  const pid_t coordinator = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0)
    throw std::runtime_error(std::string("dist: fork failed: ") +
                             std::strerror(errno));
  if (pid == 0) {
    // Die with the coordinator: an orphan would keep writing its state
    // directory while a rerun's worker writes the same one. The signal
    // fires when the forking thread exits, which is the supervising one,
    // alive for the whole run. The getppid() check catches a coordinator
    // that died before prctl took effect.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != coordinator) ::_exit(127);
    const int fd =
        ::open(log_file.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
    }
    // The listener and the other islands' sessions stay the coordinator's.
    ::close_range(3, ~0U, 0);
    ::execve(argv[0], argv.data(), envp.data());
    static const char message[] = "dist: exec of the worker binary failed\n";
    (void)!::write(STDERR_FILENO, message, sizeof(message) - 1);
    ::_exit(127);
  }
  worker.pid = pid;
  sessions_[island].last_activity = Clock::now();
  ++report.workers_spawned;
  dist_metrics().spawned.inc();
  if (respawn) {
    ++report.workers_restarted;
    dist_metrics().restarted.inc();
  }
}

void NetTransport::worker_failed(std::size_t island, const std::string& why,
                                 DistReport& report) {
  LocalWorker& worker = local_[island];
  worker.pid = -1;
  const std::size_t threshold =
      std::max<std::size_t>(1, options_.island_failure_threshold);
  if (++worker.failures >= threshold) {
    quarantine(island,
               std::to_string(threshold) + " worker failure(s) (last: " + why +
                   ")",
               report);
    return;
  }
  std::size_t delay = std::max<std::size_t>(1, options_.backoff_ms);
  const std::size_t ceiling = std::max<std::size_t>(1, options_.backoff_max_ms);
  for (std::size_t i = 1; i < worker.failures && delay < ceiling; ++i)
    delay *= 2;
  worker.next_start =
      Clock::now() + std::chrono::milliseconds(std::min(delay, ceiling));
  say_("dist: island " + std::to_string(island) + " worker failed (" + why +
       "), restart " + std::to_string(worker.failures) + " after backoff");
}

void NetTransport::stop_workers(std::chrono::milliseconds grace) {
  const auto signal_all = [&](int signal) {
    for (const LocalWorker& worker : local_)
      if (worker.pid > 0) ::kill(worker.pid, signal);
  };
  if (grace.count() > 0) {
    // SIGTERM lets workers checkpoint and exit 75; stragglers are
    // SIGKILLed below (their round replays on resume).
    signal_all(SIGTERM);
    const auto deadline = Clock::now() + grace;
    bool any = true;
    while (any && Clock::now() < deadline) {
      any = false;
      for (LocalWorker& worker : local_) {
        if (worker.pid <= 0) continue;
        int status = 0;
        if (::waitpid(worker.pid, &status, WNOHANG) == worker.pid)
          worker.pid = -1;
        else
          any = true;
      }
      if (any) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  signal_all(SIGKILL);
  for (LocalWorker& worker : local_) {
    if (worker.pid <= 0) continue;
    int status = 0;
    ::waitpid(worker.pid, &status, 0);
    worker.pid = -1;
  }
}

bool NetTransport::step(DistReport& report) {
  if (!started_) start();
  bool progress = false;
  while (std::unique_ptr<net::Socket> socket = handler().accept(listener_)) {
    auto conn = std::make_unique<Conn>();
    conn->transport.attach(std::move(socket));
    connections_.push_back(std::move(conn));
    progress = true;
  }
  // Dead slots are nulled in place (never reordered) so handle_hello's
  // session-steal scan sees every still-live connection during the pass;
  // the vector is compacted once at the end.
  for (std::size_t i = 0; i < connections_.size(); ++i) {
    Conn& conn = *connections_[i];
    bool alive = true;
    try {
      const auto writer_of = [&]() -> const net::BackedWriter& {
        return conn.handshaken && sessions_[conn.island].live
                   ? sessions_[conn.island].writer
                   : empty_writer();
      };
      alive = conn.transport.pump(writer_of());
      bool ok = true;
      std::optional<net::Frame> frame;
      while (ok && !conn.closing && (frame = conn.transport.next())) {
        progress = true;
        if (!conn.handshaken) {
          ok = frame->type == net::FrameType::kHello &&
               handle_hello(conn, *frame);
        } else if (frame->type == net::FrameType::kData) {
          if (frame->payload.size() < 8)
            throw net::ProtocolError("dist-net: malformed data frame");
          sessions_[conn.island].reader.offer(
              net::get_u64(frame->payload, 0),
              std::string_view(frame->payload).substr(8));
          touch_activity(conn.island);
        } else if (frame->type == net::FrameType::kAck) {
          IslandSession& session = sessions_[conn.island];
          session.writer.ack(net::get_u64(frame->payload, 0));
          observe_acked(session, session.writer.acked());
          // Heartbeats piggyback on acks: a worker deep inside a round
          // keeps re-sending its current read_seq, and any ack — novel or
          // duplicate — proves the island alive.
          touch_activity(conn.island);
        } else {
          throw net::ProtocolError(
              std::string("dist-net: unexpected transport frame '") +
              net::frame_type_name(frame->type) + "'");
        }
      }
      if (ok && conn.handshaken && !conn.closing &&
          sessions_[conn.island].live)
        progress |= advance_session(conn);
      if (ok && conn.handshaken && !conn.closing &&
          !sessions_[conn.island].quarantined)
        progress |= push_migrants(conn);
      if (!ok) alive = false;
      if (alive) alive = conn.transport.pump(writer_of());
    } catch (const net::ProtocolError& error) {
      say_("dist-net: connection error: " + std::string(error.what()));
      alive = false;
    } catch (const net::FrameError&) {
      alive = false;
    }
    if (!alive) {
      conn.transport.drop();
      connections_[i] = nullptr;  // dies; session state stays for a resume
      progress = true;
    } else if (conn.closing && conn.transport.outbox_size() == 0) {
      conn.transport.drop();
      connections_[i] = nullptr;
      progress = true;
    }
  }
  std::erase_if(connections_,
                [](const std::unique_ptr<Conn>& c) { return c == nullptr; });
  if (spawning()) progress |= reap_and_spawn(report);
  progress |= watchdog(report);
  progress |= salvage_step();
  return progress;
}

bool NetTransport::supervise(DistReport& report) {
  start();
  if (!spawning())
    say_("dist-net: listening on " + options_.listen->host + ":" +
         std::to_string(options_.listen->port) + " for " +
         std::to_string(spec_.islands) + " island worker(s)");
  const auto workers_running = [&] {
    for (const LocalWorker& worker : local_)
      if (worker.pid > 0) return true;
    return false;
  };
  std::optional<Clock::time_point> finished_at;
  while (true) {
    if (cancelled()) {
      stop_workers(std::chrono::seconds(10));
      return false;
    }
    const bool progress = step(report);
    if (finished()) {
      // Drain: closing connections still hold final acks the workers need
      // to exit; keep pumping briefly, then stop accepting new work.
      if (connections_.empty() && !workers_running()) break;
      if (!finished_at.has_value()) finished_at = Clock::now();
      if (Clock::now() - *finished_at > std::chrono::seconds(5)) break;
    }
    if (!progress)
      handler().wait(
          static_cast<int>(std::max<std::size_t>(1, options_.poll_ms)));
  }
  return true;
}

}  // namespace hadas::dist
