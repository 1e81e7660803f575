#include "dist/net_transport.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
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
    const std::size_t island =
        util::parse_size("dist session island", id.substr(prefix.size()));
    // One spelling per island: "island-07" would be a second session of 7.
    if (dist_session_id(island) == id) return island;
  } catch (const std::exception&) {
  }
  return std::nullopt;
}

std::string dist_session_path(const std::string& workdir, std::size_t island) {
  return net::session_journal_path(workdir, dist_session_id(island));
}

std::string spec_fingerprint(const DistSpec& spec) {
  return "spec-" +
         util::hex_u64(util::durable::crc64(spec_to_json(spec).dump(0)));
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
      space_(spec_.search_space()),
      owned_handler_(options.socket_handler == nullptr
                         ? std::make_unique<net::TcpSocketHandler>()
                         : nullptr),
      host_(options.socket_handler != nullptr ? *options.socket_handler
                                              : *owned_handler_,
            {.label = "dist-net",
             .self = "coordinator",
             .peer = "worker",
             .state_dir = workdir_,
             .format_tag = kDistSessionFormatTag,
             .fingerprint = fingerprint_,
             .refused = &dist_net_metrics().refusals,
             .log =
                 [this](const std::string& what) {
                   say_("dist-net: connection error: " + what);
                 }},
            *this) {
  if (spawning() && options_.socket_handler != nullptr)
    throw std::invalid_argument(
        "NetTransport: spawned workers dial real TCP; a custom socket "
        "handler needs options.listen");
  // Materialize the dist.net.* family up front so a --metrics-out snapshot
  // lists it (at zero) even for a run with no network traffic at all.
  dist_net_metrics();
}

NetTransport::~NetTransport() { stop_workers(std::chrono::milliseconds(0)); }

bool NetTransport::cancelled() const {
  return options_.cancel != nullptr &&
         options_.cancel->load(std::memory_order_relaxed);
}

void NetTransport::start() {
  if (started_) return;
  std::filesystem::create_directories(workdir_);
  islands_.resize(spec_.islands);
  const auto now = Clock::now();
  for (std::size_t i = 0; i < spec_.islands; ++i) {
    islands_[i].done =
        DurableFile::holds(final_path(workdir_, i), kIslandResultFormatTag);
    islands_[i].last_activity = now;
  }
  if (spawning()) {
    port_ = owned_handler_->bound_port(host_.listen({"127.0.0.1", 0}));
    local_.resize(spec_.islands);
  } else {
    host_.listen(*options_.listen);
  }
  started_ = true;
}

bool NetTransport::finished() const {
  for (const Island& island : islands_)
    if (!island.done) return false;
  return !islands_.empty();
}

std::size_t NetTransport::quarantined_count() const {
  std::size_t count = 0;
  for (const Island& island : islands_)
    if (island.quarantined) ++count;
  return count;
}

void NetTransport::touch_activity(std::size_t island) {
  islands_[island].last_activity = Clock::now();
  islands_[island].misses = 0;
}

std::optional<std::string> NetTransport::admit(const std::string& id) {
  const std::optional<std::size_t> island = parse_dist_session_id(id);
  if (!island.has_value())
    return "invalid dist session id '" + id + "' (expected island-<index>)";
  if (*island >= spec_.islands)
    return "island " + std::to_string(*island) + " out of range (spec has " +
           std::to_string(spec_.islands) + " islands)";
  if (islands_[*island].quarantined)
    return "island " + std::to_string(*island) +
           " was quarantined after repeated partitions and is being finished "
           "inline by the coordinator";
  return std::nullopt;
}

bool NetTransport::completed(const std::string& id, std::uint64_t) {
  // Only a durable result completes an island: a worker with a durable
  // read_seq but no coordinator journal and no result is refused.
  return islands_[*parse_dist_session_id(id)].done;
}

void NetTransport::welcome_tail(std::string& payload) {
  net::put_u32(payload, static_cast<std::uint32_t>(fingerprint_.size()));
  payload += fingerprint_;
  payload += spec_to_json(spec_).dump(0);
}

void NetTransport::open(const std::string& id, const util::Json* journaled) {
  Island& island = islands_[*parse_dist_session_id(id)];
  island.reset_session();
  if (journaled == nullptr) return;
  island.pushed = rounds_from_json(journaled->at("pushed"));
  island.inbound.partial = journaled->at("partial").as_string();
  island.inbound.key = journaled->at("partial_key").as_string();
  dist_net_metrics().sessions_resumed.inc();
}

util::Json NetTransport::journal(const std::string& id) {
  const Island& island = islands_[*parse_dist_session_id(id)];
  util::Json::Object app;
  app["pushed"] = rounds_to_json(island.pushed);
  app["partial"] = util::Json(island.inbound.partial);
  app["partial_key"] = util::Json(island.inbound.key);
  return util::Json(std::move(app));
}

bool NetTransport::apply(const std::string& id, const net::Frame& frame,
                         net::BackedWriter&) {
  const std::size_t island = *parse_dist_session_id(id);
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
  if (!islands_[island].inbound.accept(chunk, workdir_) ||
      chunk.type != net::FrameType::kDistFinal)
    return false;
  // The island result is durable: the session completes.
  islands_[island].done = true;
  return true;
}

void NetTransport::close(const std::string& id) {
  const std::size_t index = *parse_dist_session_id(id);
  islands_[index].reset_session();
  touch_activity(index);
  say_("dist-net: island " + std::to_string(index) +
       " result received; session complete");
}

void NetTransport::heard(const std::string& id, const net::BackedWriter& out) {
  const std::size_t index = *parse_dist_session_id(id);
  // Heartbeats piggyback on acks: a worker deep inside a round keeps
  // re-sending its current read_seq, and any frame proves the island alive.
  touch_activity(index);
  auto& inflight = islands_[index].inflight;
  if (inflight.empty()) return;
  const auto now = Clock::now();
  std::erase_if(inflight, [&](const auto& entry) {
    if (entry.first > out.acked()) return false;
    dist_net_metrics().migration_latency.observe(
        std::chrono::duration<double>(now - entry.second).count());
    return true;
  });
}

bool NetTransport::feed(const std::string& id, net::BackedWriter& out) {
  const std::size_t island = *parse_dist_session_id(id);
  Island& state = islands_[island];
  if (spec_.islands <= 1 || state.quarantined) return false;
  const std::size_t sender = inbound_neighbor(spec_, island);
  const bool timed = obs::enabled();
  bool appended = false;
  for (std::size_t round = 0; round + 1 < round_count(spec_); ++round) {
    if (state.pushed.count(round) != 0) continue;
    const std::string path = migrants_path(workdir_, sender, round);
    if (!DurableFile::holds(path, kMigrantsFormatTag)) continue;
    append_blob(out, net::FrameType::kDistMigrants, sender, round,
                DurableFile::read(path, kMigrantsFormatTag));
    state.pushed.insert(round);
    dist_net_metrics().migrant_sets_sent.inc();
    if (timed) state.inflight.emplace_back(out.write_seq(), Clock::now());
    appended = true;
  }
  return appended;
}

void NetTransport::quarantine(std::size_t island, const std::string& reason,
                              DistReport& report) {
  islands_[island].quarantined = true;
  ++report.workers_quarantined;
  dist_metrics().quarantined.inc();
  dist_net_metrics().quarantines.inc();
  hadas::util::failpoint("dist.salvage");
  host_.disconnect(dist_session_id(island));
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
  for (std::size_t island = 0; island < islands_.size(); ++island) {
    Island& state = islands_[island];
    if (state.done || state.quarantined) continue;
    // A spawned worker that is not running cannot be silent: its restart
    // backoff is ours.
    if (spawning() && local_[island].pid < 0) continue;
    if (now - state.last_activity <= window) continue;
    state.last_activity = now;
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
    ++state.misses;
    say_("dist-net: island " + std::to_string(island) +
         " heartbeat window missed (" + std::to_string(state.misses) + "/" +
         std::to_string(threshold) + ")");
    if (state.misses >= threshold)
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
  for (std::size_t island = 0; island < islands_.size(); ++island) {
    if (!islands_[island].quarantined || islands_[island].done) continue;
    if (cancelled()) return progress;
    // Dist failpoints stay off: the chaos schedule that broke the workers
    // must not also kill the last-resort recovery. A blocked island waits
    // for its sender's migrants — uploaded by a healthy worker or written
    // by this same salvage — and is retried next step.
    switch (step_island(space_, spec_, workdir_, island,
                        /*failpoints_on=*/false, options_.cancel)) {
      case IslandStep::kFinished:
        islands_[island].done = true;
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
    for (Island& island : islands_) island.last_activity = now;
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
      if (!islands_[island].done)
        worker_failed(island, describe_exit(status), report);
    } else if (!islands_[island].done && !islands_[island].quarantined &&
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
  islands_[island].last_activity = Clock::now();
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
  start();
  bool progress = host_.step();
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
      if (host_.connection_count() == 0 && !workers_running()) break;
      if (!finished_at.has_value()) finished_at = Clock::now();
      if (Clock::now() - *finished_at > std::chrono::seconds(5)) break;
    }
    if (!progress)
      host_.wait(
          static_cast<int>(std::max<std::size_t>(1, options_.poll_ms)));
  }
  return true;
}

}  // namespace hadas::dist
