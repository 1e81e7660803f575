#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "dist/coordinator.hpp"
#include "net/backed_stream.hpp"
#include "net/frame.hpp"
#include "net/session.hpp"
#include "net/session_host.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "supernet/search_space.hpp"

namespace hadas::dist {

/// --- Dist-net wire protocol: how the island artifacts of src/dist ride
/// the resumable sessions of src/net.
///
/// Each island is one session ("island-<i>") between a `hadas worker
/// --connect` (a net::SessionEndpoint) and the coordinator's NetTransport
/// (a net::SessionHost). The WELCOME tail carries the DistSpec, so a worker
/// needs only the endpoint, its island and a state directory. Migrant files
/// (both ways) and the island result (upstream) are app frames inside the
/// logical stream, chunked under the frame payload cap and carrying the
/// exact durable-file payload, which the receiver writes verbatim: every
/// file is byte-identical to what an inline run writes. Under
/// save-before-ack, a killed worker, a severed link or a restarted
/// coordinator never loses or duplicates a migrant.

/// Durable-envelope format tag of dist-net session journals (worker and
/// coordinator side share the layout; `hadas verify-checkpoint` triages it).
inline constexpr const char* kDistSessionFormatTag = "hadas-dist-session-v1";

/// Logical-stream bytes per kDistMigrants/kDistFinal chunk frame: artifacts
/// larger than one frame payload are cut into a contiguous chunk run.
inline constexpr std::size_t kDistChunkBytes = 64 * 1024;

/// "island-<i>" — the session id island `i` dials in with.
std::string dist_session_id(std::size_t island);
/// Parse a dist session id; nullopt when it is not "island-<digits>".
std::optional<std::size_t> parse_dist_session_id(const std::string& id);
/// The coordinator-side session journal of island `island`.
std::string dist_session_path(const std::string& workdir, std::size_t island);

/// Fingerprint of the spec both ends must agree on ("spec-" + CRC-64 of the
/// canonical spec JSON). Carried in every WELCOME and every session
/// journal; a mismatch is refused — resuming half a search under a
/// different topology would silently corrupt the merged front.
std::string spec_fingerprint(const DistSpec& spec);

/// One chunk of an artifact blob on the wire:
///   u64 island | u64 round | u32 flags (bit0 = last chunk) | bytes.
/// kDistMigrants blobs are migrant-file payloads (round = migration round);
/// kDistFinal blobs are island-result payloads (round = 0).
struct DistChunk {
  net::FrameType type = net::FrameType::kDistMigrants;
  std::size_t island = 0;
  std::size_t round = 0;
  bool last = false;
  std::string bytes;
};

/// Cut `text` into chunk frames and append them to the logical stream.
void append_blob(net::BackedWriter& writer, net::FrameType type,
                 std::size_t island, std::size_t round,
                 const std::string& text);

/// Decode a kDistMigrants/kDistFinal frame. Throws net::ProtocolError on a
/// malformed payload.
DistChunk parse_dist_chunk(const net::Frame& frame);

/// "m:<island>:<round>" / "f:<island>" — the identity a partially received
/// blob is journaled under, so an interleaved or repeated chunk run is
/// detected as a protocol violation instead of corrupting an artifact.
std::string dist_chunk_key(const DistChunk& chunk);

/// Reassembly of the chunk runs one session end receives. Both fields are
/// journaled with the session, so a resumed stream continues a half-received
/// blob.
struct ChunkRun {
  std::string partial;  ///< bytes of the open run
  std::string key;      ///< dist_chunk_key of the open run; empty = none

  /// Take the next chunk. The last chunk of a run completes its blob, which
  /// is stored verbatim (idempotently) as the artifact it carries in `dir`,
  /// then loaded back to validate it; a corrupt or mislabelled payload is
  /// removed again. Returns true when this chunk completed an artifact.
  /// Throws net::ProtocolError on interleaved runs and bad payloads.
  bool accept(const DistChunk& chunk, const std::string& dir);
};

/// A journaled set of migration rounds (pushed down / uploaded) as JSON.
util::Json rounds_to_json(const std::set<std::size_t>& rounds);
std::set<std::size_t> rounds_from_json(const util::Json& json);

/// dist.net.* instruments (global registry; exported via --metrics-out /
/// metrics-dump like the dist.* and net.* families). Strictly observe-only.
struct DistNetMetrics {
  obs::MetricsRegistry& r = obs::MetricsRegistry::global();
  obs::Counter& migrant_sets_sent =
      r.counter("dist.net.migrant_sets_sent_total");
  obs::Counter& migrant_sets_received =
      r.counter("dist.net.migrant_sets_received_total");
  obs::Counter& migrant_sets_replayed =
      r.counter("dist.net.migrant_sets_replayed_total");
  obs::Counter& finals_received =
      r.counter("dist.net.island_finals_received_total");
  obs::Counter& reconnects = r.counter("dist.net.reconnects_total");
  obs::Counter& refusals = r.counter("dist.net.refusals_total");
  obs::Counter& quarantines =
      r.counter("dist.net.partition_quarantines_total");
  obs::Counter& sessions_resumed =
      r.counter("dist.net.sessions_resumed_total");
  /// Seconds from queueing a migrant set toward a worker to its durable ack.
  obs::Histogram& migration_latency =
      r.histogram("dist.net.migration_latency_seconds",
                  obs::default_time_bounds());
};

DistNetMetrics& dist_net_metrics();

/// The coordinator's island supervisor: one resumable session per island.
/// Workers upload their migrant files and island result; the coordinator
/// persists every artifact verbatim into its workdir (the single ground
/// truth the merge reads) and pushes each island's inbound migrants —
/// whoever produced them — down its session. Heartbeats piggyback on
/// transport acks: any frame from an island resets its activity clock, and
/// a worker in a long round keeps sending duplicate acks from its
/// generation callback.
///
/// Where the workers come from depends on options.listen:
///  - set: remote `hadas worker --connect` processes dial in. An island
///    silent for more than heartbeat_ms accumulates a miss; after
///    island_failure_threshold misses in a row it is quarantined.
///  - unset (spawn mode): the transport listens on an ephemeral 127.0.0.1
///    port and forks one local `hadas worker --connect` per island, each
///    writing only its own worker_dir(), and reaps them in the step() loop.
///    A worker that exits before its island is done, or that stays silent
///    for one heartbeat window (and is SIGKILLed), counts one failure and
///    is restarted after an exponential backoff; island_failure_threshold
///    failures quarantine the island. Only completion ends the count — a
///    reconnect does not, or a crash loop would never trip it. Children
///    die with the coordinator (PR_SET_PDEATHSIG), so a rerun never races
///    an orphan for a state directory.
///
/// A quarantined island is refused further handshakes and salvaged
/// *incrementally inside this event loop* — one inline step per step() —
/// because its ring successor may be a healthy worker blocked on exactly
/// those migrants. A killed coordinator restarts, reloads every session
/// journal on the next HELLO and converges byte-identically.
class NetTransport : private net::SessionHost::App {
 public:
  NetTransport(DistSpec spec, std::string workdir, const DistOptions& options,
               std::function<void(const std::string&)> say);
  ~NetTransport();

  /// Drive every island to a durable result file in the workdir. Returns
  /// false when options.cancel fired: spawned workers get SIGTERM, a 10 s
  /// grace to checkpoint, then SIGKILL; the workdir stays resumable.
  bool supervise(DistReport& report);

  /// --- Cooperative surface (supervise() is a loop over step(); tests
  /// drive it directly against steppable NetWorker endpoints).
  void start();
  bool step(DistReport& report);
  /// Every island's final result file in the workdir is valid.
  bool finished() const;
  std::size_t quarantined_count() const;
  std::size_t connection_count() const { return host_.connection_count(); }

 private:
  using Clock = std::chrono::steady_clock;

  /// The coordinator's record of one island: what its session journals
  /// (reset whenever a session starts or completes) and its liveness.
  struct Island {
    std::set<std::size_t> pushed;  ///< inbound rounds queued down the stream
    ChunkRun inbound;
    /// (stream offset after a queued migrant set, queue time) — matched
    /// against worker acks for the migration-latency histogram.
    std::vector<std::pair<std::uint64_t, Clock::time_point>> inflight;
    bool done = false;  ///< the island result is durable in the workdir
    bool quarantined = false;
    std::size_t misses = 0;
    Clock::time_point last_activity{};

    void reset_session() {
      pushed.clear();
      inbound = ChunkRun{};
      inflight.clear();
    }
  };

  /// One spawned worker slot (spawn mode only).
  struct LocalWorker {
    pid_t pid = -1;  ///< -1 when not running
    std::size_t failures = 0;
    Clock::time_point next_start{};
  };

  bool spawning() const { return !options_.listen.has_value(); }
  bool cancelled() const;

  // SessionHost::App: one session per island; an island completes when its
  // result is durable, and every ack or data frame is a heartbeat.
  std::optional<std::string> admit(const std::string& id) override;
  bool completed(const std::string& id, std::uint64_t peer_read_seq) override;
  void welcome_tail(std::string& payload) override;
  void open(const std::string& id, const util::Json* journaled) override;
  util::Json journal(const std::string& id) override;
  bool apply(const std::string& id, const net::Frame& frame,
             net::BackedWriter& out) override;
  void close(const std::string& id) override;
  /// Push the island's inbound migrants as its sender's uploads land.
  bool feed(const std::string& id, net::BackedWriter& out) override;
  void heard(const std::string& id, const net::BackedWriter& out) override;

  void quarantine(std::size_t island, const std::string& reason,
                  DistReport& report);
  bool watchdog(DistReport& report);
  bool salvage_step();
  bool reap_and_spawn(DistReport& report);
  void spawn_worker(std::size_t island, DistReport& report);
  void worker_failed(std::size_t island, const std::string& why,
                     DistReport& report);
  void stop_workers(std::chrono::milliseconds grace);
  void touch_activity(std::size_t island);

  DistSpec spec_;
  std::string workdir_;
  const DistOptions& options_;
  std::function<void(const std::string&)> say_;
  std::string fingerprint_;
  supernet::SearchSpace space_;
  std::unique_ptr<net::TcpSocketHandler> owned_handler_;
  std::vector<Island> islands_;
  std::vector<LocalWorker> local_;
  std::uint16_t port_ = 0;  ///< spawn mode: where the children dial
  bool started_ = false;
  net::SessionHost host_;
};

}  // namespace hadas::dist
