#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "dist/island.hpp"
#include "dist/net_transport.hpp"
#include "net/session_endpoint.hpp"
#include "net/socket.hpp"
#include "util/strutil.hpp"

namespace hadas::dist {

/// Outcome of one step_island call.
enum class IslandStep {
  kFinished,   ///< the island result was already durable: nothing to do
  kAdvanced,   ///< ran one round, or wrote the island result
  kBlocked,    ///< the next round's inbound migrants are not readable yet
  kCancelled,  ///< `cancel` interrupted the round (state checkpointed)
};

/// One step of island `island` in `workdir`: write the island result once
/// the last round is checkpointed; otherwise regenerate the previous
/// round's outbound migrants if a crash lost them, and run the next round
/// (inbound migrants applied, engine resumed from the chain, this round's
/// migrants emitted) once its inbound set is readable. Every process that
/// evolves islands — inline mode, the coordinator's salvage of quarantined
/// islands, and each worker — advances them through this alone.
/// `failpoints_on` gates the dist.* failpoints and the HADAS_DIST_HANG hook,
/// so salvage cannot be killed by a worker-targeted chaos schedule.
IslandStep step_island(
    const supernet::SearchSpace& space, const DistSpec& spec,
    const std::string& workdir, std::size_t island, bool failpoints_on,
    const std::atomic<bool>* cancel,
    const std::function<void(std::size_t)>& on_generation = {});

/// `hadas worker --connect host:port --island I --state-dir DIR`.
struct NetWorkerConfig {
  util::HostPort connect;
  std::size_t island = 0;
  std::string state_dir;  ///< local checkpoints, artifacts, session journal
  std::size_t wait_timeout_ms = 600000;  ///< no progress at all -> exit 3
  std::size_t max_connect_attempts = 600;
  std::size_t max_handshake_failures = 50;
  /// Duplicate-ack heartbeat interval inside a round (0 = every generation).
  std::size_t beat_every_ms = 1000;
  std::size_t reconnect_backoff_ms = 20;
  const std::atomic<bool>* cancel = nullptr;
};

/// The worker end of one island: dials the coordinator, learns the DistSpec
/// from the WELCOME, and runs its island's rounds against its own state
/// directory — checkpoints, outbound migrants and the island result are
/// produced exactly as an inline run produces them, then uploaded through
/// the resumable stream (the coordinator persists them verbatim, so the
/// merged front is byte-identical). Inbound migrants arrive as pushed
/// kDistMigrants blobs and are written into the state directory, where
/// step_island finds them. The session journal in the state directory
/// makes every step resumable: a killed worker reconnects with its durable
/// read_seq, the stream replays, and no artifact is lost or duplicated. A
/// worker that already holds the spec keeps computing rounds while
/// partitioned — only migrant exchange stalls.
///
/// Chaos hooks: the dist.worker.start failpoint fires on entry to run() and
/// dist.heartbeat on every beat() call (before its rate limit);
/// HADAS_DIST_HANG="<island>:<round>" (see step_island) freezes the worker,
/// silent, before that round until it is killed or cancelled.
class NetWorker : private net::SessionEndpoint::App {
 public:
  /// `handler` selects the socket fabric (nullptr = real TCP sockets).
  NetWorker(net::SocketHandler* handler, NetWorkerConfig config);

  /// One cooperative pass: poll the network, then advance local island
  /// work. Returns true when anything progressed. Throws
  /// net::ProtocolError when the coordinator refused the session or the
  /// durable state of the two ends disagrees.
  bool step() { return endpoint_.step(); }

  bool done() const { return endpoint_.done(); }
  std::size_t reconnects() const { return endpoint_.reconnects(); }
  bool spec_received() const { return spec_.has_value(); }

  /// Blocking loop; returns a kWorkerExit* code. Throws net::ConnectError
  /// after max_connect_attempts consecutive failed dials and
  /// net::ProtocolError on unrecoverable protocol disagreement.
  int run();

 private:
  using Clock = std::chrono::steady_clock;

  void beat();

  // SessionEndpoint::App: the WELCOME tail is u32 length + fingerprint +
  // spec JSON; pushed migrant blobs land in the state directory; the last
  // message is the island result; work() runs the island.
  std::string welcome_fingerprint(const std::string& payload,
                                  std::size_t at) override;
  void welcomed(const std::string& payload, std::size_t at) override;
  void apply(const net::Frame& frame) override;
  util::Json journal() override;
  bool last_sent() const override { return final_sent_; }
  bool work() override;

  NetWorkerConfig config_;
  std::unique_ptr<net::SocketHandler> owned_handler_;
  net::SessionEndpoint endpoint_;
  std::optional<DistSpec> spec_;
  std::optional<supernet::SearchSpace> space_;
  std::set<std::size_t> sent_;  ///< outbound migrant rounds already queued
  bool final_sent_ = false;
  ChunkRun inbound_;
  Clock::time_point last_beat_{};
};

/// Convenience wrapper: construct a NetWorker over real TCP (or `handler`
/// when given) and run() it. net::ConnectError / net::ProtocolError
/// propagate to the caller (the CLI prints them and exits nonzero).
int run_net_worker(net::SocketHandler* handler, const NetWorkerConfig& config);

}  // namespace hadas::dist
