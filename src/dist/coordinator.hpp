#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "dist/island.hpp"
#include "util/json.hpp"
#include "util/strutil.hpp"

namespace hadas::net {
class SocketHandler;
}

namespace hadas::dist {

/// Supervision knobs of the island coordinator. The defaults suit a real
/// search; tests shrink the timeouts to exercise the watchdog quickly.
struct DistOptions {
  /// Run islands as `hadas worker --connect` subprocesses (the production
  /// topology). false = evolve every island in-process, sequentially
  /// round-major — the reference mode the chaos tests byte-compare against.
  bool spawn = true;
  /// Heartbeat window. A spawned worker silent for one window is declared
  /// hung and SIGKILLed (then handled like any other crash); a remote
  /// worker accumulates one miss per silent window.
  std::size_t heartbeat_ms = 30000;
  std::size_t poll_ms = 30;          ///< supervision loop idle wait
  std::size_t backoff_ms = 100;      ///< first restart delay (doubles)
  std::size_t backoff_max_ms = 2000; ///< restart delay ceiling
  /// Spawned-worker failures (or remote missed windows in a row) that
  /// quarantine an island: no more workers for it; the coordinator
  /// finishes it inline, one round per supervision step.
  std::size_t island_failure_threshold = 3;
  /// Worker-side wait budget without any progress (exit 3 past it).
  std::size_t worker_wait_timeout_ms = 120000;
  /// Chaos schedules (HADAS_CHAOS) are forwarded to first spawns and
  /// stripped from respawns so an every-hit crash rule cannot crash-loop
  /// every incarnation. true keeps forwarding them — the quarantine test
  /// uses this to force a crash loop.
  bool chaos_respawn_keep = false;
  /// Multi-host mode (`hadas search --dist K --listen host:port`): instead
  /// of forking local workers, accept `hadas worker --connect` sessions on
  /// this endpoint. Ignored when spawn is false (inline reference mode).
  std::optional<util::HostPort> listen;
  /// Socket stack for listen mode; nullptr = real TCP. Tests inject the
  /// deterministic FakeSocketHandler (or a FlakySocketHandler around it).
  net::SocketHandler* socket_handler = nullptr;
  const std::atomic<bool>* cancel = nullptr;  ///< SIGINT/SIGTERM flag
  /// Supervision diagnostics sink; nullptr = stderr.
  std::function<void(const std::string&)> log;
};

/// What a distributed run did, beyond the merged result itself. The same
/// numbers are published as dist.* metrics through the global registry.
struct DistReport {
  util::Json merged;  ///< merge_islands() output (unset when interrupted)
  std::size_t islands = 0;
  std::size_t workers_spawned = 0;    ///< first spawns + respawns
  std::size_t workers_restarted = 0;  ///< respawns after a failure
  std::size_t workers_quarantined = 0;
  std::size_t heartbeat_misses = 0;   ///< silent heartbeat windows
  std::size_t migrants_exchanged = 0; ///< genomes in valid migrant files
  bool interrupted = false;           ///< cancel fired; workdir resumable
};

/// Island-model coordinator: partitions the outer population into
/// spec.islands islands, supervises one worker per island through a
/// NetTransport (heartbeat watchdog, restart with exponential backoff,
/// quarantine with inline salvage), and merges the island fronts into one
/// Pareto set. Every decision is derived from the workdir's durable state,
/// so a killed coordinator is rerun with the same arguments and converges
/// to the same merged front.
class DistCoordinator {
 public:
  DistCoordinator(DistSpec spec, std::string workdir, DistOptions options = {});

  DistReport run();

 private:
  bool cancelled() const;
  bool run_islands_inline();
  void say(const std::string& message) const;

  DistSpec spec_;
  std::string workdir_;
  DistOptions options_;
};

}  // namespace hadas::dist
