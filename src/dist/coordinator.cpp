#include "dist/coordinator.hpp"

#include <chrono>
#include <filesystem>
#include <iostream>
#include <stdexcept>

#include "dist/metrics.hpp"
#include "dist/net_transport.hpp"
#include "dist/worker.hpp"
#include "obs/metrics.hpp"
#include "util/durable/durable_file.hpp"
#include "util/failpoint.hpp"

namespace hadas::dist {

using util::durable::DurableFile;

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

DistMetrics& dist_metrics() {
  auto& reg = obs::MetricsRegistry::global();
  static DistMetrics metrics{
      reg.counter("dist.workers_spawned_total"),
      reg.counter("dist.workers_restarted_total"),
      reg.counter("dist.workers_quarantined_total"),
      reg.counter("dist.heartbeat_misses_total"),
      reg.counter("dist.migrants_exchanged_total"),
      reg.gauge("dist.islands"),
      reg.histogram("dist.merge_seconds", obs::default_time_bounds()),
  };
  return metrics;
}

DistCoordinator::DistCoordinator(DistSpec spec, std::string workdir,
                                 DistOptions options)
    : spec_(std::move(spec)),
      workdir_(std::move(workdir)),
      options_(std::move(options)) {}

void DistCoordinator::say(const std::string& message) const {
  if (options_.log) {
    options_.log(message);
    return;
  }
  std::cerr << message << "\n";
}

bool DistCoordinator::cancelled() const {
  return options_.cancel != nullptr &&
         options_.cancel->load(std::memory_order_relaxed);
}

bool DistCoordinator::run_islands_inline() {
  const supernet::SearchSpace space = spec_.search_space();
  // Round-major sweep: every pass steps each unfinished island once. The
  // least-advanced island is always runnable (its ring sender has
  // necessarily passed the boundary it needs — or is behind it in this very
  // pass, and runs first), so a pass without progress can only mean
  // corrupted state.
  while (true) {
    bool all_done = true;
    bool progressed = false;
    for (std::size_t island = 0; island < spec_.islands; ++island) {
      if (cancelled()) return false;
      switch (step_island(space, spec_, workdir_, island,
                          /*failpoints_on=*/true, options_.cancel)) {
        case IslandStep::kFinished:
          continue;
        case IslandStep::kCancelled:
          return false;
        case IslandStep::kAdvanced:
          progressed = true;
          break;
        case IslandStep::kBlocked:
          break;
      }
      all_done = false;
    }
    if (all_done) return true;
    if (!progressed)
      throw std::runtime_error(
          "dist: no island can make progress — inbound migrants unavailable "
          "and not regenerable from any checkpoint chain");
  }
}

DistReport DistCoordinator::run() {
  validate_spec(spec_);
  std::filesystem::create_directories(workdir_);

  // A workdir is one run: reject a spec that contradicts durable state left
  // by a previous invocation (an unreadable old spec is simply replaced —
  // the per-island engine fingerprints still protect the checkpoints).
  if (!ensure_spec_file(spec_path(workdir_), spec_))
    throw std::invalid_argument(
        "dist: workdir '" + workdir_ +
        "' already holds a different spec — use a fresh workdir or rerun "
        "with the original parameters");

  DistReport report;
  report.islands = spec_.islands;
  DistMetrics& metrics = dist_metrics();
  metrics.islands.set(static_cast<double>(spec_.islands));

  if (!options_.spawn) {
    if (!run_islands_inline()) {
      report.interrupted = true;
      return report;
    }
  } else {
    NetTransport transport(spec_, workdir_, options_,
                           [this](const std::string& message) { say(message); });
    if (!transport.supervise(report)) {
      report.interrupted = true;
      return report;
    }
  }

  if (cancelled()) {
    report.interrupted = true;
    return report;
  }

  hadas::util::failpoint("dist.merge");
  const bool timed = obs::enabled();
  const auto t0 = timed ? Clock::now() : Clock::time_point();
  report.merged = merge_islands(spec_, workdir_);
  if (timed)
    metrics.merge_seconds.observe(
        std::chrono::duration<double>(Clock::now() - t0).count());

  // Count the migration traffic from the durable files themselves (the only
  // ground truth that survives worker crashes).
  for (std::size_t island = 0; island < spec_.islands; ++island) {
    for (std::size_t round = 0; round + 1 < round_count(spec_); ++round) {
      const std::string path = migrants_path(workdir_, island, round);
      if (!DurableFile::holds(path, kMigrantsFormatTag)) continue;
      report.migrants_exchanged += load_migrants_file(path).genomes.size();
    }
  }
  metrics.migrants.inc(report.migrants_exchanged);
  return report;
}

}  // namespace hadas::dist
