#pragma once

#include "obs/metrics.hpp"

namespace hadas::dist {

/// dist.* instruments, resolved once against the global MetricsRegistry and
/// shared by the coordinator and its NetTransport. Strictly observe-only.
struct DistMetrics {
  obs::Counter& spawned;
  obs::Counter& restarted;
  obs::Counter& quarantined;
  obs::Counter& heartbeat_misses;
  obs::Counter& migrants;
  obs::Gauge& islands;
  obs::Histogram& merge_seconds;
};

DistMetrics& dist_metrics();

}  // namespace hadas::dist
