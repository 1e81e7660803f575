#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "hw/evaluator.hpp"
#include "hw/faults.hpp"
#include "util/json.hpp"

namespace hadas::hw {

/// Bounded retries with exponential backoff. Backoff waits advance a
/// *simulated* clock (DeviceHealth::sim_time_s) — no real sleeping — so
/// tests and searches stay fast and deterministic.
struct RetryPolicy {
  std::size_t max_attempts = 5;     ///< attempts per sample (1 = no retry)
  double base_backoff_s = 0.01;     ///< simulated wait before the 1st retry
  double backoff_multiplier = 2.0;
  double max_backoff_s = 1.0;
};

/// Circuit-breaker thresholds.
struct BreakerConfig {
  /// Consecutive failed measurements (all samples exhausted) that open the
  /// breaker.
  std::size_t failure_threshold = 4;
  /// Simulated seconds the breaker stays open before probing (half-open).
  double cooldown_s = 30.0;
  /// Consecutive half-open successes that close the breaker again.
  std::size_t half_open_successes = 2;
};

enum class BreakerState { kClosed, kHalfOpen, kOpen };

/// Human-readable breaker state name ("closed" | "half-open" | "open").
std::string breaker_state_name(BreakerState state);

/// Snapshot of one device's measurement health.
struct HealthReport {
  BreakerState state = BreakerState::kClosed;
  bool dropped_out = false;          ///< device hit its dropout limit
  std::uint64_t measurements = 0;    ///< successful robust measurements
  std::uint64_t attempts = 0;        ///< raw attempts, incl. retries
  std::uint64_t retries = 0;
  std::uint64_t transient_failures = 0;
  std::uint64_t quarantined = 0;     ///< non-finite samples rejected
  std::uint64_t outliers_rejected = 0;  ///< MAD-rejected samples
  std::uint64_t failed_measurements = 0;  ///< all samples exhausted
  std::uint64_t breaker_trips = 0;   ///< closed/half-open -> open transitions
  double backoff_s = 0.0;            ///< simulated time spent backing off
  double sim_time_s = 0.0;           ///< simulated clock
};

/// Per-device health tracker and circuit breaker on a simulated clock.
/// Thread-safe; shared by every measurement against one device.
///
/// State machine: kClosed --(failure_threshold consecutive failures)-->
/// kOpen --(cooldown_s of simulated time)--> kHalfOpen --(half_open_successes
/// consecutive successes)--> kClosed, or --(any failure)--> kOpen again.
/// A dropout opens the breaker permanently (no half-open probing).
class DeviceHealth {
 public:
  explicit DeviceHealth(BreakerConfig config = {}) : config_(config) {}

  const BreakerConfig& breaker_config() const { return config_; }

  /// May this measurement proceed? Transitions kOpen -> kHalfOpen once the
  /// cooldown has elapsed. False means the breaker rejects the call.
  bool admit();

  void record_success();
  /// A whole measurement failed (every sample exhausted its attempts).
  void record_failure();
  /// The device is gone for good: open permanently.
  void record_dropout();

  /// Advance the simulated clock (backoff waits, measurement time).
  void advance_clock(double seconds, bool is_backoff);

  void count_retry() { bump(&HealthReport::retries); }
  void count_transient() { bump(&HealthReport::transient_failures); }
  void count_quarantined() { bump(&HealthReport::quarantined); }
  void count_outliers(std::uint64_t n);
  void count_attempt() { bump(&HealthReport::attempts); }

  BreakerState state() const;
  HealthReport report() const;

  /// Full serializable state, for the serving layer's journal. Capturing
  /// and restoring this mid-run reproduces the remaining breaker behaviour
  /// exactly.
  struct State {
    HealthReport report;
    std::size_t consecutive_failures = 0;
    std::size_t half_open_successes = 0;
    double open_until_s = 0.0;
  };
  State snapshot() const;
  void restore(const State& state);

 private:
  void bump(std::uint64_t HealthReport::* counter);
  void open_locked();  // requires mutex_ held

  BreakerConfig config_;
  mutable std::mutex mutex_;
  HealthReport report_;
  std::size_t consecutive_failures_ = 0;
  std::size_t half_open_successes_ = 0;
  double open_until_s_ = 0.0;
};

/// A breaker snapshot as the durable formats store it (fleet checkpoint,
/// serve journal): the report's fields and the breaker's. `breaker_state`
/// is report.state's JSON, which each format encodes its own way; the
/// decoder leaves report.state for the caller to read from ["report"]
/// ["state"].
util::Json health_to_json(const DeviceHealth::State& health,
                          util::Json breaker_state);
DeviceHealth::State health_from_json(const util::Json& json);

/// Everything the robust measurement path needs.
struct RobustConfig {
  FaultConfig faults;
  RetryPolicy retry;
  BreakerConfig breaker;
  /// Samples aggregated per measurement (median). 1 = no aggregation.
  std::size_t samples = 3;
  /// Samples farther than this many (scaled) MADs from the median latency
  /// are rejected as outliers before aggregation.
  double mad_threshold = 3.5;
  /// Run the full robust envelope even with no faults configured (used by
  /// the overhead benchmark). Off by default so the fault-free path stays a
  /// bit-identical pass-through.
  bool engage = false;

  bool active() const { return engage || faults.active(); }
};

/// Median aggregation with MAD outlier rejection over successful samples.
/// Rejection is keyed on latency (the primary observable); energies follow
/// their sample. Exposed for direct testing. `rejected` (optional) receives
/// the number of discarded samples.
HwMeasurement robust_aggregate(std::vector<HwMeasurement> samples,
                               double mad_threshold,
                               std::uint64_t* rejected = nullptr);

/// Fault-tolerant measurement wrapper around a HardwareEvaluator: fault
/// injection (simulation), bounded retry with exponential backoff on a
/// simulated clock, non-finite quarantine, N-sample median + MAD
/// aggregation, and a per-device circuit breaker.
///
/// Determinism: with faults inactive, every call is a bit-identical
/// pass-through to the clean evaluator. With faults active, outcomes are a
/// pure function of (fault seed, measurement key, attempt index), so
/// results are identical at any thread count (dropout excepted — see
/// FaultConfig::dropout_after_n).
class RobustEvaluator {
 public:
  RobustEvaluator(const HardwareEvaluator& eval, RobustConfig config = {})
      : eval_(eval),
        config_(config),
        injector_(config.faults),
        health_(config.breaker) {}

  bool active() const { return config_.active(); }
  const RobustConfig& config() const { return config_; }
  const HardwareEvaluator& hardware() const { return eval_; }
  const FaultInjector& injector() const { return injector_; }
  DeviceHealth& health() const { return health_; }
  HealthReport report() const { return health_.report(); }

  /// Robust version of HardwareEvaluator::measure_network. `key` must
  /// identify the measurement (e.g. the backbone's genome hash); fault
  /// outcomes are deterministic in it.
  HwMeasurement measure_network(const supernet::NetworkCost& net,
                                DvfsSetting setting, std::uint64_t key) const;

  /// Generic robust envelope: applies fault injection / retry / quarantine
  /// / aggregation / breaker accounting to any clean measurement thunk.
  /// Throws DeviceUnavailableError when the breaker is open and
  /// MeasurementError when every sample exhausted its attempts.
  HwMeasurement measure(std::uint64_t key,
                        const std::function<HwMeasurement()>& clean) const;

 private:
  const HardwareEvaluator& eval_;
  RobustConfig config_;
  FaultInjector injector_;
  mutable DeviceHealth health_;
};

}  // namespace hadas::hw
