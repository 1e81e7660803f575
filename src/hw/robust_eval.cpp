#include "hw/robust_eval.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/failpoint.hpp"
#include "util/rng.hpp"

namespace hadas::hw {

std::string breaker_state_name(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kHalfOpen: return "half-open";
    case BreakerState::kOpen: return "open";
  }
  return "?";
}

bool DeviceHealth::admit() {
  std::scoped_lock lock(mutex_);
  if (report_.dropped_out) return false;
  if (report_.state == BreakerState::kOpen) {
    if (report_.sim_time_s < open_until_s_) return false;
    report_.state = BreakerState::kHalfOpen;
    half_open_successes_ = 0;
  }
  return true;
}

void DeviceHealth::record_success() {
  std::scoped_lock lock(mutex_);
  ++report_.measurements;
  consecutive_failures_ = 0;
  if (report_.state == BreakerState::kHalfOpen) {
    if (++half_open_successes_ >= config_.half_open_successes)
      report_.state = BreakerState::kClosed;
  }
}

void DeviceHealth::record_failure() {
  std::scoped_lock lock(mutex_);
  ++report_.failed_measurements;
  ++consecutive_failures_;
  if (report_.state == BreakerState::kHalfOpen ||
      (report_.state == BreakerState::kClosed &&
       consecutive_failures_ >= config_.failure_threshold))
    open_locked();
}

void DeviceHealth::record_dropout() {
  std::scoped_lock lock(mutex_);
  report_.dropped_out = true;
  if (report_.state != BreakerState::kOpen) open_locked();
}

void DeviceHealth::open_locked() {
  report_.state = BreakerState::kOpen;
  ++report_.breaker_trips;
  consecutive_failures_ = 0;
  open_until_s_ = report_.sim_time_s + config_.cooldown_s;
}

void DeviceHealth::advance_clock(double seconds, bool is_backoff) {
  std::scoped_lock lock(mutex_);
  report_.sim_time_s += seconds;
  if (is_backoff) report_.backoff_s += seconds;
}

void DeviceHealth::count_outliers(std::uint64_t n) {
  if (n == 0) return;
  std::scoped_lock lock(mutex_);
  report_.outliers_rejected += n;
}

void DeviceHealth::bump(std::uint64_t HealthReport::* counter) {
  std::scoped_lock lock(mutex_);
  ++(report_.*counter);
}

BreakerState DeviceHealth::state() const {
  std::scoped_lock lock(mutex_);
  return report_.state;
}

HealthReport DeviceHealth::report() const {
  std::scoped_lock lock(mutex_);
  return report_;
}

DeviceHealth::State DeviceHealth::snapshot() const {
  std::scoped_lock lock(mutex_);
  return {report_, consecutive_failures_, half_open_successes_, open_until_s_};
}

void DeviceHealth::restore(const State& state) {
  std::scoped_lock lock(mutex_);
  report_ = state.report;
  consecutive_failures_ = state.consecutive_failures;
  half_open_successes_ = state.half_open_successes;
  open_until_s_ = state.open_until_s;
}

namespace {

/// Median of a sorted-in-place vector. With all-equal inputs this returns
/// that exact value (the even-count midpoint of equal doubles is exact),
/// which is what makes noiseless fault recovery bit-identical.
double median_inplace(std::vector<double>& v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

HwMeasurement robust_aggregate(std::vector<HwMeasurement> samples,
                               double mad_threshold, std::uint64_t* rejected) {
  if (rejected != nullptr) *rejected = 0;
  if (samples.empty())
    throw MeasurementError("robust_aggregate: no samples to aggregate");
  if (samples.size() == 1) return samples.front();

  std::vector<double> lat(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) lat[i] = samples[i].latency_s;
  std::vector<double> sorted = lat;
  const double med = median_inplace(sorted);
  std::vector<double> dev(lat.size());
  for (std::size_t i = 0; i < lat.size(); ++i) dev[i] = std::abs(lat[i] - med);
  std::vector<double> dev_sorted = dev;
  const double mad = median_inplace(dev_sorted);

  std::vector<HwMeasurement> kept;
  kept.reserve(samples.size());
  if (mad > 0.0 && mad_threshold > 0.0) {
    // 1.4826 rescales the MAD to a Gaussian sigma estimate.
    const double cutoff = mad_threshold * 1.4826 * mad;
    for (std::size_t i = 0; i < samples.size(); ++i)
      if (dev[i] <= cutoff) kept.push_back(samples[i]);
    if (kept.empty()) kept = std::move(samples);  // degenerate spread: keep all
  } else {
    kept = std::move(samples);
  }
  if (rejected != nullptr && kept.size() <= lat.size())
    *rejected = lat.size() - kept.size();

  std::vector<double> kl(kept.size()), ke(kept.size());
  for (std::size_t i = 0; i < kept.size(); ++i) {
    kl[i] = kept[i].latency_s;
    ke[i] = kept[i].energy_j;
  }
  HwMeasurement m;
  m.latency_s = median_inplace(kl);
  m.energy_j = median_inplace(ke);
  m.avg_power_w = m.latency_s > 0.0 ? m.energy_j / m.latency_s : 0.0;
  return m;
}

HwMeasurement RobustEvaluator::measure_network(const supernet::NetworkCost& net,
                                               DvfsSetting setting,
                                               std::uint64_t key) const {
  if (!active()) return eval_.measure_network(net, setting);
  // Fold the DVFS point into the key so each setting has its own stream.
  util::SplitMix64 sm(key ^ (setting.core_idx * 0x9e3779b97f4a7c15ULL) ^
                      (setting.emc_idx * 0xc2b2ae3d27d4eb4fULL));
  const std::uint64_t full_key = sm.next();
  return measure(full_key, [&] { return eval_.measure_network(net, setting); });
}

HwMeasurement RobustEvaluator::measure(
    std::uint64_t key, const std::function<HwMeasurement()>& clean) const {
  if (!active()) return clean();
  hadas::util::failpoint("robust.measure");
  if (!health_.admit())
    throw DeviceUnavailableError(
        "device '" + eval_.device().name + "': circuit breaker " +
        breaker_state_name(health_.state()) +
        (injector_.dropped_out() ? " (device dropped out)" : "") +
        "; measurement rejected");

  // The clean measurement is deterministic, so compute it once and let the
  // injector corrupt per-attempt copies.
  const HwMeasurement truth = clean();

  const RetryPolicy& retry = config_.retry;
  const std::size_t samples = std::max<std::size_t>(1, config_.samples);
  const std::size_t attempts = std::max<std::size_t>(1, retry.max_attempts);
  std::vector<HwMeasurement> good;
  good.reserve(samples);

  for (std::size_t s = 0; s < samples; ++s) {
    double backoff = retry.base_backoff_s;
    for (std::size_t a = 0; a < attempts; ++a) {
      health_.count_attempt();
      bool ok = false;
      try {
        const HwMeasurement m =
            injector_.apply(truth, key, s * attempts + a);
        if (finite_measurement(m) && m.latency_s > 0.0) {
          good.push_back(m);
          ok = true;
        } else {
          health_.count_quarantined();
        }
      } catch (const MeasurementError&) {
        health_.count_transient();
      } catch (const DeviceUnavailableError&) {
        health_.record_dropout();
        throw;
      }
      if (ok) break;
      if (a + 1 < attempts) {
        hadas::util::failpoint("robust.retry");
        health_.count_retry();
        health_.advance_clock(backoff, /*is_backoff=*/true);
        backoff = std::min(backoff * retry.backoff_multiplier,
                           retry.max_backoff_s);
      }
    }
  }

  if (good.empty()) {
    health_.record_failure();
    throw MeasurementError(
        "device '" + eval_.device().name + "': measurement failed (" +
        std::to_string(samples) + " samples x " + std::to_string(attempts) +
        " attempts all failed or were quarantined; key=" +
        std::to_string(key) + ")");
  }
  std::uint64_t rejected = 0;
  const HwMeasurement m = robust_aggregate(std::move(good),
                                           config_.mad_threshold, &rejected);
  health_.count_outliers(rejected);
  health_.record_success();
  return m;
}

namespace {

constexpr std::pair<const char*, std::uint64_t HealthReport::*> kCounters[] = {
    {"measurements", &HealthReport::measurements},
    {"attempts", &HealthReport::attempts},
    {"retries", &HealthReport::retries},
    {"transient_failures", &HealthReport::transient_failures},
    {"quarantined", &HealthReport::quarantined},
    {"outliers_rejected", &HealthReport::outliers_rejected},
    {"failed_measurements", &HealthReport::failed_measurements},
    {"breaker_trips", &HealthReport::breaker_trips}};

}  // namespace

util::Json health_to_json(const DeviceHealth::State& health,
                          util::Json breaker_state) {
  util::Json report;
  report["state"] = std::move(breaker_state);
  report["dropped_out"] = health.report.dropped_out;
  for (const auto& [name, field] : kCounters)
    report[name] = util::Json(static_cast<double>(health.report.*field));
  report["backoff_s"] = health.report.backoff_s;
  report["sim_time_s"] = health.report.sim_time_s;
  util::Json json;
  json["report"] = std::move(report);
  json["consecutive_failures"] = util::Json(health.consecutive_failures);
  json["half_open_successes"] = util::Json(health.half_open_successes);
  json["open_until_s"] = health.open_until_s;
  return json;
}

DeviceHealth::State health_from_json(const util::Json& json) {
  DeviceHealth::State health;
  const util::Json& report = json.at("report");
  health.report.dropped_out = report.at("dropped_out").as_bool();
  for (const auto& [name, field] : kCounters)
    health.report.*field = report.at(name).as_index();
  health.report.backoff_s = report.at("backoff_s").as_number();
  health.report.sim_time_s = report.at("sim_time_s").as_number();
  health.consecutive_failures = json.at("consecutive_failures").as_index();
  health.half_open_successes = json.at("half_open_successes").as_index();
  health.open_until_s = json.at("open_until_s").as_number();
  return health;
}

}  // namespace hadas::hw
