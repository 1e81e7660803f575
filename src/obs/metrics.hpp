#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace hadas::obs {

/// Master switch for the *timed* parts of the observability layer: scoped
/// trace spans and duration histograms read the clock only while this is on.
/// Plain counters and gauges are always live — they are relaxed atomics,
/// cheap enough for hot paths.
///
/// Observability is strictly observe-only: nothing recorded here ever feeds
/// back into a search or serve decision, so Pareto fronts and ServeReports
/// are bit-identical whether the switch is on or off (enforced by
/// ObsDeterminism tests).
bool enabled();
void set_enabled(bool on);

/// Monotonically increasing event count: one relaxed atomic.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written (or accumulated / max-tracked) double value.
class Gauge {
 public:
  void set(double v) { bits_.store(to_bits(v), std::memory_order_relaxed); }
  /// Atomic add (CAS loop).
  void add(double v);
  /// Raise the gauge to `v` if larger (peak tracking, e.g. queue depth).
  void track_max(double v);
  double value() const { return from_bits(bits_.load(std::memory_order_relaxed)); }
  void reset() { set(0.0); }

 private:
  static std::uint64_t to_bits(double v);
  static double from_bits(std::uint64_t bits);
  std::atomic<std::uint64_t> bits_{0x0ULL};  // 0 bits == 0.0
};

/// Fixed-bucket histogram: `bounds` are the inclusive upper bounds of the
/// first N buckets; one overflow bucket catches everything above the last
/// bound. Bucket counts, the total count and the value sum are all relaxed
/// atomics — observe() is lock-free.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts; size() == bounds().size() + 1 (last = overflow).
  std::vector<std::uint64_t> counts() const;
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  void reset();

 private:
  std::vector<double> bounds_;  // sorted ascending
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};
};

/// Exponential default bounds for latency-style histograms, in seconds:
/// 1 ms .. ~500 s doubling.
std::vector<double> default_time_bounds();

/// Process-wide registry of named metrics. Lookup takes a mutex, so hot
/// paths should resolve their instrument once (a function-local static
/// reference) and then touch only its atomics. Instruments are never
/// deleted — returned references stay valid for the process lifetime.
///
/// Names use dotted lower-case segments ("exec.tasks_total"); counters end
/// in "_total" by convention. The Prometheus rendering maps every character
/// outside [a-zA-Z0-9_:] to '_'.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// First registration fixes the bucket bounds; later calls with the same
  /// name return the existing histogram regardless of `bounds`.
  Histogram& histogram(const std::string& name, std::vector<double> bounds);

  /// Deterministically ordered snapshot (std::map keys are sorted):
  ///   {"counters": {name: n}, "gauges": {name: v},
  ///    "histograms": {name: {"bounds": [...], "counts": [...],
  ///                          "sum": s, "count": n}}}
  util::Json to_json() const;

  /// Prometheus text exposition of the current values.
  std::string to_prometheus() const;

  /// Re-render a snapshot produced by to_json() as Prometheus text (the
  /// `hadas metrics-dump --format prom` path — no live registry needed).
  static std::string prometheus_from_json(const util::Json& snapshot);

  /// Zero every registered instrument (registrations are kept). Used by
  /// tests and the overhead benchmark between runs.
  void reset();

  /// The process-wide registry every built-in instrumentation site uses.
  static MetricsRegistry& global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Write the global registry's snapshot (plus the util/durable layer's
/// internal write/recovery counters, exported as gauges under "durable.*")
/// to `path` as pretty-printed JSON.
void write_metrics_file(const std::string& path);

/// Pull the durable layer's internal counters into `registry` as gauges
/// ("durable.writes", "durable.bytes_written", "durable.reads",
/// "durable.read_failures", "durable.chain_saves", "durable.chain_fallbacks").
void export_durable_stats(MetricsRegistry& registry);

}  // namespace hadas::obs
