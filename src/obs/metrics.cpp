#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "util/durable/durable_file.hpp"

namespace hadas::obs {

namespace {

std::atomic<bool> g_enabled{false};

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

std::uint64_t Gauge::to_bits(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double Gauge::from_bits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

void Gauge::add(double v) {
  std::uint64_t expected = bits_.load(std::memory_order_relaxed);
  while (!bits_.compare_exchange_weak(expected, to_bits(from_bits(expected) + v),
                                      std::memory_order_relaxed))
    ;
}

void Gauge::track_max(double v) {
  std::uint64_t expected = bits_.load(std::memory_order_relaxed);
  while (from_bits(expected) < v &&
         !bits_.compare_exchange_weak(expected, to_bits(v),
                                      std::memory_order_relaxed))
    ;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty())
    throw std::invalid_argument("Histogram: need at least one bucket bound");
  if (!std::is_sorted(bounds_.begin(), bounds_.end()))
    throw std::invalid_argument("Histogram: bucket bounds must be sorted");
  buckets_.reserve(bounds_.size() + 1);
  for (std::size_t i = 0; i < bounds_.size() + 1; ++i)
    buckets_.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx]->fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t expected = sum_bits_.load(std::memory_order_relaxed);
  double current;
  do {
    std::memcpy(&current, &expected, sizeof(current));
    const double next = current + v;
    std::uint64_t next_bits;
    std::memcpy(&next_bits, &next, sizeof(next_bits));
    if (sum_bits_.compare_exchange_weak(expected, next_bits,
                                        std::memory_order_relaxed))
      break;
  } while (true);
}

std::vector<std::uint64_t> Histogram::counts() const {
  std::vector<std::uint64_t> out;
  out.reserve(buckets_.size());
  for (const auto& bucket : buckets_)
    out.push_back(bucket->load(std::memory_order_relaxed));
  return out;
}

double Histogram::sum() const {
  const std::uint64_t bits = sum_bits_.load(std::memory_order_relaxed);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

void Histogram::reset() {
  for (auto& bucket : buckets_) bucket->store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(0, std::memory_order_relaxed);
}

std::vector<double> default_time_bounds() {
  std::vector<double> bounds;
  for (double b = 1e-3; b < 600.0; b *= 2.0) bounds.push_back(b);
  return bounds;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::scoped_lock lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::scoped_lock lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  std::scoped_lock lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

util::Json MetricsRegistry::to_json() const {
  std::scoped_lock lock(mutex_);
  util::Json json;
  util::Json& counters = json["counters"];
  counters.make_object();
  for (const auto& [name, counter] : counters_)
    counters[name] = counter->value();
  util::Json& gauges = json["gauges"];
  gauges.make_object();
  for (const auto& [name, gauge] : gauges_) gauges[name] = gauge->value();
  util::Json& histograms = json["histograms"];
  histograms.make_object();
  for (const auto& [name, histogram] : histograms_) {
    util::Json entry;
    util::Json::Array bounds;
    for (double b : histogram->bounds()) bounds.push_back(util::Json(b));
    entry["bounds"] = util::Json(std::move(bounds));
    util::Json::Array counts;
    for (std::uint64_t c : histogram->counts())
      counts.push_back(util::Json(static_cast<std::size_t>(c)));
    entry["counts"] = util::Json(std::move(counts));
    entry["count"] = static_cast<std::size_t>(histogram->count());
    entry["sum"] = histogram->sum();
    histograms[name] = std::move(entry);
  }
  return json;
}

namespace {

std::string prom_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

std::string prom_number(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  // Shortest round-trip is overkill here; %.17g keeps snapshots bit-faithful.
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void prom_histogram(std::string& out, const std::string& name,
                    const std::vector<double>& bounds,
                    const std::vector<std::uint64_t>& counts,
                    std::uint64_t count, double sum) {
  out += "# TYPE " + name + " histogram\n";
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    cumulative += counts[i];
    out += name + "_bucket{le=\"" + prom_number(bounds[i]) + "\"} " +
           std::to_string(cumulative) + "\n";
  }
  out += name + "_bucket{le=\"+Inf\"} " + std::to_string(count) + "\n";
  out += name + "_sum " + prom_number(sum) + "\n";
  out += name + "_count " + std::to_string(count) + "\n";
}

}  // namespace

std::string MetricsRegistry::to_prometheus() const {
  return prometheus_from_json(to_json());
}

std::string MetricsRegistry::prometheus_from_json(const util::Json& snapshot) {
  std::string out;
  if (snapshot.contains("counters")) {
    for (const auto& [name, value] : snapshot.at("counters").as_object()) {
      const std::string p = prom_name(name);
      out += "# TYPE " + p + " counter\n";
      out += p + " " + std::to_string(value.as_index()) + "\n";
    }
  }
  if (snapshot.contains("gauges")) {
    for (const auto& [name, value] : snapshot.at("gauges").as_object()) {
      const std::string p = prom_name(name);
      out += "# TYPE " + p + " gauge\n";
      out += p + " " + prom_number(value.as_number()) + "\n";
    }
  }
  if (snapshot.contains("histograms")) {
    for (const auto& [name, entry] : snapshot.at("histograms").as_object()) {
      std::vector<double> bounds;
      for (const util::Json& b : entry.at("bounds").as_array())
        bounds.push_back(b.as_number());
      std::vector<std::uint64_t> counts;
      for (const util::Json& c : entry.at("counts").as_array())
        counts.push_back(c.as_index());
      if (counts.size() != bounds.size() + 1)
        throw std::invalid_argument(
            "metrics snapshot: histogram '" + name + "' has " +
            std::to_string(counts.size()) + " counts for " +
            std::to_string(bounds.size()) + " bounds");
      prom_histogram(out, prom_name(name), bounds, counts,
                     entry.at("count").as_index(), entry.at("sum").as_number());
    }
  }
  return out;
}

void MetricsRegistry::reset() {
  std::scoped_lock lock(mutex_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, histogram] : histograms_) histogram->reset();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

void export_durable_stats(MetricsRegistry& registry) {
  const util::durable::DurableStats stats = util::durable::durable_stats();
  registry.gauge("durable.writes").set(static_cast<double>(stats.writes));
  registry.gauge("durable.bytes_written")
      .set(static_cast<double>(stats.bytes_written));
  registry.gauge("durable.reads").set(static_cast<double>(stats.reads));
  registry.gauge("durable.read_failures")
      .set(static_cast<double>(stats.read_failures));
  registry.gauge("durable.chain_saves")
      .set(static_cast<double>(stats.chain_saves));
  registry.gauge("durable.chain_fallbacks")
      .set(static_cast<double>(stats.chain_fallbacks));
}

void write_metrics_file(const std::string& path) {
  export_durable_stats(MetricsRegistry::global());
  std::ofstream out(path);
  if (!out)
    throw std::runtime_error("write_metrics_file: cannot open " + path);
  out << MetricsRegistry::global().to_json().dump(2) << "\n";
  if (!out)
    throw std::runtime_error("write_metrics_file: write to " + path +
                             " failed");
}

}  // namespace hadas::obs
