#include "runtime/serve/journal.hpp"

#include <cmath>
#include <utility>

#include "util/durable/document.hpp"

namespace hadas::runtime::serve {

using hadas::util::Json;
using hadas::util::durable::CheckpointChain;

namespace {

Json to_json(const LaneSnapshot& lane) {
  Json json;
  json["alive"] = Json(lane.alive);
  json["served"] = Json(lane.served);
  json["clock_s"] = Json(lane.clock_s);
  json["last_event_s"] = Json(lane.last_event_s);
  json["peak_temperature_c"] = Json(lane.peak_temperature_c);
  json["health"] = hw::health_to_json(
      lane.health, Json(static_cast<int>(lane.health.report.state)));
  Json thermal;
  thermal["temperature_c"] = Json(lane.thermal.temperature_c);
  thermal["throttled"] = Json(lane.thermal.throttled);
  thermal["throttle_events"] = Json(lane.thermal.throttle_events);
  json["thermal"] = std::move(thermal);
  Json injector;
  injector["attempts"] = Json(lane.injector.attempts);
  injector["dropped_out"] = Json(lane.injector.dropped_out);
  json["injector"] = std::move(injector);
  return json;
}

LaneSnapshot lane_from_json(const Json& json) {
  LaneSnapshot lane;
  lane.alive = json.at("alive").as_bool();
  lane.served = json.at("served").as_index();
  lane.clock_s = json.at("clock_s").as_number();
  lane.last_event_s = json.at("last_event_s").as_number();
  lane.peak_temperature_c = json.at("peak_temperature_c").as_number();
  lane.health = hw::health_from_json(json.at("health"));
  const int state =
      static_cast<int>(json.at("health").at("report").at("state").as_int());
  if (state < 0 || state > 2)
    throw std::invalid_argument("journal: breaker state out of range");
  lane.health.report.state = static_cast<hw::BreakerState>(state);
  const Json& thermal = json.at("thermal");
  lane.thermal.temperature_c = thermal.at("temperature_c").as_number();
  lane.thermal.throttled = thermal.at("throttled").as_bool();
  lane.thermal.throttle_events = thermal.at("throttle_events").as_index();
  const Json& injector = json.at("injector");
  lane.injector.attempts = injector.at("attempts").as_index();
  lane.injector.dropped_out = injector.at("dropped_out").as_bool();
  return lane;
}

/// The snapshot's counters and accumulated doubles, each stored under its
/// own name.
constexpr std::pair<const char*, std::size_t ServeJournalSnapshot::*>
    kCounters[] = {
        {"next_index", &ServeJournalSnapshot::next_index},
        {"offered", &ServeJournalSnapshot::offered},
        {"admitted", &ServeJournalSnapshot::admitted},
        {"shed", &ServeJournalSnapshot::shed},
        {"shed_no_device", &ServeJournalSnapshot::shed_no_device},
        {"max_queue_depth", &ServeJournalSnapshot::max_queue_depth},
        {"watchdog_fallbacks", &ServeJournalSnapshot::watchdog_fallbacks},
        {"transient_faults", &ServeJournalSnapshot::transient_faults},
        {"nan_faults", &ServeJournalSnapshot::nan_faults},
        {"overruns", &ServeJournalSnapshot::overruns},
        {"failovers", &ServeJournalSnapshot::failovers},
        {"devices_lost", &ServeJournalSnapshot::devices_lost},
        {"degraded_entries", &ServeJournalSnapshot::degraded_entries},
        {"critical_entries", &ServeJournalSnapshot::critical_entries},
        {"requests_degraded", &ServeJournalSnapshot::requests_degraded},
        {"deployment_samples", &ServeJournalSnapshot::deployment_samples},
        {"correct", &ServeJournalSnapshot::correct},
        {"dwell", &ServeJournalSnapshot::dwell}};
constexpr std::pair<const char*, double ServeJournalSnapshot::*>
    kAccumulators[] = {
        {"makespan_s", &ServeJournalSnapshot::makespan_s},
        {"energy_sum_j", &ServeJournalSnapshot::energy_sum_j},
        {"latency_sum_s", &ServeJournalSnapshot::latency_sum_s},
        {"incident_ema", &ServeJournalSnapshot::incident_ema},
        {"busy_until_s", &ServeJournalSnapshot::busy_until_s}};

}  // namespace

Json to_json(const ServeJournalSnapshot& snapshot) {
  Json json;
  json["format"] = Json(std::string(kServeJournalFormatTag));
  json["fingerprint"] = Json(snapshot.fingerprint);
  for (const auto& [name, field] : kCounters)
    json[name] = Json(snapshot.*field);
  for (const auto& [name, field] : kAccumulators)
    json[name] = Json(snapshot.*field);
  Json::Array histogram;
  for (const auto& [layer, count] : snapshot.exit_histogram) {
    Json bin;
    bin["layer"] = Json(layer);
    bin["count"] = Json(count);
    histogram.push_back(std::move(bin));
  }
  json["exit_histogram"] = Json(std::move(histogram));
  Json slo;
  Json::Array latencies;
  for (double v : snapshot.slo.latencies) latencies.push_back(Json(v));
  slo["latencies"] = Json(std::move(latencies));
  slo["wait_sum_s"] = Json(snapshot.slo.wait_sum_s);
  slo["misses"] = Json(snapshot.slo.misses);
  json["slo"] = std::move(slo);
  json["mode"] = Json(snapshot.mode);
  Json::Array outstanding;
  for (double v : snapshot.outstanding) outstanding.push_back(Json(v));
  json["outstanding"] = Json(std::move(outstanding));
  Json::Array lanes;
  for (const LaneSnapshot& lane : snapshot.lanes)
    lanes.push_back(to_json(lane));
  json["lanes"] = Json(std::move(lanes));
  return json;
}

ServeJournalSnapshot journal_snapshot_from_json(const Json& json) {
  if (!json.contains("format") ||
      json.at("format").as_string() != kServeJournalFormatTag)
    throw std::invalid_argument("journal_snapshot_from_json: unknown format");
  ServeJournalSnapshot snapshot;
  snapshot.fingerprint = json.at("fingerprint").as_string();
  for (const auto& [name, field] : kCounters)
    snapshot.*field = json.at(name).as_index();
  for (const auto& [name, field] : kAccumulators) {
    snapshot.*field = json.at(name).as_number();
    if (!std::isfinite(snapshot.*field))
      throw std::invalid_argument("journal accumulator is not finite");
  }
  for (const Json& bin : json.at("exit_histogram").as_array())
    snapshot.exit_histogram[bin.at("layer").as_index()] =
        bin.at("count").as_index();
  const Json& slo = json.at("slo");
  for (const Json& v : slo.at("latencies").as_array())
    snapshot.slo.latencies.push_back(v.as_number());
  snapshot.slo.wait_sum_s = slo.at("wait_sum_s").as_number();
  snapshot.slo.misses = slo.at("misses").as_index();
  snapshot.mode = static_cast<int>(json.at("mode").as_int());
  if (snapshot.mode < 0 || snapshot.mode > 2)
    throw std::invalid_argument("journal: serve mode out of range");
  for (const Json& v : json.at("outstanding").as_array())
    snapshot.outstanding.push_back(v.as_number());
  for (const Json& lane : json.at("lanes").as_array())
    snapshot.lanes.push_back(lane_from_json(lane));
  return snapshot;
}

void save_journal(const CheckpointChain& chain,
                  const ServeJournalSnapshot& snapshot) {
  chain.save(kServeJournalFormatTag, to_json(snapshot).dump(2) + "\n");
}

std::optional<LoadedJournal> load_journal(
    const CheckpointChain& chain,
    const std::function<void(const std::string& warning)>& warn) {
  std::optional<ServeJournalSnapshot> parsed;
  const auto loaded = chain.load_newest_valid(
      kServeJournalFormatTag,
      [&parsed](const std::string& payload) {
        parsed.reset();
        parsed = util::durable::decode_payload(payload,
                                               journal_snapshot_from_json);
      },
      warn);
  if (!loaded) return std::nullopt;
  return LoadedJournal{std::move(*parsed), loaded->file, loaded->skipped};
}

}  // namespace hadas::runtime::serve
