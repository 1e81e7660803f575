#include "exec/chaos.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "util/failpoint.hpp"
#include "util/rng.hpp"
#include "util/strutil.hpp"

namespace hadas::exec {

namespace {

/// FNV-1a, for site-name keyed Rng::fork streams.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

ChaosAction parse_action(const std::string& name) {
  if (name == "crash") return ChaosAction::kCrash;
  if (name == "tear") return ChaosAction::kTear;
  if (name == "bitflip") return ChaosAction::kBitFlip;
  if (name == "delay") return ChaosAction::kDelay;
  throw std::invalid_argument("chaos: unknown action '" + name +
                              "' (crash | tear | bitflip | delay)");
}

}  // namespace

const std::vector<std::string>& chaos_sites() {
  // The full failpoint inventory. Keep in sync with the failpoint()
  // call sites (DESIGN.md carries the same table with locations).
  static const std::vector<std::string> sites = {
      // util/durable — DurableFile::write / CheckpointChain::save
      "durable.save.begin",       // before the temp file exists
      "durable.save.tmp",         // temp written, not yet fsynced
      "durable.save.prerename",   // synced temp, previous file still current
      "durable.save.postrename",  // file site: new file fully in place
      "durable.rotate",           // between chain rotation renames
      // core/hadas_engine — checkpointing and the generation loop
      "engine.generation.end",
      "engine.checkpoint.begin",
      "engine.checkpoint.end",
      "engine.resume",
      // core/multi_device
      "multidevice.probe",
      "multidevice.generation.end",
      // hw/robust_eval
      "robust.measure",
      "robust.retry",
      // hw/fleet — chaos rounds and the durable registry checkpoint
      "fleet.advance_round",
      "fleet.checkpoint.begin",
      "fleet.checkpoint.end",
      // runtime/serve — supervisor loop and its journal
      "serve.request",
      "serve.journal.begin",
      "serve.journal.end",
      // dist — island coordinator, workers and migration files
      "dist.spawn",              // coordinator: before forking a worker
      "dist.worker.start",       // worker process entry
      "dist.worker.round.begin", // before an island round's engine segment
      "dist.worker.round.end",   // after the segment, before migrant write
      "dist.migrate.write",      // file site: migrant envelope in place
      "dist.migrate.read",       // before consuming an inbound migrant file
      "dist.worker.final",       // file site: island result in place
      "dist.heartbeat",          // worker heartbeat tick (NetWorker::beat)
      "dist.merge",              // coordinator: before merging island fronts
      "dist.salvage",            // coordinator: island quarantined, going inline
  };
  return sites;
}

bool is_chaos_site(const std::string& site) {
  const auto& sites = chaos_sites();
  return std::find(sites.begin(), sites.end(), site) != sites.end();
}

ChaosConfig parse_chaos_spec(const std::string& spec) {
  ChaosConfig config;
  for (const std::string& entry : util::split(spec, ';')) {
    const std::string trimmed = util::trim(entry);
    if (trimmed.empty()) continue;
    const std::vector<std::string> parts = util::split(trimmed, ':');
    if (parts.size() == 2 && parts[0] == "seed") {
      config.seed = util::parse_uint("chaos seed", parts[1]);
      continue;
    }
    if (parts.size() < 2 || parts.size() > 4)
      throw std::invalid_argument(
          "chaos: bad rule '" + trimmed +
          "' (want <action>:<site>[:<hit>[:<param>]])");
    ChaosRule rule;
    rule.action = parse_action(parts[0]);
    rule.site = parts[1];
    if (!is_chaos_site(rule.site))
      throw std::invalid_argument("chaos: unknown failpoint site '" +
                                  rule.site + "'");
    if (parts.size() >= 3)
      rule.hit = parts[2] == "*"
                     ? 0
                     : util::parse_uint("chaos rule '" + trimmed + "' hit",
                                        parts[2]);
    if (parts.size() >= 4)
      rule.param =
          util::parse_double("chaos rule '" + trimmed + "' param", parts[3]);
    config.rules.push_back(std::move(rule));
  }
  return config;
}

ChaosEngine& ChaosEngine::instance() {
  static ChaosEngine engine;
  return engine;
}

void ChaosEngine::configure(ChaosConfig config) {
  {
    std::scoped_lock lock(mutex_);
    config_ = std::move(config);
    counts_.clear();
    armed_ = !config_.rules.empty();
  }
  util::FailpointHooks hooks;
  hooks.hit = &ChaosEngine::hook_hit;
  hooks.file = &ChaosEngine::hook_file;
  util::set_failpoint_hooks(hooks);
}

void ChaosEngine::reset() {
  util::set_failpoint_hooks({});
  std::scoped_lock lock(mutex_);
  config_ = {};
  counts_.clear();
  armed_ = false;
}

bool ChaosEngine::active() const {
  std::scoped_lock lock(mutex_);
  return armed_;
}

std::uint64_t ChaosEngine::hits(const std::string& site) const {
  std::scoped_lock lock(mutex_);
  const auto it = counts_.find(site);
  return it == counts_.end() ? 0 : it->second;
}

std::uint64_t ChaosEngine::total_hits() const {
  std::scoped_lock lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [site, count] : counts_) total += count;
  return total;
}

void ChaosEngine::install_from_env() {
  const char* spec = std::getenv("HADAS_CHAOS");
  if (spec == nullptr || *spec == '\0') return;
  instance().configure(parse_chaos_spec(spec));
}

void ChaosEngine::hook_hit(const char* site) { instance().on_hit(site); }
void ChaosEngine::hook_file(const char* site, const char* path) {
  instance().on_file(site, path);
}

void ChaosEngine::on_hit(const char* site) {
  bool crash = false;
  {
    std::scoped_lock lock(mutex_);
    if (!armed_) return;
    const std::uint64_t ordinal = ++counts_[site];
    for (const ChaosRule& rule : config_.rules) {
      if (rule.site != site) continue;
      if (rule.hit != 0 && rule.hit != ordinal) continue;
      if (rule.action == ChaosAction::kCrash) crash = true;
      // kDelay: the hit is counted, nothing else. kTear/kBitFlip need a
      // file and are ignored at plain sites.
    }
  }
  if (crash) std::_Exit(kChaosCrashExitCode);
}

void ChaosEngine::on_file(const char* site, const char* path) {
  ChaosAction action = ChaosAction::kDelay;
  double param = -1.0;
  std::uint64_t ordinal = 0;
  bool fire = false;
  std::uint64_t seed = 0;
  {
    std::scoped_lock lock(mutex_);
    if (!armed_) return;
    ordinal = ++counts_[site];
    seed = config_.seed;
    for (const ChaosRule& rule : config_.rules) {
      if (rule.site != site) continue;
      if (rule.hit != 0 && rule.hit != ordinal) continue;
      action = rule.action;
      param = rule.param;
      fire = true;
    }
  }
  if (!fire || action == ChaosAction::kDelay) return;
  if (action == ChaosAction::kCrash) std::_Exit(kChaosCrashExitCode);

  // Corruption actions. All derived choices fork a stream keyed on
  // (seed, site, ordinal) — deterministic at any thread count.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  if (bytes.empty()) return;
  util::Rng derive = util::Rng(seed).fork(fnv1a(site) ^ ordinal);

  if (action == ChaosAction::kTear) {
    const double fraction =
        param >= 0.0 ? std::min(param, 1.0) : derive.uniform(0.0, 1.0);
    const auto kept = static_cast<std::size_t>(
        fraction * static_cast<double>(bytes.size()));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(kept));
    out.flush();
    std::_Exit(kChaosCrashExitCode);  // a torn write implies the crash
  }

  // kBitFlip: flip one bit and keep running — the *next* load must detect
  // the corruption via the checksum and fall back down the chain.
  const std::uint64_t max_bit = static_cast<std::uint64_t>(bytes.size()) * 8;
  const std::uint64_t bit =
      param >= 0.0 ? std::min(static_cast<std::uint64_t>(param), max_bit - 1)
                   : derive.uniform_index(max_bit);
  bytes[bit / 8] = static_cast<char>(
      static_cast<unsigned char>(bytes[bit / 8]) ^ (1u << (bit % 8)));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace hadas::exec
