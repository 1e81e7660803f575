// Property test for the rotating checkpoint chain: across seeded random
// crash (and torn-write) points inside K full rotations of saves, the chain
// must always recover the newest fully-durable snapshot — never a torn one,
// never one older than the last *completed* save.
//
// Each trial forks a child that arms the in-process ChaosEngine with one
// rule, performs R saves of deterministic payloads, and reports every
// completed save through a pipe byte. The parent counts C completed saves,
// reaps the child (clean exit or chaos crash), and demands
// load_newest_valid() return payload C-1 or payload C — the save that was
// in flight when the crash hit may or may not have reached durability, but
// nothing older and nothing invalid may ever surface.
//
// Usage: hadas_durable_property            (standalone, no CLI needed)

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "exec/chaos.hpp"
#include "util/durable/checkpoint_chain.hpp"
#include "util/durable/durable_file.hpp"
#include "util/rng.hpp"
#include "test_helpers.hpp"

namespace {

constexpr const char* kTag = "hadas-property-test-v1";
constexpr std::size_t kKeep = 3;
constexpr std::size_t kSaves = 8;  // kKeep slots rotated through ~3 times

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (ok) {
    std::cout << "  ok: " << what << "\n";
  } else {
    std::cerr << "  FAIL: " << what << "\n";
    ++g_failures;
  }
}

/// Deterministic payload of save `r`: self-describing and long enough that
/// a torn write cannot accidentally remain well-formed.
std::string payload_of(std::size_t r) {
  std::string payload = "{\"r\":" + std::to_string(r) + ",\"blob\":\"";
  for (std::size_t i = 0; i < 256; ++i)
    payload += static_cast<char>('a' + (r + i) % 26);
  return payload + "\"}";
}

std::optional<std::size_t> payload_index(const std::string& payload) {
  const std::string prefix = "{\"r\":";
  if (payload.rfind(prefix, 0) != 0) return std::nullopt;
  const std::size_t end = payload.find(',', prefix.size());
  if (end == std::string::npos) return std::nullopt;
  const std::size_t r =
      std::strtoull(payload.substr(prefix.size(), end).c_str(), nullptr, 10);
  if (payload != payload_of(r)) return std::nullopt;  // torn / flipped
  return r;
}

/// Payload validator every real chain consumer supplies (the engine parses
/// and invariant-checks): rejecting here makes load_newest_valid fall back
/// down the chain — including past torn slots whose mangled envelope makes
/// them look like enveloppe-less legacy payloads.
void validate_payload(const std::string& payload) {
  if (!payload_index(payload).has_value())
    throw std::runtime_error("payload is torn or foreign");
}

/// "t<trial><kind>", the file label of one trial (built by appending: GCC 12
/// flags `"t" + std::string` with a false -Wrestrict).
std::string trial_label(std::size_t trial, const char* kind) {
  std::string label = "t";
  label += std::to_string(trial);
  label += kind;
  return label;
}

/// One trial: arm `rule` in a forked child, save kSaves payloads, count the
/// completed saves, then recover and validate. `tear` trials may lose the
/// save in flight to storage-level truncation *after* the rename; on the
/// very first save that destroys the only copy ever written, so an
/// unrecoverable chain is a legal outcome there (and only there).
void run_trial(const std::string& rule, const std::string& label,
               bool tear = false) {
  static const hadas::test::ScratchDir scratch("durable_property");
  const std::string base = scratch.file(label + ".json");
  const hadas::util::durable::CheckpointChain every_slot(base, kKeep + 1);
  for (std::size_t slot = 0; slot < kKeep + 1; ++slot) {
    std::remove(every_slot.slot_path(slot).c_str());
    std::remove((every_slot.slot_path(slot) + ".tmp").c_str());
  }

  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0) {
    check(false, label + ": pipe() failed");
    return;
  }
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(pipe_fds[0]);
    hadas::exec::ChaosEngine::instance().configure(
        hadas::exec::parse_chaos_spec(rule));
    const hadas::util::durable::CheckpointChain chain(base, kKeep);
    for (std::size_t r = 0; r < kSaves; ++r) {
      chain.save(kTag, payload_of(r));
      const char marker = 1;
      (void)!::write(pipe_fds[1], &marker, 1);
    }
    ::_exit(0);
  }
  ::close(pipe_fds[1]);
  std::size_t completed = 0;
  char marker = 0;
  while (::read(pipe_fds[0], &marker, 1) == 1) ++completed;
  ::close(pipe_fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  if (code != 0 && code != hadas::exec::kChaosCrashExitCode) {
    check(false, label + ": child died abnormally (exit " +
                     std::to_string(code) + ")");
    return;
  }

  const hadas::util::durable::CheckpointChain chain(base, kKeep);
  if (completed == 0) {
    // The very first save was interrupted: an absent chain is legal, a
    // present one must still hold payload 0 intact. A throw (all slots
    // torn) is the one forbidden outcome.
    try {
      const auto loaded = chain.load_newest_valid(kTag, validate_payload);
      const bool ok =
          !loaded.has_value() || payload_index(loaded->payload) == 0u;
      check(ok, label + ": nothing-or-first after a first-save crash");
    } catch (const hadas::util::durable::CheckpointCorruptError& error) {
      if (tear) {
        check(true, label + ": only-ever copy torn by storage (legal)");
      } else {
        check(false, label + ": chain unrecoverable: " + error.what());
      }
    }
    return;
  }

  try {
    const auto loaded = chain.load_newest_valid(kTag, validate_payload);
    if (!loaded.has_value()) {
      check(false, label + ": chain empty after " +
                       std::to_string(completed) + " completed saves");
      return;
    }
    const auto index = payload_index(loaded->payload);
    if (!index.has_value()) {
      check(false, label + ": recovered payload is torn or foreign");
      return;
    }
    // completed-1 is the newest save known durable; `completed` itself is
    // legal when the crash landed after the rename but before the marker.
    check(*index == completed - 1 || *index == completed,
          label + ": recovered r=" + std::to_string(*index) + " after " +
              std::to_string(completed) + " completed saves");
  } catch (const hadas::util::durable::CheckpointCorruptError& error) {
    check(false, label + ": chain unrecoverable after " +
                     std::to_string(completed) + " saves: " + error.what());
  }
}

}  // namespace

int main() {
  const std::vector<std::string> sites = {
      "durable.save.begin", "durable.save.tmp", "durable.save.prerename",
      "durable.save.postrename", "durable.rotate",
  };

  // Crash matrix: every durable site, seeded random hit ordinals spread
  // across all kSaves rotations (each save touches each site at least
  // once, so hit ordinals up to kSaves are reachable).
  hadas::util::Rng rng(0xD15CBEEF);
  std::size_t trial = 0;
  for (const std::string& site : sites) {
    for (std::size_t pick = 0; pick < 6; ++pick) {
      const std::uint64_t hit = 1 + rng.uniform_index(kSaves);
      const std::string rule =
          "crash:" + site + ":" + std::to_string(hit);
      std::cout << "trial " << trial << ": " << rule << "\n";
      run_trial(rule, trial_label(trial++, "_crash"));
    }
  }

  // Torn writes (tear implies the crash) with derived tear fractions.
  for (const std::string& site :
       {std::string("durable.save.tmp"), std::string("durable.save.postrename")}) {
    for (std::size_t pick = 0; pick < 4; ++pick) {
      const std::uint64_t hit = 1 + rng.uniform_index(kSaves);
      const std::uint64_t seed = rng.next_u64();
      const std::string rule = "tear:" + site + ":" + std::to_string(hit) +
                               ";seed:" + std::to_string(seed % 1000);
      std::cout << "trial " << trial << ": " << rule << "\n";
      run_trial(rule, trial_label(trial++, "_tear"), true);
    }
  }

  if (g_failures == 0) {
    std::cout << "all durable-chain property trials passed\n";
    return 0;
  }
  std::cerr << g_failures << " durable-chain property trial(s) FAILED\n";
  return 1;
}
