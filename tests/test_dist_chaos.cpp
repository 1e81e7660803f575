// Distributed-search chaos driver: byte-identity of the island model under
// worker crashes, coordinator crashes, crash loops (quarantine + inline
// salvage) and hangs (heartbeat watchdog), and no worker outliving a
// SIGKILLed coordinator.
//
// For each island count K in {1, 2, 4} an uninterrupted *inline* run (all
// islands evolved sequentially in the coordinator process) produces the
// reference artifact. Every spawn-mode run — healthy, or killed at any
// dist.* failpoint site, or crash-looped until quarantine, or hung until
// the watchdog fires — must end with a merged front byte-identical to that
// reference.
//
// Usage: hadas_dist_chaos <path-to-hadas-cli>
//
// Exit code 0 = every scenario converged bit-identically.

#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "exec/chaos.hpp"

namespace {

std::string g_cli;
std::string g_dir;
int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (ok) {
    std::cout << "  ok: " << what << "\n";
  } else {
    std::cerr << "  FAIL: " << what << "\n";
    ++g_failures;
  }
}

/// Run the CLI with an optional environment prefix (HADAS_CHAOS=... etc);
/// returns the exit code, or -1 for abnormal termination.
int run_cli(const std::string& args, const std::string& env,
            const std::string& log) {
  std::string cmd;
  if (!env.empty()) cmd += env + " ";
  cmd += "'" + g_cli + "' " + args + " >" + log + " 2>&1";
  const int status = std::system(cmd.c_str());
  if (status < 0) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return -1;
}

/// Start the CLI in the background, like run_cli; returns the pid of the
/// CLI process itself.
pid_t start_cli(const std::string& args, const std::string& env,
                const std::string& log) {
  std::string cmd = "exec ";
  if (!env.empty()) cmd += "env " + env + " ";
  cmd += "'" + g_cli + "' " + args + " >" + log + " 2>&1";
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execl("/bin/sh", "sh", "-c", cmd.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  return pid;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

/// Live `hadas worker` processes with an argument under `workdir` (their
/// state directory), found by scanning /proc/<pid>/cmdline.
std::vector<pid_t> workers_under(const std::string& workdir) {
  std::vector<pid_t> pids;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc", ec)) {
    const std::string name = entry.path().filename().string();
    if (name.find_first_not_of("0123456789") != std::string::npos) continue;
    const std::string cmdline = slurp(entry.path().string() + "/cmdline");
    bool worker = false;
    bool under = false;
    for (std::size_t at = 0; at < cmdline.size();) {
      const std::size_t end = cmdline.find('\0', at);
      const std::string arg = cmdline.substr(
          at, end == std::string::npos ? std::string::npos : end - at);
      worker = worker || arg == "worker";
      under = under || arg.rfind(workdir + "/", 0) == 0;
      if (end == std::string::npos) break;
      at = end + 1;
    }
    if (worker && under) pids.push_back(std::stoi(name));
  }
  return pids;
}

/// One distributed search invocation. The budget keeps a full run under a
/// second or two; pop 8 still splits into >= 2 genomes per island at K = 4.
std::string dist_args(std::size_t islands, const std::string& workdir,
                      const std::string& out, const std::string& mode,
                      const std::string& extra = "") {
  std::string args =
      "search --device tx2-gpu --pop 8 --gens 4 --ioe-per-gen 1 --ioe-pop 8"
      " --ioe-gens 4 --train-size 200 --epochs 2 --seed 2023"
      " --dist " + std::to_string(islands) + " --migrate-every 2" +
      " --dist-mode " + mode + " --dist-workdir " + workdir + " --out " + out;
  if (!extra.empty()) args += " " + extra;
  return args;
}

std::string fresh_workdir(const std::string& stem) {
  const std::string dir = g_dir + "/" + stem;
  std::filesystem::remove_all(dir);
  return dir;
}

/// The value of counter `name` in a --metrics-out snapshot, or -1 when the
/// snapshot does not list it.
double metric_value(const std::string& snapshot, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const std::size_t at = snapshot.find(key);
  if (at == std::string::npos) return -1.0;
  return std::strtod(snapshot.c_str() + at + key.size(), nullptr);
}

/// Kill-anywhere scenario at island count `islands`: inject a crash at
/// `site` (hit `hit`). A worker-side crash must be healed inside the same
/// coordinator run (respawn strips the chaos schedule); a coordinator-side
/// crash exits 86 and a clean rerun of the same command must resume from
/// the workdir. Either way the final artifact must match the reference, and
/// the kill must provably have fired: a coordinator site's first run exits
/// 86, a worker site's run restarts at least one worker.
void kill_and_converge(std::size_t islands, const std::string& site,
                       std::uint64_t hit, const std::string& reference) {
  const std::string stem = "kill" + std::to_string(islands) + "_" + site +
                           "_" + std::to_string(hit);
  const std::string workdir = fresh_workdir(stem);
  const std::string out = g_dir + "/" + stem + "_out.json";
  const std::string log = g_dir + "/" + stem + ".log";
  const std::string metrics = g_dir + "/" + stem + "_metrics.json";
  std::remove(out.c_str());
  std::remove(metrics.c_str());
  const std::string chaos =
      "HADAS_CHAOS='crash:" + site + ":" + std::to_string(hit) + "'";
  const std::string label = site + " (hit " + std::to_string(hit) + ", K=" +
                            std::to_string(islands) + ")";
  const bool coordinator_site = site == "dist.spawn" || site == "dist.merge";

  int code = run_cli(
      dist_args(islands, workdir, out, "spawn", "--metrics-out " + metrics),
      chaos, log);
  if (coordinator_site) {
    check(code == hadas::exec::kChaosCrashExitCode,
          label + ": the coordinator crashed at the site (exit " +
              std::to_string(code) + ")");
  } else {
    check(metric_value(slurp(metrics), "dist.workers_restarted_total") >= 1,
          label + ": a worker was killed at the site and restarted");
  }
  if (code == hadas::exec::kChaosCrashExitCode) {
    // The coordinator itself crashed: rerun clean, resuming the workdir.
    code = run_cli(dist_args(islands, workdir, out, "spawn"), "", log);
  }
  if (code != 0) {
    check(false, label + ": run did not converge (exit " +
                     std::to_string(code) + "):\n" + slurp(log));
    return;
  }
  check(file_exists(out) && slurp(out) == reference,
        "kill at " + label + " -> merged front matches the reference");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: hadas_dist_chaos <path-to-hadas-cli>\n";
    return 2;
  }
  g_cli = argv[1];
  const char* tmp = std::getenv("TMPDIR");
  g_dir = std::string(tmp != nullptr ? tmp : "/tmp") + "/hadas_dist_chaos";
  ::mkdir(g_dir.c_str(), 0755);

  // Uninterrupted inline references, one per island count.
  std::vector<std::string> reference(5);
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    std::cout << "inline reference K=" << k << "...\n";
    const std::string out = g_dir + "/ref" + std::to_string(k) + "_out.json";
    std::remove(out.c_str());
    const std::string workdir = fresh_workdir("ref" + std::to_string(k));
    if (run_cli(dist_args(k, workdir, out, "inline"), "",
                g_dir + "/ref" + std::to_string(k) + ".log") != 0) {
      std::cerr << "inline reference K=" << k << " failed:\n"
                << slurp(g_dir + "/ref" + std::to_string(k) + ".log");
      return 1;
    }
    reference[k] = slurp(out);
    check(!reference[k].empty(), "reference K=" + std::to_string(k) +
                                     " is non-empty");
  }
  check(reference[1] != reference[2],
        "island topology actually changes the search (K=1 vs K=2 differ)");

  // Healthy spawn runs must byte-match the inline mode at every K.
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    std::cout << "spawn vs inline K=" << k << "...\n";
    const std::string stem = "spawn" + std::to_string(k);
    const std::string out = g_dir + "/" + stem + "_out.json";
    std::remove(out.c_str());
    const int code = run_cli(dist_args(k, fresh_workdir(stem), out, "spawn"),
                             "", g_dir + "/" + stem + ".log");
    check(code == 0 && slurp(out) == reference[k],
          "spawned workers reproduce the inline run at K=" +
              std::to_string(k));
  }

  // Kill matrix: every dist failpoint site at K=2, plus spot checks at
  // K=1 and K=4. Worker sites heal inside one coordinator run; coordinator
  // sites (spawn/merge) need the clean rerun.
  const std::vector<std::pair<std::string, std::uint64_t>> matrix = {
      {"dist.spawn", 1},          {"dist.worker.start", 1},
      {"dist.worker.round.begin", 1}, {"dist.worker.round.begin", 2},
      {"dist.worker.round.end", 1},   {"dist.worker.round.end", 2},
      {"dist.migrate.write", 1},  {"dist.migrate.read", 1},
      {"dist.worker.final", 1},   {"dist.heartbeat", 3},
      {"dist.merge", 1},
  };
  for (const auto& [site, hit] : matrix) {
    std::cout << "kill at " << site << " hit " << hit << " (K=2)...\n";
    kill_and_converge(2, site, hit, reference[2]);
  }
  for (const auto& [site, hit] :
       std::vector<std::pair<std::string, std::uint64_t>>{
           {"dist.worker.round.end", 1}, {"dist.merge", 1}}) {
    std::cout << "kill at " << site << " hit " << hit << " (K=1)...\n";
    kill_and_converge(1, site, hit, reference[1]);
  }
  for (const auto& [site, hit] :
       std::vector<std::pair<std::string, std::uint64_t>>{
           {"dist.worker.start", 1}, {"dist.migrate.read", 1}}) {
    std::cout << "kill at " << site << " hit " << hit << " (K=4)...\n";
    kill_and_converge(4, site, hit, reference[4]);
  }

  // Crash loop -> circuit breaker -> quarantine -> inline salvage. With
  // HADAS_CHAOS_RESPAWN_KEEP every worker incarnation inherits the
  // every-hit crash rule, so islands can only finish through the salvage
  // path — which must still reproduce the reference bytes.
  {
    std::cout << "crash loop / breaker quarantine...\n";
    const std::string out = g_dir + "/loop_out.json";
    const std::string log = g_dir + "/loop.log";
    std::remove(out.c_str());
    const int code = run_cli(
        dist_args(2, fresh_workdir("loop"), out, "spawn", "--island-retries 2"),
        "HADAS_CHAOS='crash:dist.worker.round.begin' "
        "HADAS_CHAOS_RESPAWN_KEEP=1",
        log);
    const std::string text = slurp(log);
    check(code == 0 && slurp(out) == reference[2],
          "crash-looped islands still converge to the reference");
    check(text.find("quarantin") != std::string::npos,
          "quarantine was announced loudly");
  }

  // Hang: island 0 freezes at round 1; the heartbeat watchdog must detect
  // the stall, kill the worker, and a respawn (hang env stripped) finishes
  // the island. heartbeat-ms must exceed the worst-case generation time or
  // healthy workers trip the watchdog too (still converges, via quarantine
  // + salvage, but the assertion below wants the clean path).
  {
    std::cout << "hang / heartbeat watchdog...\n";
    const std::string out = g_dir + "/hang_out.json";
    const std::string log = g_dir + "/hang.log";
    std::remove(out.c_str());
    const int code = run_cli(dist_args(2, fresh_workdir("hang"), out, "spawn",
                                       "--heartbeat-ms 2000"),
                             "HADAS_DIST_HANG=0:1", log);
    const std::string text = slurp(log);
    check(code == 0 && slurp(out) == reference[2],
          "hung worker is killed and the run still matches the reference");
    check(text.find("heartbeat") != std::string::npos,
          "heartbeat stall was reported");
  }

  // Coordinator SIGKILLed mid-run: its workers must die with it (none may
  // keep writing the workdir a rerun resumes), and a clean rerun converges.
  // Island 1 hangs before its last round, so the run is certainly live
  // when the coordinator dies.
  {
    std::cout << "coordinator SIGKILLed mid-run...\n";
    const std::string workdir = fresh_workdir("orphan");
    const std::string out = g_dir + "/orphan_out.json";
    const std::string log = g_dir + "/orphan.log";
    std::remove(out.c_str());
    const std::string args = dist_args(2, workdir, out, "spawn");
    const pid_t pid = start_cli(args, "HADAS_DIST_HANG=1:1", log);
    bool live = false;
    for (int i = 0; i < 1200 && !live; ++i) {
      live = file_exists(workdir + "/migrants_i1_r0.json");
      if (!live) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    check(live && WIFSIGNALED(status),
          "the coordinator was SIGKILLed mid-run");
    std::vector<pid_t> left = workers_under(workdir);
    for (int i = 0; i < 40 && !left.empty(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      left = workers_under(workdir);
    }
    check(left.empty(), "no worker outlives the coordinator by 2 s (" +
                            std::to_string(left.size()) + " left)");
    for (const pid_t orphan : left) ::kill(orphan, SIGKILL);
    const int code = run_cli(args, "", log);
    check(code == 0 && slurp(out) == reference[2],
          "a clean rerun after the coordinator SIGKILL matches the reference");
  }

  if (g_failures == 0) {
    std::cout << "all dist chaos scenarios passed\n";
    return 0;
  }
  std::cerr << g_failures << " dist chaos scenario(s) FAILED\n";
  return 1;
}
