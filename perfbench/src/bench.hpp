// Shared plumbing of the perfbench binary: options, the op loop's
// bookkeeping, in-memory spans, fingerprints and small statistics helpers.
//
// Every layer is timed from the benchmark's side of the call: spans wrap
// calls into the library's public functions, never code inside it.

#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/hadas_engine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout for checkpoints and journals.
  std::string work_dir;
};

/// Per-op seed derived from the workload seed (SplitMix64 finalizer), so the
/// program only ever sees generated inputs.
inline std::uint64_t op_seed(std::uint64_t seed, std::uint64_t op) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (op + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// FNV-1a accumulator over 64-bit words and double bit patterns.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  }
  void mix_double(double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  }
  void mix_bytes(const std::string& s) {
    for (unsigned char c : s) mix(c);
  }
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// The highest percentile that still has at least ten samples above it:
/// the sample at sorted index n - 11. Returns {value, percentile}.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
};
inline Tail tail_of(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t idx = n > 10 ? n - 11 : 0;
  t.value = v[idx];
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return t;
}

/// One recorded span: a benchmark-side call into a layer.
struct Span {
  std::string name;
  std::int64_t op = -1;   ///< op id, -1 for set-up and standalone probes
  std::int64_t parent = -1;
  double start_s = 0.0;   ///< since the tracer's epoch
  double end_s = 0.0;
  std::uint64_t calls = 1;  ///< library calls the span covers
  double seconds() const { return end_s - start_s; }
};

/// In-memory span recorder. Spans nest through a stack, so it must only be
/// used from the benchmark's own (main) thread.
class Tracer {
 public:
  bool on = false;

  std::int64_t begin(const std::string& name, std::int64_t op,
                     std::uint64_t calls = 1) {
    if (!on) return -1;
    Span s;
    s.name = name;
    s.op = op;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start_s = now();
    s.calls = calls;
    spans_.push_back(s);
    stack_.push_back(static_cast<std::int64_t>(spans_.size() - 1));
    return stack_.back();
  }
  void end(std::int64_t id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_s = now();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }
  /// Record an already-measured interval (e.g. a gap between callbacks)
  /// under `parent` (-1: none). Returns the span's id, -1 when tracing is off.
  std::int64_t record(const std::string& name, std::int64_t op, double start_s,
                      double end_s, std::int64_t parent) {
    if (!on) return -1;
    Span s;
    s.name = name;
    s.op = op;
    s.parent = parent;
    s.start_s = start_s;
    s.end_s = end_s;
    spans_.push_back(s);
    return static_cast<std::int64_t>(spans_.size() - 1);
  }
  double now() const { return seconds_since(epoch_); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per-call seconds of every span with this name.
  std::vector<double> per_call(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.name == name && s.calls > 0)
        out.push_back(s.seconds() / static_cast<double>(s.calls));
    return out;
  }

  /// Self time per span name: duration minus the part its children cover.
  std::map<std::string, double> self_times() const;
  /// Writes every span as JSON lines to `path`, plus a self-time summary.
  void save(const std::string& path,
            const std::map<std::string, double>& extra) const;

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, std::int64_t op,
             std::uint64_t calls = 1)
      : tracer_(tracer), id_(tracer.begin(name, op, calls)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

/// Everything one workload run reports back to main().
struct RunResult {
  std::vector<double> setup_s;  ///< one entry per set-up repetition
  std::vector<double> op_s;     ///< latency of every completed op
  std::vector<double> op_done_s;  ///< completion time since the timed start
  double timed_wall_s = 0.0;    ///< wall time of the timed phase
  double work_done = 0.0;       ///< searches / served requests
  std::string work_unit;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Output fingerprint over the first `fingerprint_ops` ops, which every
  /// run completes whatever its length.
  std::uint64_t fingerprint = 0;
  std::size_t fingerprint_ops = 0;
  /// Traced run only: per-layer metric values, and the names this workload
  /// must have measured (the rest are reported as 0: not exercised).
  std::map<std::string, double> layers;
  std::set<std::string> named;
  /// Traced run only: op latencies split by whether spans were recorded.
  std::vector<double> traced_op_s, untraced_op_s;
};

/// Fixed memory-touching probe (8 MiB read-modify-write passes); returns
/// MiB/s. A diagnostic of host speed only: never a metric or a normaliser.
double host_probe_mib_per_s();

/// CPUs this process may run on (what `nproc` prints).
std::size_t nproc();

/// Resident set size high-water mark of this process (VmHWM), in MiB.
double peak_rss_mb();

/// Standalone kernel probes every traced run records (they take inputs
/// generated from the seed, not from the workload's ops):
/// nn.matmul_nt_us, nn.matmul_tn_us, nn.gemm_gflops_computed,
/// nn.kd_loss_soft_us, nn.nll_loss_us, net.frame_codec_us_per_mib.
void kernel_probes(Tracer& tracer, std::uint64_t seed,
                   std::map<std::string, double>& layers);

/// Times core::non_dominated_sort and core::crowding_distance on a point set
/// taken from an op's history; records core.nd_sort / core.crowding spans.
void sort_probe(Tracer& tracer, std::int64_t op,
                const std::vector<std::vector<double>>& points);

/// Builds the exit bank of each backbone on a fresh serial engine
/// (dynn.bank_build spans) and runs Trainer::fit on SyntheticTask features
/// with the config's training budget (nn.fit spans). Sets dynn.bank_build_s
/// and nn.fit_s.
void bank_probes(Tracer& tracer, hadas::core::HadasConfig config,
                 const std::vector<hadas::supernet::BackboneConfig>& backbones,
                 std::map<std::string, double>& layers);

/// True if no point of `points` Pareto-dominates another and every
/// coordinate is finite.
bool mutually_non_dominated(const std::vector<std::vector<double>>& points);

/// The workloads. `tracer` records spans only in a traced run.
RunResult run_search(const Options& options, Tracer& tracer);
RunResult run_serve(const Options& options, Tracer& tracer);

}  // namespace perfbench
