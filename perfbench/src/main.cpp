// perfbench — the repository benchmark binary.
//
//   perfbench --workload search|serve --seed N --seconds S --trace 0|1
//             --work-dir DIR [--trace-out FILE]
//
// Runs one workload closed-loop for S seconds (after its set-up) and prints,
// as the last line of stdout, one JSON object with `correct`, `attempted`,
// `failed` and `metrics`: the end-to-end metrics when --trace 0, the
// per-layer metrics when --trace 1. Diagnostic lines (fingerprint, tail
// percentile, host-speed probe) come before it. Exit status is non-zero on
// a usage error or a failure outside the ops, with no result line.

#include <charconv>
#include <filesystem>
#include <iostream>
#include <sstream>

#include "bench.hpp"

namespace {

using namespace perfbench;

// Every per-layer metric of a traced run, in BENCHMARK.json order. A
// workload reports 0 for a metric it does not name: that layer does no
// work in its ops.
const char* const kLayerMetrics[] = {
    "nn.matmul_nt_us",         "nn.matmul_tn_us",
    "nn.gemm_gflops_computed", "nn.kd_loss_soft_us",
    "nn.nll_loss_us",          "nn.fit_s",
    "nn.fits_per_op",          "dynn.bank_build_s",
    "dynn.banks_per_op",       "dynn.bank_repeat_share",
    "core.static_eval_us",     "core.outer_evals_per_op",
    "core.generation_s",       "core.checkpoint_save_ms",
    "core.checkpoint_load_ms", "core.checkpoint_kib",
    "exec.busy_share",         "exec.static_cache_hit_share",
    "exec.cost_cache_hit_share", "core.ioe_evals_per_op",
    "core.ioe_distinct_share", "core.dynamic_eval_us",
    "core.nd_sort_us",         "core.crowding_us",
    "core.nsga_overhead_share", "serve.run_trace_us_per_req",
    "net.session_overhead_share", "net.steps_per_op",
    "net.frames_per_op",       "net.journal_saves_per_op",
    "net.journal_bytes_per_req", "net.frame_codec_us_per_mib",
    "util.durable.writes_per_op", "util.durable.bytes_per_op",
};

std::string unit_of(const std::string& name) {
  auto ends = [&](const char* suffix) {
    const std::string s(suffix);
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (ends("_us_per_mib")) return "us/MiB";
  if (ends("_us_per_req")) return "us/req";
  if (ends("_bytes_per_req")) return "B/req";
  if (ends("bytes_per_op")) return "B";
  if (ends("_us")) return "us";
  if (ends("_ms")) return "ms";
  if (ends("_s")) return "s";
  if (ends("_kib")) return "KiB";
  if (ends("gflops_computed")) return "GFLOP/s";
  if (ends("_share")) return "share";
  return "count";
}

std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  std::uint64_t out = 0;
  const auto res = std::from_chars(v.data(), v.data() + v.size(), out);
  if (res.ec != std::errc() || res.ptr != v.data() + v.size())
    throw std::invalid_argument(flag + " expects a whole number, got '" + v + "'");
  return out;
}

Options parse(int argc, char** argv, std::string& trace_out) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      if (value != "search" && value != "serve")
        throw std::invalid_argument("unknown workload '" + value +
                                    "' (search | serve)");
      o.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      o.seed = parse_u64(key, value);
    } else if (key == "--seconds") {
      o.seconds = static_cast<double>(parse_u64(key, value));
      if (o.seconds < 1) throw std::invalid_argument("--seconds must be >= 1");
    } else if (key == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace expects 0 or 1");
      o.trace = value == "1";
    } else if (key == "--work-dir") {
      o.work_dir = value;
    } else if (key == "--trace-out") {
      trace_out = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("missing --workload");
  if (o.work_dir.empty()) throw std::invalid_argument("missing --work-dir");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::string trace_out;
    const Options options = parse(argc, argv, trace_out);
    std::filesystem::create_directories(options.work_dir);

    const double probe_before = host_probe_mib_per_s();
    Tracer tracer;
    RunResult r = options.workload == "search" ? run_search(options, tracer)
                                               : run_serve(options, tracer);
    // Read before the probe below, whose buffer must not count.
    const double rss_mb = peak_rss_mb();
    const double probe_after = host_probe_mib_per_s();

    std::ostringstream metrics;
    if (!options.trace) {
      const Tail tail = tail_of(r.op_s);
      const double throughput = r.timed_wall_s > 0 ? r.work_done / r.timed_wall_s : 0;
      std::cout << "workload " << options.workload << " seed " << options.seed
                << ": " << r.op_s.size() << " ops in " << r.timed_wall_s
                << " s, " << r.work_done << " " << r.work_unit << "\n"
                << "op_tail_s is p" << tail.percentile << " of " << r.op_s.size()
                << " ops\n";
      // Ops completed per 5 s window: a slow host phase shows as a dip.
      std::vector<double> windows;
      for (double t : r.op_done_s) {
        const auto w = static_cast<std::size_t>(t / 5.0);
        if (windows.size() <= w) windows.resize(w + 1, 0.0);
        windows[w] += 1.0 / 5.0;
      }
      std::cout << "ops/s by 5 s window:";
      for (double w : windows) std::cout << " " << w;
      std::cout << "\n";
      metrics << "\"setup_s\": {\"value\": " << num(median(r.setup_s))
              << ", \"unit\": \"s\"}, "
              << "\"op_p50_s\": {\"value\": " << num(median(r.op_s))
              << ", \"unit\": \"s\"}, "
              << "\"op_tail_s\": {\"value\": " << num(tail.value)
              << ", \"unit\": \"s\"}, "
              << "\"throughput_per_s\": {\"value\": " << num(throughput)
              << ", \"unit\": \"1/s\"}, "
              << "\"peak_rss_mb\": {\"value\": " << num(rss_mb)
              << ", \"unit\": \"MB\"}";
    } else {
      for (const std::string& name : r.named)
        if (!r.layers.count(name))
          throw std::runtime_error("traced " + options.workload +
                                   " run did not measure " + name);
      const double overhead = median(r.traced_op_s) - median(r.untraced_op_s);
      std::cout << "tracing overhead (traced - untraced op p50): " << overhead
                << " s over " << r.traced_op_s.size() << " + "
                << r.untraced_op_s.size() << " ops\n";
      if (!trace_out.empty()) {
        tracer.save(trace_out, {{"trace_overhead_op_p50_s", overhead},
                                {"host_probe_start_mib_per_s", probe_before},
                                {"host_probe_end_mib_per_s", probe_after}});
        std::cout << "spans (" << tracer.spans().size() << ") -> " << trace_out
                  << "\n";
      }
      bool first = true;
      for (const char* name : kLayerMetrics) {
        const auto it = r.layers.find(name);
        const double v = it == r.layers.end() ? 0.0 : it->second;
        metrics << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
                << num(v) << ", \"unit\": \"" << unit_of(name) << "\"}";
        first = false;
      }
    }
    std::cout << "output fingerprint " << options.workload << " seed "
              << options.seed << ": " << std::hex << r.fingerprint << std::dec
              << " over the first " << r.fingerprint_ops << " ops\n"
              << "host probe (diagnostic only): " << probe_before
              << " MiB/s at start, " << probe_after << " MiB/s at end\n";
    const bool correct = r.failed == 0 && r.attempted > 0;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << r.attempted << ", \"failed\": "
              << r.failed << ", \"metrics\": {" << metrics.str() << "}}" << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
