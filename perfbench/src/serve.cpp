// `serve` workload: one exit bank behind the full serving envelope (bounded
// queue, deadline, watchdog, degraded modes, thermal model, 5 % transient
// faults), served by a net::ServeDaemon over the in-process FakeNetwork.
// Each op is one net::ServeClient session that uploads a 20,000-request
// Poisson trace and downloads the report; up to min(4, nproc) sessions run
// at once, all stepped from this one thread. src/net (framing, CRC-64,
// save-before-ack journals) and runtime/serve do all of the op work.

#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "data/sample_stream.hpp"
#include "net/client.hpp"
#include "net/fake_socket.hpp"
#include "net/server.hpp"
#include "runtime/serve/bridge.hpp"
#include "runtime/serve/traffic.hpp"
#include "supernet/baselines.hpp"
#include "util/durable/durable_file.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace serve = hadas::runtime::serve;

constexpr std::size_t kRequests = 20000;
constexpr double kArrivalHz = 100.0;
constexpr std::size_t kFingerprintOps = 4;
// Per-op net counts come from solo replays of ops 0..kCountOps-1: sessions
// that overlap cannot be told apart in the process-wide counters.
constexpr std::size_t kCountOps = 2;
const hadas::util::HostPort kAddress{"perfbench", 1};

/// FNV-1a over a trace as it crosses the wire: the identity of a session's
/// upload.
std::uint64_t trace_key(const std::vector<serve::RemoteRequest>& requests) {
  Fnv f;
  for (const auto& r : requests) {
    f.mix(r.id);
    f.mix_double(r.arrival_s);
    f.mix(r.sample_pos);
  }
  return f.h;
}

/// Benchmark-side decorator around ServeService::run_trace: times every call
/// and keeps each returned report, keyed by the trace it served, until the
/// session that uploaded that trace downloads it.
class RecordingService : public serve::ServeService {
 public:
  struct Call {
    std::string report;
    double start_s = 0.0, end_s = 0.0;
  };

  RecordingService(const serve::ServeService& inner, const Tracer& clock)
      : inner_(inner), clock_(clock) {}

  std::size_t sample_count() const override { return inner_.sample_count(); }
  const std::string& fingerprint() const override { return inner_.fingerprint(); }
  std::string run_trace(
      const std::vector<serve::RemoteRequest>& requests) const override {
    Call call;
    call.start_s = clock_.now();
    call.report = inner_.run_trace(requests);
    call.end_s = clock_.now();
    seconds_ += call.end_s - call.start_s;
    requests_ += requests.size();
    pending_.emplace(trace_key(requests), call);
    return call.report;
  }

  /// Removes and returns the call that served the trace with this key, if
  /// any.
  std::optional<Call> take(std::uint64_t key) const {
    const auto it = pending_.find(key);
    if (it == pending_.end()) return std::nullopt;
    Call call = std::move(it->second);
    pending_.erase(it);
    return call;
  }

  double seconds() const { return seconds_; }
  std::size_t requests() const { return requests_; }

 private:
  const serve::ServeService& inner_;
  const Tracer& clock_;
  mutable std::multimap<std::uint64_t, Call> pending_;
  mutable double seconds_ = 0.0;
  mutable std::size_t requests_ = 0;
};

hadas::core::HadasConfig serve_engine_config() {
  hadas::core::HadasConfig config;  // the serving CLI's bank budget
  config.data.train_size = 1500;
  config.bank.train.epochs = 8;
  config.exec.threads = 1;
  return config;
}

/// The serve stack of the serving CLI for `--baseline a0` with the envelope
/// on, plus a daemon listening on the fake network. Not movable: the layers
/// hold references to each other.
struct Stack {
  Stack(const std::string& state_dir, const Tracer& clock) {
    backbone = hadas::supernet::baseline_a0();
    engine = std::make_unique<hadas::core::HadasEngine>(
        hadas::supernet::SearchSpace::attentive_nas(),
        hadas::hw::Target::kTx2PascalGpu, serve_engine_config());
    bank = &engine->exit_bank(backbone);
    costs = &engine->cost_table(backbone);
    const std::size_t layers = bank->total_layers();
    const std::size_t early =
        std::max(hadas::dynn::ExitPlacement::kFirstEligible, layers / 3);
    placement.emplace(layers,
                      std::vector<std::size_t>{early, std::max(early + 1, 2 * layers / 3)});
    ladder = serve::entropy_ladder(0.5, 0.15, 3);

    serve::ServeLane lane{costs, hadas::hw::default_setting(costs->evaluator().device()),
                          hadas::hw::FaultConfig{}};
    lane.faults.transient_failure_rate = 0.05;
    serve::ServeConfig config;
    config.admission.queue_capacity = 64;
    config.slo.deadline_s = 0.05;
    config.watchdog.overrun_factor = 4.0;
    config.degraded.enabled = true;
    config.thermal_enabled = true;
    config.exec.threads = 1;
    stream = std::make_unique<hadas::data::SampleStream>(engine->task(), 2000, 5);
    supervisor = std::make_unique<serve::ServeSupervisor>(
        *bank, std::vector<serve::ServeLane>{lane}, config);
    bridge = std::make_unique<serve::SupervisorBridge>(
        *supervisor, *placement, serve::ladder_view(ladder), *stream,
        "perfbench-serve-a0");
    recorder = std::make_unique<RecordingService>(*bridge, clock);

    hadas::net::DaemonConfig daemon_config;
    daemon_config.listen = kAddress;
    daemon_config.state_dir = state_dir;
    daemon = std::make_unique<hadas::net::ServeDaemon>(handler, *recorder,
                                                       daemon_config);
    daemon->start();
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  hadas::supernet::BackboneConfig backbone;
  std::unique_ptr<hadas::core::HadasEngine> engine;
  const hadas::dynn::ExitBank* bank = nullptr;
  const hadas::dynn::MultiExitCostTable* costs = nullptr;
  std::optional<hadas::dynn::ExitPlacement> placement;
  std::vector<std::unique_ptr<hadas::runtime::ExitPolicy>> ladder;
  std::unique_ptr<hadas::data::SampleStream> stream;
  std::unique_ptr<serve::ServeSupervisor> supervisor;
  std::unique_ptr<serve::SupervisorBridge> bridge;
  std::unique_ptr<RecordingService> recorder;
  hadas::net::FakeSocketHandler handler{std::make_shared<hadas::net::FakeNetwork>()};
  std::unique_ptr<hadas::net::ServeDaemon> daemon;
};

/// Key of the trace a client with `config` uploads: the Poisson trace of its
/// traffic settings, sent as positions (request i carries sample position i,
/// which the server maps through its own stream).
std::uint64_t expected_trace_key(const hadas::data::SampleStream& stream,
                                 const hadas::net::ClientConfig& config) {
  std::vector<serve::RemoteRequest> wire;
  for (const auto& r : serve::poisson_trace(stream, config.traffic))
    wire.push_back({r.id, r.arrival_s, r.id});
  return trace_key(wire);
}

hadas::net::ClientConfig client_config(const Options& options, std::size_t op,
                                       const std::string& id,
                                       const std::string& dir) {
  hadas::net::ClientConfig config;
  config.connect = kAddress;
  config.session_id = id;
  config.state_path = dir + "/client-" + id + ".json";
  config.traffic.requests = kRequests;
  config.traffic.arrival_rate_hz = kArrivalHz;
  config.traffic.seed = op_seed(options.seed, op);
  return config;
}

struct Session {
  std::size_t op = 0;
  std::uint64_t trace_key = 0;
  bool traced = false;
  double start_s = 0.0;
  Clock::time_point t0;
  std::unique_ptr<hadas::net::ServeClient> client;
};

}  // namespace

RunResult run_serve(const Options& options, Tracer& tracer) {
  const std::string dir = options.work_dir + "/serve";
  const std::size_t concurrency = std::min<std::size_t>(nproc(), 4);
  RunResult out;
  out.work_unit = "served requests";

  // Set-up: bank training, the serve stack and a started daemon. Twice
  // before the timed phase and twice after it (into a spare directory), so
  // that the median spans more than one host phase.
  auto setup = [&](const std::string& state_dir) {
    fs::remove_all(state_dir);
    fs::create_directories(state_dir);
    const auto t0 = Clock::now();
    auto built = std::make_unique<Stack>(state_dir, tracer);
    out.setup_s.push_back(seconds_since(t0));
    return built;
  };
  setup(dir + "-spare");
  const std::unique_ptr<Stack> stack = setup(dir);

  // A clean network must never make a session resume. (bytes_replayed is no
  // evidence: it also counts the first send of a trace queued before the
  // handshake.)
  auto& metrics = hadas::net::net_metrics();
  const std::uint64_t resumed_before = metrics.sessions_resumed.value() +
                                       metrics.client_reconnects.value();
  std::vector<std::uint64_t> report_fnv;  // by op index, 0 = failed
  std::vector<Session> active;
  std::size_t next_op = 0;
  const std::size_t min_ops = std::max(kFingerprintOps, 2 * kCountOps);

  const auto start = Clock::now();
  while (true) {
    while (active.size() < concurrency &&
           (next_op < min_ops || seconds_since(start) < options.seconds)) {
      Session s;
      s.op = next_op++;
      s.traced = options.trace && s.op % 2 == 0;
      s.start_s = tracer.now();
      const auto config =
          client_config(options, s.op, "op-" + std::to_string(s.op), dir);
      s.trace_key = expected_trace_key(*stack->stream, config);
      s.t0 = Clock::now();
      s.client = std::make_unique<hadas::net::ServeClient>(stack->handler, config);
      report_fnv.push_back(0);
      ++out.attempted;
      active.push_back(std::move(s));
    }
    if (active.empty()) break;
    // One round: every client steps, then the daemon serves them all.
    std::vector<bool> threw(active.size(), false);
    for (std::size_t i = 0; i < active.size(); ++i) {
      try {
        active[i].client->step();
      } catch (const std::exception& e) {
        std::cerr << "serve op " << active[i].op << " failed: " << e.what() << "\n";
        threw[i] = true;
      }
    }
    stack->daemon->step();
    for (std::size_t i = active.size(); i-- > 0;) {
      Session& s = active[i];
      if (!threw[i] && !s.client->done()) continue;
      const double wall = seconds_since(s.t0);
      // The report the service returned for this session's own trace.
      const auto call =
          threw[i] ? std::nullopt : stack->recorder->take(s.trace_key);
      const bool ok = call && call->report == s.client->report() &&
                      s.client->reconnects() == 0;
      if (ok) {
        out.op_s.push_back(wall);
        out.op_done_s.push_back(seconds_since(start));
        (s.traced ? out.traced_op_s : out.untraced_op_s).push_back(wall);
        Fnv f;
        f.mix_bytes(s.client->report());
        report_fnv[s.op] = f.h;
        tracer.on = s.traced;
        const std::int64_t id = tracer.record(
            "serve.session", static_cast<std::int64_t>(s.op), s.start_s,
            tracer.now(), -1);
        tracer.record("serve.run_trace", static_cast<std::int64_t>(s.op),
                      call->start_s, call->end_s, id);
        tracer.on = false;
      } else {
        ++out.failed;
      }
      fs::remove(dir + "/client-op-" + std::to_string(s.op) + ".json");
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  out.timed_wall_s = seconds_since(start);
  setup(dir + "-spare");
  setup(dir + "-spare");
  fs::remove_all(dir + "-spare");
  out.work_done = static_cast<double>(out.op_s.size() * kRequests);
  const double run_trace_s = stack->recorder->seconds();
  const std::size_t run_trace_requests = stack->recorder->requests();
  if (metrics.sessions_resumed.value() + metrics.client_reconnects.value() !=
      resumed_before) {
    std::cerr << "serve: a session resumed on a lossless network\n";
    out.failed = out.attempted;
  }

  Fnv f;
  for (std::size_t op = 0; op < kFingerprintOps; ++op)
    if (report_fnv[op] != 0) {
      f.mix(report_fnv[op]);
      ++out.fingerprint_ops;
    }
  out.fingerprint = f.h;
  if (!options.trace) {
    fs::remove_all(dir);
    return out;
  }

  // Solo replays of the first ops: per-session deltas of the process-wide
  // net and durable counters, and a check that a session's report does not
  // depend on what ran beside it.
  tracer.on = true;
  std::vector<double> steps, frames, saves, journal_bytes, writes, bytes;
  for (std::size_t op = 0; op < kCountOps; ++op) {
    const auto net0 = std::make_tuple(metrics.frames_sent.value(),
                                      metrics.journal_saves.value(),
                                      metrics.bytes_journaled.value());
    const auto durable0 = hadas::util::durable::durable_stats();
    const auto config =
        client_config(options, op, "replay-" + std::to_string(op), dir);
    hadas::net::ServeClient client(stack->handler, config);
    std::size_t n = 0;
    {
      ScopedSpan span(tracer, "serve.replay_session", static_cast<std::int64_t>(op));
      while (!client.done()) {
        client.step();
        stack->daemon->step();
        ++n;
      }
    }
    const auto call =
        stack->recorder->take(expected_trace_key(*stack->stream, config));
    Fnv rf;
    rf.mix_bytes(client.report());
    if (!call || call->report != client.report() || rf.h != report_fnv[op])
      throw std::runtime_error("serve: solo replay report differs from op " +
                               std::to_string(op));
    const auto durable1 = hadas::util::durable::durable_stats();
    steps.push_back(static_cast<double>(n));
    frames.push_back(static_cast<double>(metrics.frames_sent.value() -
                                         std::get<0>(net0)));
    saves.push_back(static_cast<double>(metrics.journal_saves.value() -
                                        std::get<1>(net0)));
    journal_bytes.push_back(static_cast<double>(
        metrics.bytes_journaled.value() - std::get<2>(net0)));
    writes.push_back(static_cast<double>(durable1.writes - durable0.writes));
    bytes.push_back(
        static_cast<double>(durable1.bytes_written - durable0.bytes_written));
  }
  fs::remove_all(dir);

  kernel_probes(tracer, options.seed, out.layers);
  bank_probes(tracer, serve_engine_config(), {stack->backbone, stack->backbone},
              out.layers);
  auto& L = out.layers;
  L["serve.run_trace_us_per_req"] =
      1e6 * run_trace_s / static_cast<double>(run_trace_requests);
  // Base: wall time of the timed phase, all sessions.
  L["net.session_overhead_share"] = 1.0 - run_trace_s / out.timed_wall_s;
  L["net.steps_per_op"] = mean(steps);
  // Base: frames sent by both endpoints of one session.
  L["net.frames_per_op"] = mean(frames);
  L["net.journal_saves_per_op"] = mean(saves);
  L["net.journal_bytes_per_req"] = mean(journal_bytes) / kRequests;
  L["util.durable.writes_per_op"] = mean(writes);
  L["util.durable.bytes_per_op"] = mean(bytes);

  out.named = {"nn.matmul_nt_us", "nn.matmul_tn_us", "nn.gemm_gflops_computed",
               "nn.kd_loss_soft_us", "nn.nll_loss_us", "nn.fit_s",
               "dynn.bank_build_s", "serve.run_trace_us_per_req",
               "net.session_overhead_share", "net.steps_per_op",
               "net.frames_per_op", "net.journal_saves_per_op",
               "net.journal_bytes_per_req", "net.frame_codec_us_per_mib",
               "util.durable.writes_per_op", "util.durable.bytes_per_op"};
  return out;
}

}  // namespace perfbench
