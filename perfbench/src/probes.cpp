// Span bookkeeping, host diagnostics and the standalone layer probes shared
// by every workload.

#include <sched.h>

#include <fstream>
#include <iomanip>
#include <numeric>

#include "bench.hpp"
#include "core/pareto.hpp"
#include "data/synthetic_task.hpp"
#include "nn/trainer.hpp"
#include "net/frame.hpp"
#include "nn/losses.hpp"
#include "nn/matrix.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

volatile double g_sink = 0.0;

hadas::nn::Matrix random_matrix(std::size_t rows, std::size_t cols,
                                hadas::util::Rng& rng) {
  hadas::nn::Matrix m(rows, cols);
  for (float& v : m.data()) v = static_cast<float>(rng.normal());
  return m;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

// Batches per probe; the metric is the median batch.
constexpr int kProbeBatches = 9;

}  // namespace

std::map<std::string, double> Tracer::self_times() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s,
                                                                s.end_s);
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.start_s);
      hi = std::min(hi, s.end_s);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[s.name] += s.seconds() - covered;
  }
  return self;
}

void Tracer::save(const std::string& path,
                  const std::map<std::string, double>& extra) const {
  std::ofstream out(path);
  out << std::setprecision(17) << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << json_escape(s.name)
        << "\", \"op\": " << s.op << ", \"parent\": " << s.parent
        << ", \"start_s\": " << s.start_s << ", \"end_s\": " << s.end_s
        << ", \"calls\": " << s.calls << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "],\n\"self_time_s\": {";
  bool first = true;
  for (const auto& [name, t] : self_times()) {
    out << (first ? "" : ", ") << "\"" << json_escape(name) << "\": " << t;
    first = false;
  }
  out << "},\n\"diagnostics\": {";
  first = true;
  for (const auto& [name, v] : extra) {
    out << (first ? "" : ", ") << "\"" << json_escape(name) << "\": " << v;
    first = false;
  }
  out << "}}\n";
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

double host_probe_mib_per_s() {
  constexpr std::size_t kWords = (8u << 20) / sizeof(std::uint64_t);
  constexpr int kPasses = 16;
  std::vector<std::uint64_t> buf(kWords, 1);
  std::uint64_t acc = 0;
  auto pass = [&] {
    for (std::size_t i = 0; i < kWords; ++i) {
      buf[i] = buf[i] * 6364136223846793005ULL + i;
      acc += buf[i];
    }
  };
  pass();  // untimed warm-up
  const auto t0 = Clock::now();
  for (int p = 0; p < kPasses; ++p) pass();
  const double t = seconds_since(t0);
  g_sink = static_cast<double>(acc & 1);
  return 8.0 * kPasses / t;
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void kernel_probes(Tracer& tracer, std::uint64_t seed,
                   std::map<std::string, double>& layers) {
  using hadas::nn::Matrix;
  // The shapes one linear exit head trains with: a batch of 64 samples,
  // feature_dim 32, 100 classes.
  constexpr std::size_t kBatch = 64, kDim = 32, kClasses = 100;
  constexpr std::size_t kTeacherRows = 600;
  constexpr std::uint64_t kCalls = 200;
  hadas::util::Rng rng(op_seed(seed, 0x6E6E));
  const Matrix x = random_matrix(kBatch, kDim, rng);
  const Matrix w = random_matrix(kClasses, kDim, rng);
  const Matrix dlogits = random_matrix(kBatch, kClasses, rng);
  const Matrix teacher = random_matrix(kTeacherRows, kClasses, rng);
  std::vector<std::int32_t> labels(kBatch);
  for (auto& l : labels)
    l = static_cast<std::int32_t>(rng.uniform_index(kClasses));
  std::vector<std::size_t> rows(kTeacherRows);
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  for (std::size_t i = rows.size(); i > 1; --i)
    std::swap(rows[i - 1], rows[rng.uniform_index(i)]);
  const hadas::nn::SoftTargets soft = hadas::nn::soften_teacher(teacher, 4.0);

  double sink = 0.0;
  for (int b = 0; b < kProbeBatches; ++b) {
    {
      ScopedSpan span(tracer, "nn.matmul_nt", -1, kCalls);
      for (std::uint64_t i = 0; i < kCalls; ++i)
        sink += Matrix::matmul_nt(x, w).row_ptr(0)[0];
    }
    {
      ScopedSpan span(tracer, "nn.matmul_tn", -1, kCalls);
      for (std::uint64_t i = 0; i < kCalls; ++i)
        sink += Matrix::matmul_tn(dlogits, x).row_ptr(0)[0];
    }
    {
      ScopedSpan span(tracer, "nn.kd_loss_soft", -1, kCalls);
      for (std::uint64_t i = 0; i < kCalls; ++i)
        sink += hadas::nn::kd_loss_soft(dlogits, soft, rows,
                                        (i * kBatch) % (kTeacherRows - kBatch))
                    .loss;
    }
    {
      ScopedSpan span(tracer, "nn.nll_loss", -1, kCalls);
      for (std::uint64_t i = 0; i < kCalls; ++i)
        sink += hadas::nn::nll_loss(dlogits, labels).loss;
    }
  }
  const double nt_us = 1e6 * median(tracer.per_call("nn.matmul_nt"));
  const double tn_us = 1e6 * median(tracer.per_call("nn.matmul_tn"));
  layers["nn.matmul_nt_us"] = nt_us;
  layers["nn.matmul_tn_us"] = tn_us;
  // Computed, not counted: 2 flops per multiply-add of both GEMM shapes.
  const double flops = 2.0 * kBatch * kDim * kClasses * 2.0;
  layers["nn.gemm_gflops_computed"] = flops / ((nt_us + tn_us) * 1e3);
  layers["nn.kd_loss_soft_us"] = 1e6 * median(tracer.per_call("nn.kd_loss_soft"));
  layers["nn.nll_loss_us"] = 1e6 * median(tracer.per_call("nn.nll_loss"));

  // Frame codec: encode 1 MiB as 64 frames of 16 KiB, then decode it back.
  constexpr std::size_t kPayload = 16 * 1024, kFrames = 64;
  std::string payload(kPayload, '\0');
  for (char& c : payload) c = static_cast<char>(rng.uniform_index(256));
  for (int b = 0; b < kProbeBatches; ++b) {
    ScopedSpan span(tracer, "net.frame_codec_mib", -1, 1);
    std::string wire;
    for (std::size_t i = 0; i < kFrames; ++i)
      wire += hadas::net::encode_frame(hadas::net::FrameType::kReportChunk,
                                       payload);
    hadas::net::FrameDecoder decoder;
    decoder.feed(wire);
    std::size_t decoded = 0;
    while (auto frame = decoder.next()) {
      if (frame->payload != payload)
        throw std::runtime_error("frame codec probe: payload mismatch");
      ++decoded;
    }
    if (decoded != kFrames)
      throw std::runtime_error("frame codec probe: lost frames");
  }
  layers["net.frame_codec_us_per_mib"] =
      1e6 * median(tracer.per_call("net.frame_codec_mib"));
  g_sink = sink;
}

void sort_probe(Tracer& tracer, std::int64_t op,
                const std::vector<std::vector<double>>& points) {
  constexpr std::uint64_t kCalls = 20;
  std::size_t sink = 0;
  std::vector<std::vector<std::size_t>> fronts;
  {
    ScopedSpan span(tracer, "core.nd_sort", op, kCalls);
    for (std::uint64_t i = 0; i < kCalls; ++i) {
      fronts = hadas::core::non_dominated_sort(points);
      sink += fronts.size();
    }
  }
  {
    ScopedSpan span(tracer, "core.crowding", op, kCalls);
    for (std::uint64_t i = 0; i < kCalls; ++i)
      for (const auto& front : fronts)
        sink += hadas::core::crowding_distance(points, front).size();
  }
  g_sink = static_cast<double>(sink);
}

void bank_probes(Tracer& tracer, hadas::core::HadasConfig config,
                 const std::vector<hadas::supernet::BackboneConfig>& backbones,
                 std::map<std::string, double>& layers) {
  config.exec.threads = 1;
  config.checkpoint_path.clear();
  config.on_generation = nullptr;
  const auto space = hadas::supernet::SearchSpace::attentive_nas();
  for (const auto& backbone : backbones) {
    const hadas::core::HadasEngine engine(space, hadas::hw::Target::kTx2PascalGpu,
                                          config);
    ScopedSpan span(tracer, "dynn.bank_build", -1);
    engine.exit_bank(backbone);
  }
  layers["dynn.bank_build_s"] = median(tracer.per_call("dynn.bank_build"));

  const hadas::data::SyntheticTask task(config.data);
  const double separability = hadas::data::separability_from_accuracy(0.75);
  const auto train =
      task.dataset(hadas::data::Split::kTrain, 0.6, separability);
  const auto val = task.dataset(hadas::data::Split::kVal, 0.6, separability);
  for (int rep = 0; rep < 3; ++rep) {
    hadas::util::Rng rng(config.bank.seed + static_cast<std::uint64_t>(rep));
    hadas::nn::MlpClassifier head(config.data.feature_dim,
                                  config.bank.head_hidden,
                                  config.data.num_classes, rng);
    ScopedSpan span(tracer, "nn.fit", -1);
    g_sink = hadas::nn::Trainer(config.bank.train)
                 .fit(head, train, val)
                 .final_val_accuracy;
  }
  layers["nn.fit_s"] = median(tracer.per_call("nn.fit"));
}

bool mutually_non_dominated(const std::vector<std::vector<double>>& points) {
  for (const auto& p : points)
    for (double v : p)
      if (!std::isfinite(v)) return false;
  for (std::size_t i = 0; i < points.size(); ++i)
    for (std::size_t j = 0; j < points.size(); ++j)
      if (i != j && hadas::core::dominates(points[i], points[j])) return false;
  return true;
}

}  // namespace perfbench
