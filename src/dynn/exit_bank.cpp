#include "dynn/exit_bank.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "exec/dispatcher.hpp"
#include "nn/losses.hpp"
#include "obs/trace.hpp"
#include "util/mathutil.hpp"
#include "util/rng.hpp"

namespace hadas::dynn {

double tap_quality_multiplier(const supernet::LayerCost& tap,
                              double depth_fraction) {
  // Channel-richness bonus: relative to the channel count a balanced
  // backbone has at this compute fraction (~24 growing to ~216).
  const double t = hadas::util::clamp(depth_fraction, 0.0, 1.0);
  const double c_ref = 24.0 * std::pow(216.0 / 24.0, t);
  const double channel_term =
      0.25 * std::log2(static_cast<double>(tap.out_channels) / c_ref);
  // Spatial penalty: classification heads need globally-pooled, semantically
  // aggregated features; taps on large feature maps (early layers of
  // high-resolution backbones) are poor exit points regardless of their
  // compute fraction. ~14x14 and below is "head-ready"; every octave above
  // costs quality. This is the effect that makes the paper's a6 (288px)
  // gain little from early exiting while co-designed backbones gain a lot.
  constexpr double kHeadReadySize = 14.0;
  const double spatial_term =
      -0.22 * std::log2(std::max(static_cast<double>(tap.out_size),
                                 kHeadReadySize) /
                        kHeadReadySize);
  return hadas::util::clamp(1.0 + channel_term + spatial_term, 0.5, 1.4);
}

double effective_depth_fraction(double depth_fraction, int input_resolution) {
  const double t = hadas::util::clamp(depth_fraction, 0.0, 1.0);
  if (input_resolution <= 192) return t;
  const double stretch =
      1.0 + 1.2 * std::log2(static_cast<double>(input_resolution) / 192.0);
  return std::pow(t, stretch);
}

namespace {
/// One head ready to fit: its tap and the state it drew from the bank Rng.
struct HeadJob {
  std::size_t layer = 0;
  double depth_fraction = 0.0;
  double separability = 0.0;
  nn::MlpClassifier model;
  std::uint64_t shuffle_seed = 0;
};

/// The only bank-Rng draws a head makes: He-init weights, then its shuffle
/// seed. Making them serially in bank order keeps the bytes independent of
/// how the fits are scheduled.
HeadJob draw_head(const data::SyntheticTask& task, std::size_t layer,
                  double depth_fraction, double separability,
                  const ExitBankConfig& config, hadas::util::Rng& rng) {
  nn::MlpClassifier model(task.config().feature_dim, config.head_hidden,
                          task.config().num_classes, rng);
  const std::uint64_t shuffle_seed = rng.next_u64();
  return {layer, depth_fraction, separability, std::move(model), shuffle_seed};
}

/// Trains `job.model` in place and measures it; `teacher_soft` is null for
/// the teacher itself. Touches no shared mutable state beyond the task's
/// mutex-guarded noise cache, so distinct jobs may run concurrently.
TrainedExit fit_head(const data::SyntheticTask& task, HeadJob& job,
                     const ExitBankConfig& config,
                     const nn::SoftTargets* teacher_soft) {
  const obs::TraceSpan span("bank.head_fit", "search");
  const nn::FeatureDataset train =
      task.dataset(data::Split::kTrain, job.depth_fraction, job.separability);
  const nn::FeatureDataset val =
      task.dataset(data::Split::kVal, job.depth_fraction, job.separability);
  const nn::FeatureDataset test =
      task.dataset(data::Split::kTest, job.depth_fraction, job.separability);

  nn::TrainConfig tc = config.train;
  tc.shuffle_seed = job.shuffle_seed;
  // No val set: the fit's per-epoch accuracy is unused; the head is measured below.
  nn::Trainer(tc).fit(job.model, train, nn::FeatureDataset{}, teacher_soft);

  TrainedExit record;
  record.layer = job.layer;
  record.depth_fraction = job.depth_fraction;
  nn::RowPredictions val_rows =
      nn::row_predictions(job.model.forward(val.features), val.labels);
  record.val_accuracy = nn::accuracy(val_rows.correct);
  record.val_correct = std::move(val_rows.correct);
  record.val_entropy = std::move(val_rows.entropy);
  nn::RowPredictions test_rows =
      nn::row_predictions(job.model.forward(test.features), test.labels);
  record.test_correct = std::move(test_rows.correct);
  record.test_entropy = std::move(test_rows.entropy);
  record.test_max_prob = std::move(test_rows.max_prob);
  return record;
}
}  // namespace

ExitBank::ExitBank(const data::SyntheticTask& task,
                   const supernet::NetworkCost& cost, double separability,
                   const ExitBankConfig& config,
                   const exec::ParallelDispatcher* dispatcher)
    : total_layers_(cost.num_mbconv_layers()),
      first_eligible_(ExitPlacement::kFirstEligible) {
  if (total_layers_ < first_eligible_ + 2)
    throw std::invalid_argument("ExitBank: backbone too shallow for exits");

  hadas::util::Rng rng(config.seed);

  // 1) Teacher: the backbone's final classifier at full depth, no KD.
  HeadJob teacher =
      draw_head(task, total_layers_ - 1, 1.0, separability, config, rng);
  final_ = fit_head(task, teacher, config, nullptr);
  // Every head distils from this one frozen teacher: soften it once.
  const nn::SoftTargets teacher_soft =
      config.train.kd_weight > 0.0
          ? nn::soften_teacher(
                teacher.model.forward(
                    task.features(data::Split::kTrain, 1.0, separability)),
                config.train.kd_temperature)
          : nn::SoftTargets{};

  // 2) Every eligible exit position, shallow to deep, distilled from the
  //    teacher per eq. (4). The backbone (feature generator) stays frozen.
  //    Each tap's effective separability is scaled by its architecture
  //    quality (channel richness / downsampling at the tap). All Rng draws
  //    happen here, serially, before any head is fitted.
  const std::size_t eligible = total_layers_ - 1 - first_eligible_;
  std::vector<HeadJob> jobs;
  jobs.reserve(eligible);
  for (std::size_t i = 0; i < eligible; ++i) {
    const std::size_t layer = first_eligible_ + i;
    const double t = cost.depth_fraction(layer);
    const double t_eff = effective_depth_fraction(t, cost.input_resolution);
    const double tap_sep =
        separability * tap_quality_multiplier(cost.mbconv_layer(layer), t);
    jobs.push_back(draw_head(task, layer, t_eff, tap_sep, config, rng));
  }

  // 3) Given the frozen teacher the heads are independent: fit them on the
  //    dispatcher's pool, or inline in index order without one.
  auto body = [&](std::size_t i) {
    return fit_head(task, jobs[i], config, &teacher_soft);
  };
  if (dispatcher != nullptr) {
    exits_ = dispatcher->map(eligible, body);
  } else {
    exits_.reserve(eligible);
    for (std::size_t i = 0; i < eligible; ++i) exits_.push_back(body(i));
  }
}

bool ExitBank::has_exit(std::size_t layer) const {
  return layer >= first_eligible_ && layer < first_eligible_ + exits_.size();
}

const TrainedExit& ExitBank::exit_at(std::size_t layer) const {
  if (!has_exit(layer)) throw std::out_of_range("ExitBank: ineligible layer");
  return exits_[layer - first_eligible_];
}

std::vector<std::size_t> ExitBank::eligible_layers() const {
  std::vector<std::size_t> out(exits_.size());
  for (std::size_t i = 0; i < exits_.size(); ++i) out[i] = first_eligible_ + i;
  return out;
}

double ExitBank::oracle_accuracy(
    const std::vector<std::size_t>& exit_layers) const {
  const std::size_t n = final_.val_correct.size();
  if (n == 0) return 0.0;
  std::size_t correct = 0;
  for (std::size_t s = 0; s < n; ++s) {
    bool ok = final_.val_correct[s];
    for (std::size_t layer : exit_layers)
      if (!ok && exit_at(layer).val_correct[s]) ok = true;
    correct += ok ? 1 : 0;
  }
  return static_cast<double>(correct) / static_cast<double>(n);
}

}  // namespace hadas::dynn
