#include "nn/trainer.hpp"

#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

#include "nn/losses.hpp"

namespace hadas::nn {

namespace {
Matrix gather_rows(const Matrix& m, const std::vector<std::size_t>& idx,
                   std::size_t begin, std::size_t end) {
  Matrix out(end - begin, m.cols());
  for (std::size_t i = begin; i < end; ++i) {
    const float* src = m.row_ptr(idx[i]);
    float* dst = out.row_ptr(i - begin);
    for (std::size_t c = 0; c < m.cols(); ++c) dst[c] = src[c];
  }
  return out;
}
}  // namespace

TrainResult Trainer::fit(MlpClassifier& head, const FeatureDataset& train,
                         const FeatureDataset& val) const {
  const bool use_kd = config_.kd_weight > 0.0 && !train.teacher_logits.empty() &&
                      train.teacher_logits.rows() == train.size();
  if (!use_kd) return fit(head, train, val, nullptr);
  const SoftTargets soft =
      soften_teacher(train.teacher_logits, config_.kd_temperature);
  return fit(head, train, val, &soft);
}

TrainResult Trainer::fit(MlpClassifier& head, const FeatureDataset& train,
                         const FeatureDataset& val,
                         const SoftTargets* soft) const {
  if (train.size() == 0) throw std::invalid_argument("Trainer: empty train set");
  if (config_.batch_size == 0)
    throw std::invalid_argument("Trainer: batch_size must be positive");
  if (train.labels.size() != train.size())
    throw std::invalid_argument("Trainer: label count mismatch");
  // The teacher is frozen, so its softened targets are computed once, by
  // the caller, instead of on every gathered minibatch of every epoch.
  const bool use_kd = config_.kd_weight > 0.0 && soft != nullptr;
  if (use_kd && (soft->probs.rows() != train.size() ||
                 soft->temperature != config_.kd_temperature))
    throw std::invalid_argument(
        "Trainer: soft targets do not match the train set and kd_temperature");

  hadas::util::Rng rng(config_.shuffle_seed);
  std::vector<std::size_t> order(train.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  TrainResult result;
  result.epochs.reserve(config_.epochs);

  // NaN guard: last-good-epoch snapshot of everything a rolled-back epoch
  // must not have perturbed — parameters + momentum, the shuffle stream and
  // the permutation it acts on.
  MlpClassifier good_head = head;
  hadas::util::Rng good_rng = rng;
  std::vector<std::size_t> good_order = order;
  bool rolled_back = false;
  bool nan_injected = false;

  for (std::size_t epoch = 0; epoch < config_.epochs;) {
    double lr = config_.lr;
    if (config_.cosine_lr && config_.epochs > 1) {
      const double t = static_cast<double>(epoch) /
                       static_cast<double>(config_.epochs - 1);
      lr = 0.5 * config_.lr * (1.0 + std::cos(std::numbers::pi * t));
      lr = std::max(lr, 1e-4 * config_.lr);
    }
    rng.shuffle(order);

    EpochStats stats;
    std::size_t batches = 0;
    std::size_t bad_batch = 0;
    bool bad_epoch = false;
    for (std::size_t begin = 0; begin < train.size();
         begin += config_.batch_size) {
      const std::size_t end = std::min(begin + config_.batch_size, train.size());
      const Matrix x = gather_rows(train.features, order, begin, end);
      std::vector<std::int32_t> y(end - begin);
      for (std::size_t i = begin; i < end; ++i) y[i - begin] = train.labels[order[i]];

      const Matrix logits = head.forward_cached(x);
      LossResult nll = nll_loss(logits, y);
      double combined = nll.loss;

      if (use_kd) {
        const LossResult kd = kd_loss_soft(logits, *soft, order, begin);
        stats.kd_loss += kd.loss;
        combined += config_.kd_weight * kd.loss;
        nll.dlogits.axpy(static_cast<float>(config_.kd_weight), kd.dlogits);
      }

      if (epoch == config_.inject_nan_epoch && batches == 0 &&
          (config_.inject_nan_repeat || !nan_injected)) {
        nan_injected = true;
        combined = std::numeric_limits<double>::quiet_NaN();
      }
      if (!std::isfinite(combined)) {
        bad_epoch = true;
        bad_batch = batches;
        break;  // before backward/sgd_step: the parameters stay untouched
      }

      stats.nll_loss += nll.loss;
      stats.train_loss += combined;
      head.backward(nll.dlogits);
      head.sgd_step(lr, config_.momentum, config_.weight_decay);
      ++batches;
    }
    if (bad_epoch) {
      if (rolled_back)
        throw std::runtime_error(
            "Trainer: non-finite loss at epoch " + std::to_string(epoch) +
            ", batch " + std::to_string(bad_batch) +
            " recurred after rolling back to the last good epoch — "
            "training has diverged");
      rolled_back = true;
      ++result.nan_rollbacks;
      head = good_head;
      rng = good_rng;
      order = good_order;
      head.zero_grad();
      continue;  // retry the same epoch from the restored state
    }
    if (batches > 0) {
      stats.train_loss /= static_cast<double>(batches);
      stats.nll_loss /= static_cast<double>(batches);
      stats.kd_loss /= static_cast<double>(batches);
    }
    stats.val_accuracy = evaluate(head, val);
    result.epochs.push_back(stats);
    good_head = head;
    good_rng = rng;
    good_order = order;
    ++epoch;
  }
  result.final_val_accuracy =
      result.epochs.empty() ? evaluate(head, val) : result.epochs.back().val_accuracy;
  return result;
}

double Trainer::evaluate(const MlpClassifier& head, const FeatureDataset& data) {
  if (data.size() == 0) return 0.0;
  const Matrix logits = head.forward(data.features);
  return accuracy(logits, data.labels);
}

}  // namespace hadas::nn
