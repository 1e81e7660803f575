#pragma once

#include <cstdint>
#include <vector>

#include "nn/matrix.hpp"
#include "nn/mlp.hpp"
#include "util/rng.hpp"

namespace hadas::nn {

struct SoftTargets;

/// Hyper-parameters for exit-head training (HADAS eq. 4 hybrid loss).
struct TrainConfig {
  std::size_t epochs = 12;
  std::size_t batch_size = 64;
  double lr = 0.15;
  double momentum = 0.9;
  double weight_decay = 1e-4;
  bool cosine_lr = true;      ///< cosine decay of lr over epochs
  double kd_weight = 1.0;     ///< weight of the L_KD term (0 disables KD)
  double kd_temperature = 4.0;
  std::uint64_t shuffle_seed = 1;
  /// Test hook for the NaN guard: when < epochs, the first batch of that
  /// epoch reports a non-finite combined loss — once by default, or on every
  /// attempt (so rollback cannot recover) when inject_nan_repeat is set.
  std::size_t inject_nan_epoch = static_cast<std::size_t>(-1);
  bool inject_nan_repeat = false;
};

/// Per-epoch record of the training trajectory.
struct EpochStats {
  double train_loss = 0.0;  ///< mean combined loss over the epoch
  double nll_loss = 0.0;
  double kd_loss = 0.0;
  double val_accuracy = 0.0;
};

/// Outcome of a full training run.
struct TrainResult {
  std::vector<EpochStats> epochs;
  double final_val_accuracy = 0.0;
  /// Epochs restarted by the NaN guard (0 in a healthy run).
  std::size_t nan_rollbacks = 0;
};

/// In-memory classification dataset: one feature row per sample, with hard
/// labels and (optionally) frozen teacher logits for knowledge distillation.
struct FeatureDataset {
  Matrix features;                       // n x d
  std::vector<std::int32_t> labels;      // n
  Matrix teacher_logits;                 // n x classes, may be empty (no KD)

  std::size_t size() const { return features.rows(); }
};

/// Mini-batch SGD trainer for an exit head. The backbone is frozen (its
/// features and teacher logits are inputs), exactly matching HADAS's exit
/// training scheme: only the head's parameters are optimized.
class Trainer {
 public:
  explicit Trainer(TrainConfig config) : config_(config) {}

  const TrainConfig& config() const { return config_; }

  /// Train `head` on `train`, reporting validation accuracy on `val` after
  /// every epoch. `val` may be empty; every val_accuracy is then 0. KD is
  /// used only when teacher logits are present and kd_weight > 0; they are
  /// softened once, then the fit runs as the overload below.
  ///
  /// NaN guard: the combined loss of every batch is checked before the
  /// gradients touch the parameters. On the first non-finite loss the epoch
  /// is abandoned, the head (parameters, momentum) and the shuffle stream
  /// are rolled back to the end of the last good epoch, and the epoch is
  /// retried once; a second non-finite loss anywhere in the run aborts with
  /// a std::runtime_error naming the epoch and batch, so a diverged head
  /// can never silently poison downstream accuracy numbers.
  TrainResult fit(MlpClassifier& head, const FeatureDataset& train,
                  const FeatureDataset& val) const;

  /// As above, with the teacher already softened: `soft` must be
  /// soften_teacher(teacher logits of `train`, config().kd_temperature), so
  /// several heads distilled from one teacher share it. KD is used only when
  /// `soft` is non-null and kd_weight > 0; `train.teacher_logits` is not
  /// read.
  TrainResult fit(MlpClassifier& head, const FeatureDataset& train,
                  const FeatureDataset& val, const SoftTargets* soft) const;

  /// Evaluate accuracy of `head` on a dataset.
  static double evaluate(const MlpClassifier& head, const FeatureDataset& data);

 private:
  TrainConfig config_;
};

}  // namespace hadas::nn
