#include <gtest/gtest.h>

#include "nn/losses.hpp"
#include "nn/trainer.hpp"
#include "util/rng.hpp"

namespace {

using namespace hadas::nn;

/// Small linearly separable task: class prototypes on the axes.
FeatureDataset make_task(std::size_t n, std::size_t classes, std::size_t dim,
                         double signal, std::uint64_t seed) {
  hadas::util::Rng rng(seed);
  FeatureDataset ds;
  ds.features = Matrix(n, dim);
  ds.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto y = static_cast<std::int32_t>(rng.uniform_index(classes));
    ds.labels[i] = y;
    for (std::size_t d = 0; d < dim; ++d)
      ds.features.at(i, d) = static_cast<float>(
          rng.normal(d == static_cast<std::size_t>(y) ? signal : 0.0, 1.0));
  }
  return ds;
}

TEST(Trainer, LearnsSeparableTask) {
  const auto train = make_task(600, 5, 8, 3.0, 1);
  const auto val = make_task(300, 5, 8, 3.0, 2);
  hadas::util::Rng rng(3);
  MlpClassifier head(8, 0, 5, rng);
  TrainConfig config;
  config.epochs = 6;
  const TrainResult result = Trainer(config).fit(head, train, val);
  EXPECT_GT(result.final_val_accuracy, 0.85);
  ASSERT_EQ(result.epochs.size(), 6u);
  // Loss should decrease from the first to the last epoch.
  EXPECT_LT(result.epochs.back().train_loss, result.epochs.front().train_loss);
}

TEST(Trainer, DeterministicForSameSeeds) {
  const auto train = make_task(200, 4, 6, 2.0, 4);
  const auto val = make_task(100, 4, 6, 2.0, 5);
  auto run = [&]() {
    hadas::util::Rng rng(6);
    MlpClassifier head(6, 0, 4, rng);
    TrainConfig config;
    config.epochs = 3;
    config.shuffle_seed = 99;
    return Trainer(config).fit(head, train, val).final_val_accuracy;
  };
  EXPECT_EQ(run(), run());
}

TEST(Trainer, KdTermChangesTrainingAndIsReported) {
  auto train = make_task(300, 4, 6, 2.0, 7);
  const auto val = make_task(150, 4, 6, 2.0, 8);
  // Teacher logits: the ground-truth one-hot scaled (a confident teacher).
  train.teacher_logits = Matrix(train.size(), 4);
  for (std::size_t i = 0; i < train.size(); ++i)
    train.teacher_logits.at(i, static_cast<std::size_t>(train.labels[i])) = 8.0f;

  TrainConfig with_kd;
  with_kd.epochs = 3;
  with_kd.kd_weight = 1.0;
  hadas::util::Rng rng(9);
  MlpClassifier head(6, 0, 4, rng);
  const TrainResult result = Trainer(with_kd).fit(head, train, val);
  EXPECT_GT(result.epochs.front().kd_loss, 0.0);

  TrainConfig no_kd = with_kd;
  no_kd.kd_weight = 0.0;
  hadas::util::Rng rng2(9);
  MlpClassifier head2(6, 0, 4, rng2);
  const TrainResult result2 = Trainer(no_kd).fit(head2, train, val);
  EXPECT_EQ(result2.epochs.front().kd_loss, 0.0);
}

TEST(Trainer, KdSkippedWithoutTeacherLogits) {
  const auto train = make_task(200, 3, 5, 2.0, 10);
  const auto val = make_task(100, 3, 5, 2.0, 11);
  TrainConfig config;
  config.epochs = 2;
  config.kd_weight = 1.0;  // requested but no teacher available
  hadas::util::Rng rng(12);
  MlpClassifier head(5, 0, 3, rng);
  const TrainResult result = Trainer(config).fit(head, train, val);
  EXPECT_EQ(result.epochs.front().kd_loss, 0.0);
}

TEST(Trainer, PrecomputedSoftTargetsTrainTheSameHead) {
  auto train = make_task(200, 4, 6, 2.0, 30);
  const auto val = make_task(100, 4, 6, 2.0, 31);
  hadas::util::Rng teacher_rng(32);
  train.teacher_logits = Matrix(train.size(), 4);
  for (auto& v : train.teacher_logits.data())
    v = static_cast<float>(teacher_rng.normal(0.0, 3.0));
  TrainConfig config;
  config.epochs = 3;
  config.kd_weight = 0.5;

  hadas::util::Rng rng_a(33);
  MlpClassifier head_a(6, 0, 4, rng_a);
  const TrainResult a = Trainer(config).fit(head_a, train, val);

  const SoftTargets soft = soften_teacher(train.teacher_logits, config.kd_temperature);
  FeatureDataset no_teacher = train;
  no_teacher.teacher_logits = Matrix();
  hadas::util::Rng rng_b(33);
  MlpClassifier head_b(6, 0, 4, rng_b);
  const TrainResult b = Trainer(config).fit(head_b, no_teacher, FeatureDataset{}, &soft);

  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t e = 0; e < a.epochs.size(); ++e) {
    EXPECT_EQ(a.epochs[e].train_loss, b.epochs[e].train_loss);
    EXPECT_EQ(a.epochs[e].kd_loss, b.epochs[e].kd_loss);
    EXPECT_EQ(b.epochs[e].val_accuracy, 0.0);  // empty val set
  }
  EXPECT_EQ(b.final_val_accuracy, 0.0);
  EXPECT_EQ(head_a.forward(val.features).data(), head_b.forward(val.features).data());

  const SoftTargets short_soft =
      soften_teacher(Matrix(train.size() - 1, 4), config.kd_temperature);
  EXPECT_THROW(Trainer(config).fit(head_b, train, val, &short_soft),
               std::invalid_argument);
  const SoftTargets hot_soft = soften_teacher(train.teacher_logits, 2.0);
  EXPECT_THROW(Trainer(config).fit(head_b, train, val, &hot_soft),
               std::invalid_argument);
}

TEST(Trainer, ThrowsOnEmptyOrInconsistentData) {
  TrainConfig config;
  hadas::util::Rng rng(13);
  MlpClassifier head(5, 0, 3, rng);
  FeatureDataset empty;
  EXPECT_THROW(Trainer(config).fit(head, empty, empty), std::invalid_argument);
  FeatureDataset bad = make_task(10, 3, 5, 2.0, 14);
  bad.labels.pop_back();
  EXPECT_THROW(Trainer(config).fit(head, bad, bad), std::invalid_argument);
}

TEST(Trainer, ZeroBatchSizeIsRejected) {
  // A 0-row batch makes the mean NLL 0 * (1/0) = NaN; without the up-front
  // check the NaN guard would misreport it as divergence.
  const auto train = make_task(50, 3, 5, 2.0, 17);
  TrainConfig config;
  config.batch_size = 0;
  hadas::util::Rng rng(18);
  MlpClassifier head(5, 0, 3, rng);
  try {
    (void)Trainer(config).fit(head, train, train);
    FAIL() << "batch_size 0 not rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "Trainer: batch_size must be positive");
  }
}

TEST(Trainer, EvaluateMatchesAccuracyDefinition) {
  const auto data = make_task(100, 3, 5, 5.0, 15);
  hadas::util::Rng rng(16);
  MlpClassifier head(5, 0, 3, rng);
  const double acc = Trainer::evaluate(head, data);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
  EXPECT_EQ(Trainer::evaluate(head, FeatureDataset{}), 0.0);
}

TEST(Trainer, NanGuardRollsBackOnceAndReproducesTheCleanRun) {
  const auto train = make_task(300, 4, 6, 2.0, 20);
  const auto val = make_task(150, 4, 6, 2.0, 21);

  TrainConfig clean;
  clean.epochs = 5;
  hadas::util::Rng rng_a(22);
  MlpClassifier head_a(6, 0, 4, rng_a);
  const TrainResult reference = Trainer(clean).fit(head_a, train, val);
  EXPECT_EQ(reference.nan_rollbacks, 0u);

  // Inject one non-finite loss in the middle of training: the guard must
  // abandon the epoch, restore the last good state and retry — and because
  // the retry replays the identical shuffle from the identical parameters,
  // the final trajectory matches the clean run exactly, epoch for epoch.
  TrainConfig poisoned = clean;
  poisoned.inject_nan_epoch = 2;
  hadas::util::Rng rng_b(22);
  MlpClassifier head_b(6, 0, 4, rng_b);
  const TrainResult recovered = Trainer(poisoned).fit(head_b, train, val);
  EXPECT_EQ(recovered.nan_rollbacks, 1u);
  ASSERT_EQ(recovered.epochs.size(), reference.epochs.size());
  for (std::size_t e = 0; e < reference.epochs.size(); ++e) {
    EXPECT_EQ(recovered.epochs[e].train_loss, reference.epochs[e].train_loss);
    EXPECT_EQ(recovered.epochs[e].val_accuracy,
              reference.epochs[e].val_accuracy);
  }
  EXPECT_EQ(recovered.final_val_accuracy, reference.final_val_accuracy);
}

TEST(Trainer, NanGuardAbortsWithAClearErrorWhenDivergenceRecurs) {
  const auto train = make_task(200, 3, 5, 2.0, 23);
  const auto val = make_task(100, 3, 5, 2.0, 24);
  TrainConfig config;
  config.epochs = 4;
  config.inject_nan_epoch = 1;
  config.inject_nan_repeat = true;  // the retry hits the NaN again
  hadas::util::Rng rng(25);
  MlpClassifier head(5, 0, 3, rng);
  try {
    (void)Trainer(config).fit(head, train, val);
    FAIL() << "recurring non-finite loss not rejected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("non-finite loss"), std::string::npos) << what;
    EXPECT_NE(what.find("epoch 1"), std::string::npos) << what;
    EXPECT_NE(what.find("diverged"), std::string::npos) << what;
  }
}

TEST(Trainer, NanGuardInFirstEpochRollsBackToTheInitialHead) {
  const auto train = make_task(200, 3, 5, 2.0, 26);
  const auto val = make_task(100, 3, 5, 2.0, 27);

  TrainConfig clean;
  clean.epochs = 3;
  hadas::util::Rng rng_a(28);
  MlpClassifier head_a(5, 0, 3, rng_a);
  const TrainResult reference = Trainer(clean).fit(head_a, train, val);

  TrainConfig poisoned = clean;
  poisoned.inject_nan_epoch = 0;  // before any good epoch exists
  hadas::util::Rng rng_b(28);
  MlpClassifier head_b(5, 0, 3, rng_b);
  const TrainResult recovered = Trainer(poisoned).fit(head_b, train, val);
  EXPECT_EQ(recovered.nan_rollbacks, 1u);
  EXPECT_EQ(recovered.final_val_accuracy, reference.final_val_accuracy);
}

class TrainerEpochSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TrainerEpochSweep, MoreEpochsNeverHurtMuch) {
  const auto train = make_task(400, 5, 8, 2.5, 17);
  const auto val = make_task(200, 5, 8, 2.5, 18);
  TrainConfig config;
  config.epochs = GetParam();
  hadas::util::Rng rng(19);
  MlpClassifier head(8, 0, 5, rng);
  const TrainResult result = Trainer(config).fit(head, train, val);
  ASSERT_EQ(result.epochs.size(), GetParam());
  EXPECT_GT(result.final_val_accuracy, 0.5);
}

INSTANTIATE_TEST_SUITE_P(Epochs, TrainerEpochSweep, ::testing::Values(1u, 4u, 10u));

}  // namespace
