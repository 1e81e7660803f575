#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "nn/losses.hpp"
#include "util/rng.hpp"

namespace {

using namespace hadas::nn;

Matrix random_logits(std::size_t n, std::size_t c, hadas::util::Rng& rng,
                     double scale = 1.0) {
  Matrix m(n, c);
  for (auto& v : m.data()) v = static_cast<float>(rng.normal(0.0, scale));
  return m;
}

TEST(Losses, LogSoftmaxRowsNormalize) {
  hadas::util::Rng rng(1);
  const Matrix logits = random_logits(5, 7, rng, 3.0);
  const Matrix lsm = log_softmax(logits);
  for (std::size_t r = 0; r < lsm.rows(); ++r) {
    double total = 0.0;
    for (std::size_t c = 0; c < lsm.cols(); ++c)
      total += std::exp(static_cast<double>(lsm.at(r, c)));
    EXPECT_NEAR(total, 1.0, 1e-5);
  }
}

TEST(Losses, SoftmaxMatchesLogSoftmax) {
  hadas::util::Rng rng(2);
  const Matrix logits = random_logits(3, 4, rng);
  const Matrix p = softmax(logits);
  const Matrix lsm = log_softmax(logits);
  for (std::size_t i = 0; i < p.data().size(); ++i)
    EXPECT_NEAR(p.data()[i], std::exp(static_cast<double>(lsm.data()[i])), 1e-5);
}

TEST(Losses, NllUniformLogitsIsLogC) {
  const Matrix logits(4, 10, 0.0f);
  const std::vector<std::int32_t> labels = {0, 3, 5, 9};
  const LossResult res = nll_loss(logits, labels);
  EXPECT_NEAR(res.loss, std::log(10.0), 1e-5);
}

TEST(Losses, NllPerfectPredictionNearZero) {
  Matrix logits(2, 3, 0.0f);
  logits.at(0, 1) = 50.0f;
  logits.at(1, 2) = 50.0f;
  const LossResult res = nll_loss(logits, {1, 2});
  EXPECT_LT(res.loss, 1e-6);
}

TEST(Losses, NllGradientMatchesFiniteDifference) {
  hadas::util::Rng rng(3);
  Matrix logits = random_logits(3, 5, rng);
  const std::vector<std::int32_t> labels = {0, 2, 4};
  const LossResult res = nll_loss(logits, labels);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < logits.data().size(); ++i) {
    Matrix plus = logits, minus = logits;
    plus.data()[i] += eps;
    minus.data()[i] -= eps;
    const double fd =
        (nll_loss(plus, labels).loss - nll_loss(minus, labels).loss) / (2.0 * eps);
    EXPECT_NEAR(res.dlogits.data()[i], fd, 5e-3);
  }
}

TEST(Losses, NllValidatesInput) {
  const Matrix logits(2, 3, 0.0f);
  EXPECT_THROW(nll_loss(logits, {0}), std::invalid_argument);
  EXPECT_THROW(nll_loss(logits, {0, 7}), std::invalid_argument);
}

TEST(Losses, KdZeroWhenStudentEqualsTeacher) {
  hadas::util::Rng rng(4);
  const Matrix logits = random_logits(4, 6, rng);
  const LossResult res = kd_loss(logits, logits, 4.0);
  EXPECT_NEAR(res.loss, 0.0, 1e-6);
  for (float g : res.dlogits.data()) EXPECT_NEAR(g, 0.0f, 1e-6f);
}

TEST(Losses, KdPositiveWhenDifferent) {
  hadas::util::Rng rng(5);
  const Matrix student = random_logits(4, 6, rng);
  const Matrix teacher = random_logits(4, 6, rng);
  EXPECT_GT(kd_loss(student, teacher, 4.0).loss, 0.0);
}

TEST(Losses, KdGradientMatchesFiniteDifference) {
  hadas::util::Rng rng(6);
  Matrix student = random_logits(2, 4, rng);
  const Matrix teacher = random_logits(2, 4, rng);
  const double temperature = 3.0;
  const LossResult res = kd_loss(student, teacher, temperature);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < student.data().size(); ++i) {
    Matrix plus = student, minus = student;
    plus.data()[i] += eps;
    minus.data()[i] -= eps;
    const double fd = (kd_loss(plus, teacher, temperature).loss -
                       kd_loss(minus, teacher, temperature).loss) /
                      (2.0 * eps);
    EXPECT_NEAR(res.dlogits.data()[i], fd, 5e-3);
  }
}

TEST(Losses, KdValidatesInput) {
  const Matrix a(2, 3, 0.0f), b(2, 4, 0.0f);
  EXPECT_THROW(kd_loss(a, b, 4.0), std::invalid_argument);
  EXPECT_THROW(kd_loss(a, a, 0.0), std::invalid_argument);
}

TEST(Losses, AccuracyAndMask) {
  Matrix logits(3, 3, 0.0f);
  logits.at(0, 0) = 1.0f;  // predicts 0
  logits.at(1, 2) = 1.0f;  // predicts 2
  logits.at(2, 1) = 1.0f;  // predicts 1
  const std::vector<std::int32_t> labels = {0, 2, 0};
  EXPECT_NEAR(accuracy(logits, labels), 2.0 / 3.0, 1e-12);
  const auto mask = correct_mask(logits, labels);
  EXPECT_TRUE(mask[0]);
  EXPECT_TRUE(mask[1]);
  EXPECT_FALSE(mask[2]);
}

TEST(Losses, RowEntropyBounds) {
  Matrix logits(2, 4, 0.0f);
  logits.at(1, 0) = 100.0f;  // delta distribution
  const auto entropy = row_predictions(logits, {}).entropy;
  EXPECT_NEAR(entropy[0], 1.0, 1e-6);   // uniform row
  EXPECT_NEAR(entropy[1], 0.0, 1e-6);   // confident row
}

TEST(Losses, RowMaxProb) {
  Matrix logits(2, 2, 0.0f);
  logits.at(1, 1) = 100.0f;
  const auto probs = row_predictions(logits, {}).max_prob;
  EXPECT_NEAR(probs[0], 0.5, 1e-6);
  EXPECT_NEAR(probs[1], 1.0, 1e-6);
}

// The separate entropy and max-probability passes row_predictions replaced,
// kept verbatim as references for its bits.
std::vector<double> reference_entropy(const Matrix& logits) {
  std::vector<double> out(logits.rows());
  const double log_n = std::log(static_cast<double>(std::max<std::size_t>(logits.cols(), 2)));
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const float* in = logits.row_ptr(r);
    double mx = in[0];
    for (std::size_t c = 1; c < logits.cols(); ++c)
      mx = std::max(mx, static_cast<double>(in[c]));
    double total = 0.0, weighted = 0.0;
    for (std::size_t c = 0; c < logits.cols(); ++c) {
      const double s = static_cast<double>(in[c]) - mx;
      const double e = std::exp(s);
      total += e;
      weighted += e * s;
    }
    out[r] = (std::log(total) - weighted / total) / log_n;
  }
  return out;
}

std::vector<double> reference_max_prob(const Matrix& logits) {
  std::vector<double> out(logits.rows());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const float* in = logits.row_ptr(r);
    double mx = in[0];
    for (std::size_t c = 1; c < logits.cols(); ++c)
      mx = std::max(mx, static_cast<double>(in[c]));
    double total = 0.0;
    for (std::size_t c = 0; c < logits.cols(); ++c)
      total += std::exp(static_cast<double>(in[c]) - mx);
    out[r] = 1.0 / total;
  }
  return out;
}

void expect_same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]), std::bit_cast<std::uint64_t>(b[i]))
        << "row " << i << ": " << a[i] << " vs " << b[i];
}

TEST(Losses, RowPredictionsMatchSeparatePassesBitForBit) {
  hadas::util::Rng rng(31);
  for (std::size_t cols : {1, 2, 7, 100}) {
    Matrix logits = random_logits(64, cols, rng, 3.0);
    // Ties for the maximum (the first index must win), a tie below the
    // maximum, and an all-equal row.
    if (cols > 1) {
      logits.at(0, cols - 1) = logits.at(0, 0) = 50.0f;
      logits.at(1, 0) = logits.at(1, cols - 1) = -50.0f;
    }
    for (std::size_t c = 0; c < cols; ++c) logits.at(2, c) = 0.25f;
    std::vector<std::int32_t> labels(logits.rows());
    for (auto& l : labels) l = static_cast<std::int32_t>(rng.uniform_index(cols));
    labels[0] = static_cast<std::int32_t>(cols - 1);  // the later tied index loses
    labels[2] = 0;                                    // an all-equal row predicts 0

    const RowPredictions rows = row_predictions(logits, labels);
    EXPECT_EQ(rows.correct, correct_mask(logits, labels));
    expect_same_bits(rows.entropy, reference_entropy(logits));
    expect_same_bits(rows.max_prob, reference_max_prob(logits));
    EXPECT_TRUE(rows.correct[2]);
    if (cols > 1) {
      EXPECT_FALSE(rows.correct[0]);
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(accuracy(rows.correct)),
              std::bit_cast<std::uint64_t>(accuracy(logits, labels)));

    const RowPredictions unlabelled = row_predictions(logits, {});
    EXPECT_TRUE(unlabelled.correct.empty());
    expect_same_bits(unlabelled.entropy, rows.entropy);
    expect_same_bits(unlabelled.max_prob, rows.max_prob);
  }
  EXPECT_THROW(row_predictions(Matrix(3, 4), std::vector<std::int32_t>(2, 0)),
               std::invalid_argument);
}

TEST(Losses, ZeroColumnLogitsThrow) {
  const Matrix logits(3, 0);
  const std::vector<std::int32_t> labels(3, 0);
  EXPECT_THROW(log_softmax(logits), std::invalid_argument);
  EXPECT_THROW(softmax(logits), std::invalid_argument);
  EXPECT_THROW(correct_mask(logits, labels), std::invalid_argument);
  EXPECT_THROW(accuracy(logits, labels), std::invalid_argument);
  EXPECT_THROW(row_predictions(logits, labels), std::invalid_argument);
  EXPECT_THROW(row_predictions(logits, {}), std::invalid_argument);
  EXPECT_THROW(soften_teacher(logits, 4.0), std::invalid_argument);
  SoftTargets soft;
  soft.probs = logits;
  soft.temperature = 4.0;
  EXPECT_THROW(kd_loss_soft(logits, soft, {0, 1, 2}, 0), std::invalid_argument);
}

class KdTemperatureSweep : public ::testing::TestWithParam<double> {};

TEST_P(KdTemperatureSweep, GradientCheckAcrossTemperatures) {
  const double temperature = GetParam();
  hadas::util::Rng rng(7);
  Matrix student = random_logits(2, 3, rng);
  const Matrix teacher = random_logits(2, 3, rng);
  const LossResult res = kd_loss(student, teacher, temperature);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < student.data().size(); ++i) {
    Matrix plus = student, minus = student;
    plus.data()[i] += eps;
    minus.data()[i] -= eps;
    const double fd = (kd_loss(plus, teacher, temperature).loss -
                       kd_loss(minus, teacher, temperature).loss) /
                      (2.0 * eps);
    EXPECT_NEAR(res.dlogits.data()[i], fd, 1e-2) << "temperature " << temperature;
  }
}

INSTANTIATE_TEST_SUITE_P(Temperatures, KdTemperatureSweep,
                         ::testing::Values(1.0, 2.0, 4.0, 8.0));

}  // namespace
