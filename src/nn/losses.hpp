#pragma once

#include <cstdint>
#include <vector>

#include "nn/matrix.hpp"

// Every function here that reads logits row by row throws
// std::invalid_argument when the logits have no columns.

namespace hadas::nn {

/// Result of a loss evaluation: scalar mean loss plus the gradient with
/// respect to the logits (already averaged over the batch).
struct LossResult {
  double loss = 0.0;
  Matrix dlogits;  // same shape as the logits
};

/// Row-wise log-softmax (numerically stable).
Matrix log_softmax(const Matrix& logits);

/// Row-wise softmax with a temperature.
Matrix softmax(const Matrix& logits, double temperature = 1.0);

/// Mean negative log-likelihood of the true labels under softmax(logits) —
/// the L_NLL term of HADAS eq. (4). `labels[i]` is the class of row i.
LossResult nll_loss(const Matrix& logits, const std::vector<std::int32_t>& labels);

/// Temperature-scaled knowledge-distillation loss — the L_KD term of HADAS
/// eq. (4): KL(softmax(teacher/T) || softmax(student/T)) * T^2, averaged over
/// the batch. The gradient is w.r.t. the *student* logits only (the teacher —
/// the backbone's final classifier — is frozen in HADAS).
LossResult kd_loss(const Matrix& student_logits, const Matrix& teacher_logits,
                   double temperature);

/// Precomputed softened teacher targets for the KD loss: softmax(teacher/T)
/// plus the per-row sum of p·log p (the teacher-entropy half of the KL term).
/// The teacher is frozen, so these are computed once per teacher (an exit
/// bank shares them across all its heads) instead of once per batch per
/// epoch — softmax is row-wise, so batch-gathered rows are identical to
/// per-batch recomputation.
struct SoftTargets {
  Matrix probs;                   // softmax(teacher / T), full training set
  std::vector<double> row_plogp;  // per-row Σ p·log p
  double temperature = 0.0;
};

SoftTargets soften_teacher(const Matrix& teacher_logits, double temperature);

/// KD loss against precomputed soft targets. Student row r is matched with
/// teacher row `rows[begin + r]`, so shuffled minibatches need no gather of
/// the teacher matrix at all. Single exp pass over the student logits.
LossResult kd_loss_soft(const Matrix& student_logits, const SoftTargets& soft,
                        const std::vector<std::size_t>& rows, std::size_t begin);

/// Fraction of rows whose argmax matches the label.
double accuracy(const Matrix& logits, const std::vector<std::int32_t>& labels);

/// Fraction of true entries in a correctness mask (0 for an empty mask).
double accuracy(const std::vector<bool>& correct);

/// Per-row correctness mask (1 = argmax matches label). The argmax is the
/// first index of the row maximum.
std::vector<bool> correct_mask(const Matrix& logits,
                               const std::vector<std::int32_t>& labels);

/// What an exit's predictions look like, row by row.
struct RowPredictions {
  std::vector<bool> correct;     ///< correct_mask's rule; empty without labels
  std::vector<double> entropy;   ///< normalized entropy of softmax, in [0,1]
  std::vector<double> max_prob;  ///< max softmax probability
};

/// Per-row correctness, normalized entropy (the entropy controller's
/// signal) and max softmax probability (the confidence controller's), from
/// one max pass and one exp pass per row. `labels` is either one label per
/// row or empty, which leaves `correct` empty.
RowPredictions row_predictions(const Matrix& logits,
                               const std::vector<std::int32_t>& labels);

}  // namespace hadas::nn
