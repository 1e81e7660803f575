#include "nn/losses.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace hadas::nn {

namespace {
/// Every row function below reads a row's first element, so a matrix with
/// no columns is a caller error rather than an out-of-bounds read.
void require_columns(const Matrix& logits, const char* fn) {
  if (logits.cols() == 0)
    throw std::invalid_argument(std::string(fn) + ": logits have no columns");
}

/// Index of the first maximum of a row: strict `>`, so ties keep the lowest
/// index.
std::size_t row_argmax(const float* row, std::size_t cols) {
  std::size_t arg = 0;
  for (std::size_t c = 1; c < cols; ++c)
    if (row[c] > row[arg]) arg = c;
  return arg;
}
}  // namespace

Matrix log_softmax(const Matrix& logits) {
  require_columns(logits, "log_softmax");
  Matrix out(logits.rows(), logits.cols());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const float* in = logits.row_ptr(r);
    float* o = out.row_ptr(r);
    float mx = in[0];
    for (std::size_t c = 1; c < logits.cols(); ++c) mx = std::max(mx, in[c]);
    double total = 0.0;
    for (std::size_t c = 0; c < logits.cols(); ++c)
      total += std::exp(static_cast<double>(in[c] - mx));
    const float lse = mx + static_cast<float>(std::log(total));
    for (std::size_t c = 0; c < logits.cols(); ++c) o[c] = in[c] - lse;
  }
  return out;
}

Matrix softmax(const Matrix& logits, double temperature) {
  if (temperature <= 0.0) throw std::invalid_argument("softmax: temperature <= 0");
  require_columns(logits, "softmax");
  Matrix out(logits.rows(), logits.cols());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const float* in = logits.row_ptr(r);
    float* o = out.row_ptr(r);
    double mx = in[0];
    for (std::size_t c = 1; c < logits.cols(); ++c)
      mx = std::max(mx, static_cast<double>(in[c]));
    double total = 0.0;
    for (std::size_t c = 0; c < logits.cols(); ++c) {
      const double e = std::exp((in[c] - mx) / temperature);
      o[c] = static_cast<float>(e);
      total += e;
    }
    const auto inv = static_cast<float>(1.0 / total);
    for (std::size_t c = 0; c < logits.cols(); ++c) o[c] *= inv;
  }
  return out;
}

LossResult nll_loss(const Matrix& logits, const std::vector<std::int32_t>& labels) {
  if (labels.size() != logits.rows())
    throw std::invalid_argument("nll_loss: label count mismatch");
  LossResult res;
  res.dlogits = Matrix(logits.rows(), logits.cols());
  const double inv_n = 1.0 / static_cast<double>(logits.rows());
  double loss = 0.0;
  // Fused softmax + NLL: one exp pass per row (the textbook formulation via
  // log_softmax took two — one for the log-sum-exp, one to turn log-probs
  // back into the softmax gradient).
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const auto label = static_cast<std::size_t>(labels[r]);
    if (label >= logits.cols()) throw std::invalid_argument("nll_loss: bad label");
    const float* in = logits.row_ptr(r);
    float* g = res.dlogits.row_ptr(r);
    float mx = in[0];
    for (std::size_t c = 1; c < logits.cols(); ++c) mx = std::max(mx, in[c]);
    double total = 0.0;
    for (std::size_t c = 0; c < logits.cols(); ++c) {
      const double e = std::exp(static_cast<double>(in[c] - mx));
      g[c] = static_cast<float>(e);
      total += e;
    }
    loss -= static_cast<double>(in[label] - mx) - std::log(total);
    const auto scale = static_cast<float>(inv_n / total);
    for (std::size_t c = 0; c < logits.cols(); ++c) g[c] *= scale;
    g[label] -= static_cast<float>(inv_n);
  }
  res.loss = loss * inv_n;
  return res;
}

SoftTargets soften_teacher(const Matrix& teacher_logits, double temperature) {
  if (temperature <= 0.0)
    throw std::invalid_argument("soften_teacher: temperature <= 0");
  SoftTargets soft;
  soft.temperature = temperature;
  soft.probs = softmax(teacher_logits, temperature);
  soft.row_plogp.resize(teacher_logits.rows());
  for (std::size_t r = 0; r < teacher_logits.rows(); ++r) {
    const float* p = soft.probs.row_ptr(r);
    double acc = 0.0;
    for (std::size_t c = 0; c < teacher_logits.cols(); ++c)
      if (p[c] > 0.0f)
        acc += static_cast<double>(p[c]) * std::log(static_cast<double>(p[c]));
    soft.row_plogp[r] = acc;
  }
  return soft;
}

LossResult kd_loss_soft(const Matrix& student_logits, const SoftTargets& soft,
                        const std::vector<std::size_t>& rows, std::size_t begin) {
  if (student_logits.cols() != soft.probs.cols())
    throw std::invalid_argument("kd_loss_soft: shape mismatch");
  if (begin + student_logits.rows() > rows.size())
    throw std::invalid_argument("kd_loss_soft: row index range out of bounds");
  const double temperature = soft.temperature;
  if (temperature <= 0.0) throw std::invalid_argument("kd_loss_soft: temperature <= 0");
  require_columns(student_logits, "kd_loss_soft");

  LossResult res;
  res.dlogits = Matrix(student_logits.rows(), student_logits.cols());
  const std::size_t ncols = student_logits.cols();
  const double inv_n = 1.0 / static_cast<double>(student_logits.rows());
  const double inv_t = 1.0 / temperature;
  const double t2 = temperature * temperature;
  double loss = 0.0;
  std::vector<double> e(ncols);  // scratch: exp of the softened student row
  for (std::size_t r = 0; r < student_logits.rows(); ++r) {
    const float* in = student_logits.row_ptr(r);
    const float* p = soft.probs.row_ptr(rows[begin + r]);
    float* g = res.dlogits.row_ptr(r);
    double mx = static_cast<double>(in[0]) * inv_t;
    for (std::size_t c = 1; c < ncols; ++c)
      mx = std::max(mx, static_cast<double>(in[c]) * inv_t);
    double total = 0.0;
    for (std::size_t c = 0; c < ncols; ++c) {
      e[c] = std::exp(static_cast<double>(in[c]) * inv_t - mx);
      total += e[c];
    }
    const double shift = mx + std::log(total);
    const double inv_total = 1.0 / total;
    // KL(p || q) per row = Σ p·log p − Σ p·log q, with
    // log q_c = in_c/T − (mx + log Σ exp). One exp pass serves both the loss
    // and the (q − p)·T gradient.
    double p_dot_s = 0.0, p_sum = 0.0;
    for (std::size_t c = 0; c < ncols; ++c) {
      p_dot_s += static_cast<double>(p[c]) * (static_cast<double>(in[c]) * inv_t);
      p_sum += static_cast<double>(p[c]);
      g[c] = static_cast<float>((e[c] * inv_total - static_cast<double>(p[c])) *
                                temperature * inv_n);
    }
    loss += soft.row_plogp[rows[begin + r]] - (p_dot_s - shift * p_sum);
  }
  res.loss = loss * t2 * inv_n;
  return res;
}

LossResult kd_loss(const Matrix& student_logits, const Matrix& teacher_logits,
                   double temperature) {
  if (student_logits.rows() != teacher_logits.rows() ||
      student_logits.cols() != teacher_logits.cols())
    throw std::invalid_argument("kd_loss: shape mismatch");
  const SoftTargets soft = soften_teacher(teacher_logits, temperature);
  std::vector<std::size_t> rows(student_logits.rows());
  for (std::size_t r = 0; r < rows.size(); ++r) rows[r] = r;
  return kd_loss_soft(student_logits, soft, rows, 0);
}

double accuracy(const Matrix& logits, const std::vector<std::int32_t>& labels) {
  return accuracy(correct_mask(logits, labels));
}

double accuracy(const std::vector<bool>& correct) {
  if (correct.empty()) return 0.0;
  std::size_t hits = 0;
  for (bool b : correct) hits += b ? 1 : 0;
  return static_cast<double>(hits) / static_cast<double>(correct.size());
}

std::vector<bool> correct_mask(const Matrix& logits,
                               const std::vector<std::int32_t>& labels) {
  require_columns(logits, "correct_mask");
  if (labels.size() != logits.rows())
    throw std::invalid_argument("correct_mask: label count mismatch");
  std::vector<bool> mask(logits.rows());
  for (std::size_t r = 0; r < logits.rows(); ++r)
    mask[r] = row_argmax(logits.row_ptr(r), logits.cols()) ==
              static_cast<std::size_t>(labels[r]);
  return mask;
}

RowPredictions row_predictions(const Matrix& logits,
                               const std::vector<std::int32_t>& labels) {
  require_columns(logits, "row_predictions");
  if (!labels.empty() && labels.size() != logits.rows())
    throw std::invalid_argument("row_predictions: label count mismatch");
  RowPredictions out;
  out.correct.resize(labels.size());
  out.entropy.resize(logits.rows());
  out.max_prob.resize(logits.rows());
  const double log_n = std::log(static_cast<double>(std::max<std::size_t>(logits.cols(), 2)));
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const float* in = logits.row_ptr(r);
    // The argmax pass is also the max pass: its strict `>` is the same
    // comparison std::max makes, so in[arg] is the row maximum.
    const std::size_t arg = row_argmax(in, logits.cols());
    if (!labels.empty()) out.correct[r] = arg == static_cast<std::size_t>(labels[r]);
    const double mx = in[arg];
    // With p_c = e_c / Σe and log p_c = (x_c − mx) − log Σe:
    // H = log Σe − (Σ e_c·(x_c − mx)) / Σe, and max p = exp(0) / Σe. One exp
    // pass, no per-element log, no probability matrix.
    double total = 0.0, weighted = 0.0;
    for (std::size_t c = 0; c < logits.cols(); ++c) {
      const double s = static_cast<double>(in[c]) - mx;
      const double e = std::exp(s);
      total += e;
      weighted += e * s;
    }
    out.entropy[r] = (std::log(total) - weighted / total) / log_n;
    out.max_prob[r] = 1.0 / total;
  }
  return out;
}

}  // namespace hadas::nn
