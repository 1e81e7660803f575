#include "nn/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace hadas::nn {

void Matrix::fill(float v) { std::fill(data_.begin(), data_.end(), v); }

void Matrix::scale(float s) {
  for (auto& x : data_) x *= s;
}

void Matrix::axpy(float s, const Matrix& other) {
  if (rows_ != other.rows_ || cols_ != other.cols_)
    throw std::invalid_argument("Matrix::axpy: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += s * other.data_[i];
}

Matrix Matrix::matmul(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) throw std::invalid_argument("matmul: shape mismatch");
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const float* arow = a.row_ptr(i);
    float* crow = c.row_ptr(i);
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const float aik = arow[k];
      if (aik == 0.0f) continue;
      const float* brow = b.row_ptr(k);
      for (std::size_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

namespace {

/// Eight-lane dot product. The eight independent accumulator chains let the
/// compiler keep the loop in vector registers without reassociating a single
/// serial reduction (which strict FP forbids); the final combine order is
/// fixed, so results are identical on every host and thread count.
inline float dot8(const float* HADAS_RESTRICT a, const float* HADAS_RESTRICT b,
                  std::size_t n) {
  float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
  float acc4 = 0.0f, acc5 = 0.0f, acc6 = 0.0f, acc7 = 0.0f;
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    acc0 += a[k + 0] * b[k + 0];
    acc1 += a[k + 1] * b[k + 1];
    acc2 += a[k + 2] * b[k + 2];
    acc3 += a[k + 3] * b[k + 3];
    acc4 += a[k + 4] * b[k + 4];
    acc5 += a[k + 5] * b[k + 5];
    acc6 += a[k + 6] * b[k + 6];
    acc7 += a[k + 7] * b[k + 7];
  }
  float tail = 0.0f;
  for (; k < n; ++k) tail += a[k] * b[k];
  return (((acc0 + acc4) + (acc1 + acc5)) + ((acc2 + acc6) + (acc3 + acc7))) +
         tail;
}

/// Four floats: lane j belongs to output j of a four-output tile.
using Lanes4 = float __attribute__((vector_size(16)));

inline Lanes4 load4(const float* p) {
  Lanes4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

}  // namespace

Matrix Matrix::matmul_nt(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.cols()) throw std::invalid_argument("matmul_nt: shape mismatch");
  Matrix c(a.rows(), b.rows());
  const std::size_t kk = a.cols();
  const std::size_t nj = b.rows();
  const std::size_t tiles = nj / 4;
  // B's rows in tiles of four, interleaved by column, and the current A row
  // broadcast four-wide: one vector multiply-add then advances dot8's
  // accumulator (k mod 8) of four outputs at once, each A load serving all
  // four, and the combine below is dot8's, lane-parallel over the tile.
  // Every output's bits are exactly dot8's; outputs past the last full tile
  // use dot8 itself.
  std::vector<float> panels(tiles * kk * 4);
  for (std::size_t t = 0; t < tiles; ++t)
    for (std::size_t k = 0; k < kk; ++k)
      for (std::size_t j = 0; j < 4; ++j)
        panels[(t * kk + k) * 4 + j] = b.at(4 * t + j, k);
  std::vector<float> abcast(kk * 4);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const float* arow = a.row_ptr(i);
    float* crow = c.row_ptr(i);
    for (std::size_t k = 0; k < kk; ++k)
      for (std::size_t j = 0; j < 4; ++j) abcast[k * 4 + j] = arow[k];
    for (std::size_t t = 0; t < tiles; ++t) {
      const float* HADAS_RESTRICT bp = panels.data() + t * kk * 4;
      const float* HADAS_RESTRICT ap = abcast.data();
      Lanes4 acc0 = {}, acc1 = {}, acc2 = {}, acc3 = {};
      Lanes4 acc4 = {}, acc5 = {}, acc6 = {}, acc7 = {};
      std::size_t k = 0;
      for (; k + 8 <= kk; k += 8) {
        acc0 += load4(ap + 4 * (k + 0)) * load4(bp + 4 * (k + 0));
        acc1 += load4(ap + 4 * (k + 1)) * load4(bp + 4 * (k + 1));
        acc2 += load4(ap + 4 * (k + 2)) * load4(bp + 4 * (k + 2));
        acc3 += load4(ap + 4 * (k + 3)) * load4(bp + 4 * (k + 3));
        acc4 += load4(ap + 4 * (k + 4)) * load4(bp + 4 * (k + 4));
        acc5 += load4(ap + 4 * (k + 5)) * load4(bp + 4 * (k + 5));
        acc6 += load4(ap + 4 * (k + 6)) * load4(bp + 4 * (k + 6));
        acc7 += load4(ap + 4 * (k + 7)) * load4(bp + 4 * (k + 7));
      }
      Lanes4 tail = {};
      for (; k < kk; ++k) tail += load4(ap + 4 * k) * load4(bp + 4 * k);
      const Lanes4 out =
          (((acc0 + acc4) + (acc1 + acc5)) + ((acc2 + acc6) + (acc3 + acc7))) +
          tail;
      std::memcpy(crow + 4 * t, &out, sizeof out);
    }
    for (std::size_t j = 4 * tiles; j < nj; ++j)
      crow[j] = dot8(arow, b.row_ptr(j), kk);
  }
  return c;
}

Matrix Matrix::matmul_tn(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows()) throw std::invalid_argument("matmul_tn: shape mismatch");
  Matrix c(a.cols(), b.cols());
  const std::size_t nj = b.cols();
  // Four rows of A^T at a time: each pass over a C row does four fused
  // multiply-adds, quartering the C-row memory traffic versus the old
  // one-row-at-a-time axpy loop.
  std::size_t k = 0;
  for (; k + 4 <= a.rows(); k += 4) {
    const float* a0 = a.row_ptr(k + 0);
    const float* a1 = a.row_ptr(k + 1);
    const float* a2 = a.row_ptr(k + 2);
    const float* a3 = a.row_ptr(k + 3);
    const float* b0 = b.row_ptr(k + 0);
    const float* b1 = b.row_ptr(k + 1);
    const float* b2 = b.row_ptr(k + 2);
    const float* b3 = b.row_ptr(k + 3);
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const float s0 = a0[i], s1 = a1[i], s2 = a2[i], s3 = a3[i];
      if (s0 == 0.0f && s1 == 0.0f && s2 == 0.0f && s3 == 0.0f) continue;
      float* HADAS_RESTRICT crow = c.row_ptr(i);
      for (std::size_t j = 0; j < nj; ++j)
        crow[j] += (s0 * b0[j] + s1 * b1[j]) + (s2 * b2[j] + s3 * b3[j]);
    }
  }
  for (; k < a.rows(); ++k) {
    const float* arow = a.row_ptr(k);
    const float* brow = b.row_ptr(k);
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const float aki = arow[i];
      if (aki == 0.0f) continue;
      float* HADAS_RESTRICT crow = c.row_ptr(i);
      for (std::size_t j = 0; j < nj; ++j) crow[j] += aki * brow[j];
    }
  }
  return c;
}

double Matrix::frobenius_norm() const {
  double acc = 0.0;
  for (float x : data_) acc += static_cast<double>(x) * x;
  return std::sqrt(acc);
}

}  // namespace hadas::nn
