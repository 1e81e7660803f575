#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "nn/matrix.hpp"
#include "util/rng.hpp"

namespace {

using hadas::nn::Matrix;

Matrix random_matrix(std::size_t r, std::size_t c, hadas::util::Rng& rng) {
  Matrix m(r, c);
  for (auto& v : m.data()) v = static_cast<float>(rng.normal());
  return m;
}

Matrix transpose(const Matrix& m) {
  Matrix t(m.cols(), m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c) t.at(c, r) = m.at(r, c);
  return t;
}

void expect_near(const Matrix& a, const Matrix& b, float tol = 1e-4f) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.data().size(); ++i)
    EXPECT_NEAR(a.data()[i], b.data()[i], tol);
}

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5f);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_EQ(m.at(1, 2), 1.5f);
  m.at(0, 1) = 2.0f;
  EXPECT_EQ(m.row_ptr(0)[1], 2.0f);
}

TEST(Matrix, FillAndScale) {
  Matrix m(2, 2, 3.0f);
  m.scale(2.0f);
  EXPECT_EQ(m.at(1, 1), 6.0f);
  m.fill(0.0f);
  EXPECT_EQ(m.at(0, 0), 0.0f);
}

TEST(Matrix, AxpyAddsScaled) {
  Matrix a(1, 3, 1.0f), b(1, 3, 2.0f);
  a.axpy(0.5f, b);
  EXPECT_EQ(a.at(0, 0), 2.0f);
  Matrix wrong(2, 3);
  EXPECT_THROW(a.axpy(1.0f, wrong), std::invalid_argument);
}

TEST(Matrix, MatmulIdentity) {
  hadas::util::Rng rng(1);
  const Matrix a = random_matrix(4, 4, rng);
  Matrix eye(4, 4);
  for (std::size_t i = 0; i < 4; ++i) eye.at(i, i) = 1.0f;
  expect_near(Matrix::matmul(a, eye), a);
  expect_near(Matrix::matmul(eye, a), a);
}

TEST(Matrix, MatmulKnownValues) {
  Matrix a(2, 2);
  a.at(0, 0) = 1; a.at(0, 1) = 2; a.at(1, 0) = 3; a.at(1, 1) = 4;
  Matrix b(2, 2);
  b.at(0, 0) = 5; b.at(0, 1) = 6; b.at(1, 0) = 7; b.at(1, 1) = 8;
  const Matrix c = Matrix::matmul(a, b);
  EXPECT_EQ(c.at(0, 0), 19);
  EXPECT_EQ(c.at(0, 1), 22);
  EXPECT_EQ(c.at(1, 0), 43);
  EXPECT_EQ(c.at(1, 1), 50);
}

TEST(Matrix, MatmulShapeChecks) {
  Matrix a(2, 3), b(4, 2);
  EXPECT_THROW(Matrix::matmul(a, b), std::invalid_argument);
  EXPECT_THROW(Matrix::matmul_nt(Matrix(2, 3), Matrix(2, 4)), std::invalid_argument);
  EXPECT_THROW(Matrix::matmul_tn(Matrix(2, 3), Matrix(3, 4)), std::invalid_argument);
}

TEST(Matrix, MatmulNtMatchesExplicitTranspose) {
  hadas::util::Rng rng(2);
  const Matrix a = random_matrix(3, 5, rng);
  const Matrix b = random_matrix(4, 5, rng);
  expect_near(Matrix::matmul_nt(a, b), Matrix::matmul(a, transpose(b)));
}

TEST(Matrix, MatmulTnMatchesExplicitTranspose) {
  hadas::util::Rng rng(3);
  const Matrix a = random_matrix(5, 3, rng);
  const Matrix b = random_matrix(5, 4, rng);
  expect_near(Matrix::matmul_tn(a, b), Matrix::matmul(transpose(a), b));
}

TEST(Matrix, FrobeniusNorm) {
  Matrix m(1, 2);
  m.at(0, 0) = 3.0f;
  m.at(0, 1) = 4.0f;
  EXPECT_NEAR(m.frobenius_norm(), 5.0, 1e-12);
  EXPECT_EQ(Matrix().frobenius_norm(), 0.0);
}

/// The reference `matmul_nt` output: eight lane accumulators, a fixed
/// combine, then a scalar tail. Any faster kernel must reproduce these bits.
float reference_dot8(const float* a, const float* b, std::size_t n) {
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

TEST(Matrix, MatmulNtBitExactAcrossShapes) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  hadas::util::Rng rng(2024);
  std::size_t shapes = 0;
  for (std::size_t k : {1, 5, 7, 8, 13, 32, 33, 64}) {
    for (std::size_t n : {1, 3, 4, 5, 100, 101}) {
      for (std::size_t m : {1, 7, 64}) {
        Matrix a = random_matrix(m, k, rng);
        Matrix b = random_matrix(n, k, rng);
        // Every product of a -0.0 row with a positive row is -0.0, so those
        // outputs are exact zeros whose sign the combine order decides.
        for (std::size_t i = 1; i < m; i += 5)
          for (std::size_t c = 0; c < k; ++c) a.at(i, c) = -0.0f;
        for (std::size_t j = 0; j < n; j += 3)
          for (std::size_t c = 0; c < k; ++c) b.at(j, c) = std::abs(b.at(j, c));
        if (m > 2) a.at(2, 0) = kInf;
        if (n > 4) b.at(4, k - 1) = -kInf;
        const Matrix c = Matrix::matmul_nt(a, b);
        ASSERT_EQ(c.rows(), m);
        ASSERT_EQ(c.cols(), n);
        for (std::size_t i = 0; i < m; ++i)
          for (std::size_t j = 0; j < n; ++j)
            ASSERT_EQ(std::bit_cast<std::uint32_t>(c.at(i, j)),
                      std::bit_cast<std::uint32_t>(
                          reference_dot8(a.row_ptr(i), b.row_ptr(j), k)))
                << "m=" << m << " n=" << n << " k=" << k << " at (" << i
                << ", " << j << ")";
        ++shapes;
      }
    }
  }
  EXPECT_EQ(shapes, 144u);
}

class MatmulSizeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatmulSizeSweep, AssociativityWithVector) {
  const auto [m, k, n] = GetParam();
  hadas::util::Rng rng(100 + m * 7 + k * 3 + n);
  const Matrix a = random_matrix(static_cast<std::size_t>(m), static_cast<std::size_t>(k), rng);
  const Matrix b = random_matrix(static_cast<std::size_t>(k), static_cast<std::size_t>(n), rng);
  const Matrix v = random_matrix(static_cast<std::size_t>(n), 1, rng);
  // (A*B)*v == A*(B*v)
  expect_near(Matrix::matmul(Matrix::matmul(a, b), v),
              Matrix::matmul(a, Matrix::matmul(b, v)), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatmulSizeSweep,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(2, 3, 4),
                                           std::make_tuple(8, 8, 8),
                                           std::make_tuple(16, 5, 9),
                                           std::make_tuple(3, 17, 2)));

}  // namespace
