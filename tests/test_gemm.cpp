// Tests for the GEMM kernels against a naive reference, across transpose
// variants and a sweep of shapes (property-style).
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/rng.h"
#include "nn/gemm.h"

namespace nec::nn {
namespace {

using Shape = std::tuple<std::size_t, std::size_t, std::size_t>;  // M, N, K

std::vector<float> RandomMatrix(std::size_t n, Rng& rng) {
  std::vector<float> m(n);
  for (float& v : m) v = rng.GaussianF();
  return m;
}

void NaiveNN(const std::vector<float>& a, const std::vector<float>& b,
             std::vector<float>& c, std::size_t M, std::size_t N,
             std::size_t K, float alpha, float beta) {
  for (std::size_t i = 0; i < M; ++i) {
    for (std::size_t j = 0; j < N; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < K; ++k) acc += a[i * K + k] * b[k * N + j];
      c[i * N + j] = static_cast<float>(alpha * acc + beta * c[i * N + j]);
    }
  }
}

class GemmShapes : public ::testing::TestWithParam<Shape> {};

TEST_P(GemmShapes, NNMatchesNaive) {
  const auto [M, N, K] = GetParam();
  Rng rng(M * 131 + N * 17 + K);
  const auto a = RandomMatrix(M * K, rng);
  const auto b = RandomMatrix(K * N, rng);
  std::vector<float> expect(M * N, 0.0f), got(M * N, 0.0f);
  NaiveNN(a, b, expect, M, N, K, 1.0f, 0.0f);
  GemmNN(a.data(), b.data(), got.data(), M, N, K);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], expect[i], 1e-3f * K) << "index " << i;
  }
}

TEST_P(GemmShapes, NTMatchesNN) {
  const auto [M, N, K] = GetParam();
  Rng rng(M * 7 + N * 31 + K);
  const auto a = RandomMatrix(M * K, rng);
  const auto b = RandomMatrix(K * N, rng);  // row-major K x N
  // Transpose b into N x K for the NT call.
  std::vector<float> bt(N * K);
  for (std::size_t k = 0; k < K; ++k) {
    for (std::size_t j = 0; j < N; ++j) bt[j * K + k] = b[k * N + j];
  }
  std::vector<float> expect(M * N, 0.0f), got(M * N, 0.0f);
  GemmNN(a.data(), b.data(), expect.data(), M, N, K);
  GemmNT(a.data(), bt.data(), got.data(), M, N, K);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], expect[i], 1e-3f * K);
  }
}

TEST_P(GemmShapes, TNMatchesNN) {
  const auto [M, N, K] = GetParam();
  Rng rng(M * 3 + N * 5 + K * 7);
  const auto a = RandomMatrix(M * K, rng);  // row-major M x K
  const auto b = RandomMatrix(K * N, rng);
  // Transpose a into K x M for the TN call.
  std::vector<float> at(K * M);
  for (std::size_t i = 0; i < M; ++i) {
    for (std::size_t k = 0; k < K; ++k) at[k * M + i] = a[i * K + k];
  }
  std::vector<float> expect(M * N, 0.0f), got(M * N, 0.0f);
  GemmNN(a.data(), b.data(), expect.data(), M, N, K);
  GemmTN(at.data(), b.data(), got.data(), M, N, K);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], expect[i], 1e-3f * K);
  }
}

// The last three shapes straddle the cache-blocking tiles (MC=64, KC=256,
// NC=256): full tiles plus ragged remainders in every dimension.
INSTANTIATE_TEST_SUITE_P(Shapes, GemmShapes,
                         ::testing::Values(Shape{1, 1, 1}, Shape{2, 3, 4},
                                           Shape{5, 1, 7}, Shape{1, 8, 3},
                                           Shape{16, 16, 16},
                                           Shape{33, 17, 65},
                                           Shape{64, 129, 40},
                                           Shape{65, 257, 300},
                                           Shape{128, 256, 256},
                                           Shape{130, 33, 301}));

TEST(Gemm, AlphaScalesResult) {
  const std::vector<float> a = {1, 2, 3, 4};  // 2x2
  const std::vector<float> b = {1, 0, 0, 1};  // identity
  std::vector<float> c(4, 0.0f);
  GemmNN(a.data(), b.data(), c.data(), 2, 2, 2, 2.0f);
  EXPECT_FLOAT_EQ(c[0], 2.0f);
  EXPECT_FLOAT_EQ(c[3], 8.0f);
}

TEST(Gemm, BetaAccumulates) {
  const std::vector<float> a = {1, 0, 0, 1};
  const std::vector<float> b = {5, 6, 7, 8};
  std::vector<float> c = {100, 0, 0, 100};
  GemmNN(a.data(), b.data(), c.data(), 2, 2, 2, 1.0f, 1.0f);
  EXPECT_FLOAT_EQ(c[0], 105.0f);
  EXPECT_FLOAT_EQ(c[3], 108.0f);
}

TEST(Gemm, BetaZeroOverwritesGarbage) {
  const std::vector<float> a = {1.0f};
  const std::vector<float> b = {2.0f};
  std::vector<float> c = {999.0f};
  GemmNN(a.data(), b.data(), c.data(), 1, 1, 1, 1.0f, 0.0f);
  EXPECT_FLOAT_EQ(c[0], 2.0f);
}

TEST(Gemm, NTBetaAccumulates) {
  const std::vector<float> a = {1, 2};   // 1x2
  const std::vector<float> bt = {3, 4};  // 1x2 (N=1, K=2)
  std::vector<float> c = {10.0f};
  GemmNT(a.data(), bt.data(), c.data(), 1, 1, 2, 1.0f, 1.0f);
  EXPECT_FLOAT_EQ(c[0], 21.0f);  // 10 + 1*3 + 2*4
}

}  // namespace
}  // namespace nec::nn
