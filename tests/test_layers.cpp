// Tests for NN layers: shapes, known results, and finite-difference
// gradient checks (the property that makes training trustworthy).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/check.h"
#include "common/rng.h"
#include "nn/layers.h"

namespace nec::nn {
namespace {

// Scalar loss = <output, probe> with a fixed random probe, so
// dLoss/dOutput = probe.
float ProbeLoss(const Tensor& out, const Tensor& probe) {
  double acc = 0.0;
  for (std::size_t i = 0; i < out.numel(); ++i) acc += out[i] * probe[i];
  return static_cast<float>(acc);
}

// Checks analytic input gradients of `layer` against central differences.
void CheckInputGradient(Layer& layer, Tensor input, double tol = 2e-2) {
  Rng rng(99);
  Tensor out = layer.Forward(input);
  const Tensor probe = Tensor::Randn(out.shape(), rng, 1.0f);
  const Tensor grad_in = layer.Backward(probe);
  ASSERT_EQ(grad_in.numel(), input.numel());

  const float eps = 1e-2f;
  // Spot-check a subset of coordinates for speed.
  const std::size_t stride = std::max<std::size_t>(1, input.numel() / 41);
  for (std::size_t i = 0; i < input.numel(); i += stride) {
    Tensor plus = input, minus = input;
    plus[i] += eps;
    minus[i] -= eps;
    const float lp = ProbeLoss(layer.Forward(plus), probe);
    const float lm = ProbeLoss(layer.Forward(minus), probe);
    const float numeric = (lp - lm) / (2.0f * eps);
    EXPECT_NEAR(grad_in[i], numeric,
                tol * (1.0 + std::abs(numeric)))
        << "input coordinate " << i;
  }
}

// Checks analytic parameter gradients against central differences.
void CheckParamGradients(Layer& layer, const Tensor& input,
                         double tol = 2e-2) {
  Rng rng(77);
  Tensor out = layer.Forward(input);
  const Tensor probe = Tensor::Randn(out.shape(), rng, 1.0f);
  for (Param* p : layer.Params()) p->ZeroGrad();
  layer.Backward(probe);

  const float eps = 1e-2f;
  for (Param* p : layer.Params()) {
    const std::size_t stride = std::max<std::size_t>(1, p->value.numel() / 23);
    for (std::size_t i = 0; i < p->value.numel(); i += stride) {
      const float saved = p->value[i];
      p->value[i] = saved + eps;
      const float lp = ProbeLoss(layer.Forward(input), probe);
      p->value[i] = saved - eps;
      const float lm = ProbeLoss(layer.Forward(input), probe);
      p->value[i] = saved;
      const float numeric = (lp - lm) / (2.0f * eps);
      EXPECT_NEAR(p->grad[i], numeric, tol * (1.0 + std::abs(numeric)))
          << "param coordinate " << i;
    }
  }
}

// ------------------------------------------------------------------ Conv2D

TEST(Conv2D, OutputShapeIsSamePadded) {
  Rng rng(1);
  Conv2D conv(3, 5, 3, 7, 2, 1, rng);
  Tensor in = Tensor::Randn({3, 10, 12}, rng, 1.0f);
  Tensor out = conv.Forward(in);
  ASSERT_EQ(out.rank(), 3u);
  EXPECT_EQ(out.dim(0), 5u);
  EXPECT_EQ(out.dim(1), 10u);
  EXPECT_EQ(out.dim(2), 12u);
}

TEST(Conv2D, IdentityKernelPassesThrough) {
  Rng rng(2);
  Conv2D conv(1, 1, 1, 1, 1, 1, rng);
  conv.weight().value[0] = 1.0f;
  conv.bias().value[0] = 0.0f;
  Tensor in = Tensor::Randn({1, 4, 5}, rng, 1.0f);
  Tensor out = conv.Forward(in);
  for (std::size_t i = 0; i < in.numel(); ++i) {
    EXPECT_FLOAT_EQ(out[i], in[i]);
  }
}

TEST(Conv2D, BiasAddsUniformly) {
  Rng rng(3);
  Conv2D conv(1, 2, 1, 1, 1, 1, rng);
  conv.weight().value.Fill(0.0f);
  conv.bias().value[0] = 1.5f;
  conv.bias().value[1] = -2.0f;
  Tensor in = Tensor::Randn({1, 3, 3}, rng, 1.0f);
  Tensor out = conv.Forward(in);
  for (std::size_t p = 0; p < 9; ++p) {
    EXPECT_FLOAT_EQ(out[p], 1.5f);
    EXPECT_FLOAT_EQ(out[9 + p], -2.0f);
  }
}

TEST(Conv2D, AveragingKernelOnConstantInput) {
  Rng rng(4);
  Conv2D conv(1, 1, 3, 3, 1, 1, rng);
  conv.weight().value.Fill(1.0f / 9.0f);
  conv.bias().value[0] = 0.0f;
  Tensor in({1, 5, 5});
  in.Fill(2.0f);
  Tensor out = conv.Forward(in);
  // Interior pixels: full 3x3 neighborhood of 2.0 → 2.0. Corners see 4/9.
  EXPECT_NEAR(out.At3(0, 2, 2), 2.0f, 1e-5);
  EXPECT_NEAR(out.At3(0, 0, 0), 2.0f * 4.0f / 9.0f, 1e-5);
}

TEST(Conv2D, DilationWidensReceptiveField) {
  Rng rng(5);
  Conv2D conv(1, 1, 3, 1, 4, 1, rng);  // 3-tap, dilation 4 → reach ±4
  conv.weight().value.Fill(1.0f);
  conv.bias().value[0] = 0.0f;
  Tensor in({1, 16, 1});
  in.At3(0, 8, 0) = 1.0f;  // impulse
  Tensor out = conv.Forward(in);
  // Taps at -4, 0, +4 from each output position.
  EXPECT_FLOAT_EQ(out.At3(0, 4, 0), 1.0f);
  EXPECT_FLOAT_EQ(out.At3(0, 8, 0), 1.0f);
  EXPECT_FLOAT_EQ(out.At3(0, 12, 0), 1.0f);
  EXPECT_FLOAT_EQ(out.At3(0, 7, 0), 0.0f);
}

TEST(Conv2D, GradientCheckInput) {
  Rng rng(6);
  Conv2D conv(2, 3, 3, 3, 2, 1, rng);
  CheckInputGradient(conv, Tensor::Randn({2, 6, 5}, rng, 1.0f));
}

TEST(Conv2D, GradientCheckParams) {
  Rng rng(7);
  Conv2D conv(2, 2, 1, 3, 1, 1, rng);
  CheckParamGradients(conv, Tensor::Randn({2, 4, 6}, rng, 1.0f));
}

TEST(Conv2D, RejectsEvenKernel) {
  Rng rng(8);
  EXPECT_THROW(Conv2D(1, 1, 2, 3, 1, 1, rng), CheckError);
}

TEST(Conv2D, RejectsWrongInputChannels) {
  Rng rng(9);
  Conv2D conv(2, 2, 3, 3, 1, 1, rng);
  Tensor in = Tensor::Randn({3, 4, 4}, rng, 1.0f);
  EXPECT_THROW(conv.Forward(in), CheckError);
}

TEST(Conv2D, ReportsMacs) {
  Rng rng(10);
  Conv2D conv(2, 4, 3, 3, 1, 1, rng);
  EXPECT_EQ(conv.LastForwardMacs(), 0u);
  conv.Forward(Tensor::Randn({2, 5, 5}, rng, 1.0f));
  EXPECT_EQ(conv.LastForwardMacs(), 4u * 25u * (2u * 9u));
}

// ------------------------------------------------------------------ Linear

TEST(Linear, KnownResult) {
  Rng rng(11);
  Linear fc(2, 2, rng);
  fc.weight().value.At(0, 0) = 1.0f;
  fc.weight().value.At(0, 1) = 2.0f;
  fc.weight().value.At(1, 0) = -1.0f;
  fc.weight().value.At(1, 1) = 0.5f;
  fc.bias().value[0] = 0.1f;
  fc.bias().value[1] = -0.1f;
  Tensor in({1, 2});
  in[0] = 3.0f;
  in[1] = 4.0f;
  Tensor out = fc.Forward(in);
  EXPECT_NEAR(out[0], 3.0f + 8.0f + 0.1f, 1e-5);
  EXPECT_NEAR(out[1], -3.0f + 2.0f - 0.1f, 1e-5);
}

TEST(Linear, GradientCheckInput) {
  Rng rng(12);
  Linear fc(7, 5, rng);
  CheckInputGradient(fc, Tensor::Randn({4, 7}, rng, 1.0f));
}

TEST(Linear, GradientCheckParams) {
  Rng rng(13);
  Linear fc(6, 4, rng);
  CheckParamGradients(fc, Tensor::Randn({3, 6}, rng, 1.0f));
}

TEST(Linear, RejectsWrongFeatureDim) {
  Rng rng(14);
  Linear fc(6, 4, rng);
  EXPECT_THROW(fc.Forward(Tensor::Randn({3, 5}, rng, 1.0f)), CheckError);
}

// -------------------------------------------------------------- Activations

TEST(ReLU, ForwardClampsNegatives) {
  ReLU relu;
  Tensor in({4});
  in[0] = -1.0f;
  in[1] = 0.0f;
  in[2] = 2.0f;
  in[3] = -0.5f;
  Tensor out = relu.Forward(in);
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_EQ(out[2], 2.0f);
}

TEST(ReLU, BackwardMasksByInputSign) {
  ReLU relu;
  Tensor in({3});
  in[0] = -1.0f;
  in[1] = 2.0f;
  in[2] = 3.0f;
  relu.Forward(in);
  Tensor g({3});
  g.Fill(1.0f);
  Tensor gi = relu.Backward(g);
  EXPECT_EQ(gi[0], 0.0f);
  EXPECT_EQ(gi[1], 1.0f);
}

TEST(Sigmoid, GradientCheck) {
  Rng rng(15);
  Sigmoid s;
  CheckInputGradient(s, Tensor::Randn({2, 9}, rng, 1.0f), 1e-2);
}

TEST(Tanh, GradientCheck) {
  Rng rng(16);
  Tanh t;
  CheckInputGradient(t, Tensor::Randn({2, 9}, rng, 1.0f), 1e-2);
}

TEST(Sigmoid, RangeAndMidpoint) {
  Sigmoid s;
  Tensor in({3});
  in[0] = 0.0f;
  in[1] = 100.0f;
  in[2] = -100.0f;
  Tensor out = s.Forward(in);
  EXPECT_FLOAT_EQ(out[0], 0.5f);
  EXPECT_NEAR(out[1], 1.0f, 1e-6);
  EXPECT_NEAR(out[2], 0.0f, 1e-6);
}

// ------------------------------------------------------------------- LSTM

TEST(Lstm, OutputShapeAndRange) {
  Rng rng(17);
  Lstm lstm(6, 8, rng);
  Tensor in = Tensor::Randn({10, 6}, rng, 1.0f);
  Tensor out = lstm.Forward(in);
  ASSERT_EQ(out.rank(), 2u);
  EXPECT_EQ(out.dim(0), 10u);
  EXPECT_EQ(out.dim(1), 8u);
  // h = o * tanh(c) ∈ (-1, 1).
  for (std::size_t i = 0; i < out.numel(); ++i) {
    EXPECT_GT(out[i], -1.0f);
    EXPECT_LT(out[i], 1.0f);
  }
}

TEST(Lstm, StatePropagatesAcrossTime) {
  Rng rng(18);
  Lstm lstm(2, 4, rng);
  // Same input at every step; outputs should differ between step 0 and 1
  // because hidden state accumulates.
  Tensor in({5, 2});
  in.Fill(0.7f);
  Tensor out = lstm.Forward(in);
  bool any_diff = false;
  for (std::size_t j = 0; j < 4; ++j) {
    if (std::abs(out.At(0, j) - out.At(1, j)) > 1e-6f) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Lstm, BackwardUnsupported) {
  Rng rng(19);
  Lstm lstm(2, 3, rng);
  lstm.Forward(Tensor::Randn({4, 2}, rng, 1.0f));
  EXPECT_THROW(lstm.Backward(Tensor({4, 3})), CheckError);
}

// --------------------------------------------------------------- LayerNorm

TEST(LayerNorm, NormalizesRowsToZeroMeanUnitVar) {
  LayerNorm ln(6);
  Rng rng(60);
  Tensor in = Tensor::Randn({4, 6}, rng, 2.0f);
  Tensor out = ln.Forward(in);  // gain=1, bias=0 at init
  for (std::size_t r = 0; r < 4; ++r) {
    double mean = 0.0, var = 0.0;
    for (std::size_t j = 0; j < 6; ++j) mean += out.At(r, j);
    mean /= 6.0;
    for (std::size_t j = 0; j < 6; ++j) {
      var += (out.At(r, j) - mean) * (out.At(r, j) - mean);
    }
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(var / 6.0, 1.0, 1e-3);
  }
}

TEST(LayerNorm, GainAndBiasApply) {
  LayerNorm ln(3);
  ln.gain().value.Fill(0.0f);
  ln.bias().value[0] = 1.0f;
  ln.bias().value[1] = -2.0f;
  ln.bias().value[2] = 0.5f;
  Rng rng(61);
  Tensor out = ln.Forward(Tensor::Randn({2, 3}, rng, 1.0f));
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_FLOAT_EQ(out.At(r, 0), 1.0f);
    EXPECT_FLOAT_EQ(out.At(r, 1), -2.0f);
    EXPECT_FLOAT_EQ(out.At(r, 2), 0.5f);
  }
}

TEST(LayerNorm, GradientCheckInput) {
  Rng rng(62);
  LayerNorm ln(7);
  // Perturb gain/bias off the identity so the gradient path is generic.
  ln.gain().value = Tensor::Randn({7}, rng, 0.3f);
  for (std::size_t i = 0; i < 7; ++i) ln.gain().value[i] += 1.0f;
  ln.bias().value = Tensor::Randn({7}, rng, 0.3f);
  CheckInputGradient(ln, Tensor::Randn({5, 7}, rng, 1.0f));
}

TEST(LayerNorm, GradientCheckParams) {
  Rng rng(63);
  LayerNorm ln(5);
  CheckParamGradients(ln, Tensor::Randn({4, 5}, rng, 1.0f));
}

TEST(LayerNorm, RejectsWrongFeatureDim) {
  Rng rng(64);
  LayerNorm ln(6);
  EXPECT_THROW(ln.Forward(Tensor::Randn({3, 5}, rng, 1.0f)), CheckError);
}

// ------------------------------------------------------- const inference
//
// Infer is the const, cache-free path that concurrent sessions run on
// shared weights (layers.h); it must match the training path to the bit.

TEST(Infer, MatchesForwardBitExact) {
  // Same ComputeInto kernel on both paths, so they must agree to the bit
  // (rules out FMA-contraction divergence between codegen of the two call
  // sites).
  Rng rng(74);
  Conv2D conv(2, 2, 3, 3, 2, 1, rng);
  const Tensor in = Tensor::Randn({2, 5, 6}, rng, 1.0f);
  const Tensor inferred = conv.Infer(in);
  const Tensor fwd = conv.Forward(in);
  ASSERT_EQ(inferred.numel(), fwd.numel());
  for (std::size_t j = 0; j < fwd.numel(); ++j) {
    ASSERT_EQ(inferred[j], fwd[j]) << "elem=" << j;
  }
}

TEST(Infer, SequentialChainsMatchForward) {
  Rng rng(77);
  Sequential seq;
  seq.Add(std::make_unique<Linear>(5, 8, rng));
  seq.Add(std::make_unique<Tanh>());
  seq.Add(std::make_unique<LayerNorm>(8));
  seq.Add(std::make_unique<Linear>(8, 2, rng));
  const Tensor in = Tensor::Randn({3, 5}, rng, 1.0f);
  const Sequential& shared = seq;
  const Tensor inferred = shared.Infer(in);
  const Tensor fwd = seq.Forward(in);
  ASSERT_EQ(inferred.numel(), fwd.numel());
  for (std::size_t j = 0; j < fwd.numel(); ++j) {
    ASSERT_EQ(inferred[j], fwd[j]) << "elem=" << j;
  }
}

TEST(Infer, LstmKeepsThrowingDefault) {
  Rng rng(76);
  Lstm lstm(2, 3, rng);
  EXPECT_THROW(lstm.Infer(Tensor({4, 2})), CheckError);
}

// ------------------------------------------------------------- MAC audits

TEST(LastForwardMacs, ActivationsAndNormReportElementCount) {
  Rng rng(78);
  const Tensor in = Tensor::Randn({3, 4, 5}, rng, 1.0f);
  ReLU relu;
  EXPECT_EQ(relu.LastForwardMacs(), 0u);
  relu.Forward(in);
  EXPECT_EQ(relu.LastForwardMacs(), 60u);
  Sigmoid sig;
  sig.Forward(in);
  EXPECT_EQ(sig.LastForwardMacs(), 60u);
  Tanh th;
  th.Forward(in);
  EXPECT_EQ(th.LastForwardMacs(), 60u);
  LayerNorm ln(6);
  ln.Forward(Tensor::Randn({7, 6}, rng, 1.0f));
  EXPECT_EQ(ln.LastForwardMacs(), 42u);
}

// -------------------------------------------------------------- Sequential

TEST(Sequential, ForwardBackwardChains) {
  Rng rng(20);
  Sequential seq;
  seq.Add(std::make_unique<Linear>(5, 8, rng));
  seq.Add(std::make_unique<Tanh>());
  seq.Add(std::make_unique<Linear>(8, 2, rng));
  Tensor in = Tensor::Randn({3, 5}, rng, 1.0f);
  Tensor out = seq.Forward(in);
  EXPECT_EQ(out.dim(1), 2u);
  Tensor g({3, 2});
  g.Fill(1.0f);
  Tensor gi = seq.Backward(g);
  EXPECT_EQ(gi.dim(1), 5u);
  EXPECT_EQ(seq.Params().size(), 4u);  // two Linear layers x (w, b)
}

}  // namespace
}  // namespace nec::nn
