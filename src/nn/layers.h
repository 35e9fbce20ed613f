// Neural network layers with explicit forward/backward passes.
//
// The NEC selector (core/selector.h) is a static pipeline of these layers:
// Conv2D with temporal dilation, elementwise activations, and Linear heads.
// Layers cache whatever the backward pass needs during Forward; Backward
// consumes the cached state, accumulates parameter gradients into
// Param::grad and returns the gradient with respect to the layer input.
//
// Thread-safety contract (nec::runtime shares one trained weight set across
// concurrent sessions):
//   * Forward/Backward MUTATE the layer (activation caches, MAC counters)
//     and must only be used by a single thread — the training path.
//   * Infer is const, writes no member state (scratch buffers are per-call
//     locals), and is bit-identical to Forward. Any number of threads may
//     call Infer on the same layer concurrently as long as nothing mutates
//     the parameters at the same time.
//
// The LSTM layer exists for the VoiceFilter runtime baseline (Table II) and
// implements forward only — the baseline is never trained in this repo.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/tensor.h"

namespace nec::nn {

/// A learnable parameter: value plus accumulated gradient.
struct Param {
  Tensor value;
  Tensor grad;

  explicit Param(Tensor v) : value(std::move(v)), grad(value.shape()) {}
  void ZeroGrad() { grad.Fill(0.0f); }
};

/// Base class for all layers.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Runs the layer; caches activations needed by Backward.
  virtual Tensor Forward(const Tensor& input) = 0;

  /// Propagates gradients; accumulates into parameter grads and returns the
  /// gradient with respect to the layer's input.
  virtual Tensor Backward(const Tensor& grad_output) = 0;

  /// Cache-free const forward, bit-identical to Forward (see thread-safety
  /// contract above). Layers without a shared-weight inference path (LSTM)
  /// keep the throwing default.
  virtual Tensor Infer(const Tensor& input) const;

  /// Learnable parameters (empty for activations).
  virtual std::vector<Param*> Params() { return {}; }

  virtual std::string Name() const = 0;

  /// Approximate multiply-accumulate count of one Forward call with the
  /// last-seen input shape (0 before the first Forward). Elementwise and
  /// norm layers report their processed element count — one fused op per
  /// element — so the Table II MAC audit does not undercount them. Used by
  /// the runtime analysis bench (Table II).
  virtual std::size_t LastForwardMacs() const { return 0; }
};

/// 2-D convolution over (channels, height, width) tensors; stride 1, zero
/// "same" padding, independent dilation per axis. Height is the time axis
/// and width the frequency axis in the selector's usage.
///
/// Forward and Infer both run ONE direct kernel (ComputeInto): a
/// zero-padded input copy plus per-tap axpys vectorized over the width
/// axis, each output element accumulating its K taps ascending in k. The
/// im2col lowering survives only as Backward's gradient workspace. Sharing
/// the kernel makes both paths bit-identical by construction, and the
/// direct form is an order of magnitude lighter on memory traffic than
/// im2col + GEMM at the selector's tiny channel counts.
class Conv2D : public Layer {
 public:
  Conv2D(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel_h, std::size_t kernel_w, std::size_t dilation_h,
         std::size_t dilation_w, Rng& rng);

  Tensor Forward(const Tensor& input) override;
  Tensor Backward(const Tensor& grad_output) override;
  Tensor Infer(const Tensor& input) const override;
  std::vector<Param*> Params() override { return {&weight_, &bias_}; }
  std::string Name() const override { return "Conv2D"; }
  std::size_t LastForwardMacs() const override { return last_macs_; }

  std::size_t in_channels() const { return in_channels_; }
  std::size_t out_channels() const { return out_channels_; }

  Param& weight() { return weight_; }
  Param& bias() { return bias_; }

 private:
  void Im2ColT(const float* in, std::size_t h, std::size_t w,
               std::vector<float>& colt) const;
  /// One item: `in` is a (C_in, h, w) slab, `out` a (C_out, h, w) slab.
  /// `scratch` receives the zero-padded input copy (grow-only).
  void ComputeInto(const float* in, std::size_t h, std::size_t w,
                   std::vector<float>& scratch, float* out) const;

  std::size_t in_channels_, out_channels_;
  std::size_t kh_, kw_, dh_, dw_;
  Param weight_;  // (out_channels, in_channels*kh*kw)
  Param bias_;    // (out_channels)

  std::vector<float> pad_cache_;   // Forward's padded-input scratch
  std::vector<float> colt_cache_;  // (in_channels*kh*kw, H*W) for Backward
  std::size_t in_h_ = 0, in_w_ = 0;
  std::size_t last_macs_ = 0;
};

/// Fully connected layer applied to the last dimension of a (rows, in)
/// tensor.
class Linear : public Layer {
 public:
  Linear(std::size_t in_features, std::size_t out_features, Rng& rng);

  Tensor Forward(const Tensor& input) override;
  Tensor Backward(const Tensor& grad_output) override;
  Tensor Infer(const Tensor& input) const override;
  std::vector<Param*> Params() override { return {&weight_, &bias_}; }
  std::string Name() const override { return "Linear"; }
  std::size_t LastForwardMacs() const override { return last_macs_; }

  std::size_t in_features() const { return in_features_; }
  std::size_t out_features() const { return out_features_; }

  Param& weight() { return weight_; }
  Param& bias() { return bias_; }

 private:
  std::size_t in_features_, out_features_;
  Param weight_;  // (out, in)
  Param bias_;    // (out)
  Tensor input_cache_;
  std::size_t last_macs_ = 0;
};

/// Rectified linear activation.
class ReLU : public Layer {
 public:
  Tensor Forward(const Tensor& input) override;
  Tensor Backward(const Tensor& grad_output) override;
  Tensor Infer(const Tensor& input) const override;
  std::string Name() const override { return "ReLU"; }
  std::size_t LastForwardMacs() const override { return last_elems_; }

 private:
  Tensor input_cache_;
  std::size_t last_elems_ = 0;
};

/// Logistic sigmoid activation.
class Sigmoid : public Layer {
 public:
  Tensor Forward(const Tensor& input) override;
  Tensor Backward(const Tensor& grad_output) override;
  Tensor Infer(const Tensor& input) const override;
  std::string Name() const override { return "Sigmoid"; }
  std::size_t LastForwardMacs() const override { return last_elems_; }

 private:
  Tensor output_cache_;
  std::size_t last_elems_ = 0;
};

/// Hyperbolic tangent activation.
class Tanh : public Layer {
 public:
  Tensor Forward(const Tensor& input) override;
  Tensor Backward(const Tensor& grad_output) override;
  Tensor Infer(const Tensor& input) const override;
  std::string Name() const override { return "Tanh"; }
  std::size_t LastForwardMacs() const override { return last_elems_; }

 private:
  Tensor output_cache_;
  std::size_t last_elems_ = 0;
};

/// Layer normalization over the last dimension with learnable gain/bias:
/// y = g * (x - mean) / sqrt(var + eps) + b, per row. The paper's selector
/// uses no normalization; this is the nn substrate's norm layer (available
/// to encoder MLPs and ablation variants).
class LayerNorm : public Layer {
 public:
  explicit LayerNorm(std::size_t features, float eps = 1e-5f);

  Tensor Forward(const Tensor& input) override;
  Tensor Backward(const Tensor& grad_output) override;
  Tensor Infer(const Tensor& input) const override;
  std::vector<Param*> Params() override { return {&gain_, &bias_}; }
  std::string Name() const override { return "LayerNorm"; }
  std::size_t LastForwardMacs() const override { return last_elems_; }

  std::size_t features() const { return features_; }

  Param& gain() { return gain_; }
  Param& bias() { return bias_; }

 private:
  /// Normalizes `rows` rows of `features_` elements from `in` into `out`;
  /// optionally records x-hat and 1/sigma for the backward pass.
  void NormalizeRows(const float* in, std::size_t rows, float* out,
                     float* xhat = nullptr, float* inv_sigma = nullptr) const;

  std::size_t features_;
  float eps_;
  Param gain_;  // (features)
  Param bias_;  // (features)
  Tensor xhat_cache_;                  ///< normalized input, per Forward
  std::vector<float> inv_sigma_cache_; ///< 1/sigma per row
  std::size_t last_elems_ = 0;
};

/// Unidirectional LSTM over a (T, input) sequence producing (T, hidden).
/// Forward-only: used by the VoiceFilter baseline for runtime comparison.
/// Keeps the throwing Infer default — the baseline never runs on the
/// shared-weight concurrent path.
class Lstm : public Layer {
 public:
  Lstm(std::size_t input_size, std::size_t hidden_size, Rng& rng);

  Tensor Forward(const Tensor& input) override;
  /// Not supported; throws nec::CheckError.
  Tensor Backward(const Tensor& grad_output) override;
  std::vector<Param*> Params() override { return {&w_, &u_, &b_}; }
  std::string Name() const override { return "Lstm"; }
  std::size_t LastForwardMacs() const override { return last_macs_; }

 private:
  std::size_t input_size_, hidden_size_;
  Param w_;  // (4*hidden, input)  gate order: i, f, g, o
  Param u_;  // (4*hidden, hidden)
  Param b_;  // (4*hidden)
  std::size_t last_macs_ = 0;
};

/// Simple sequential container (used by the neural d-vector encoder MLP).
class Sequential {
 public:
  void Add(std::unique_ptr<Layer> layer) {
    layers_.push_back(std::move(layer));
  }

  Tensor Forward(const Tensor& input);
  Tensor Backward(const Tensor& grad_output);
  /// Const chain of the layers' Infer paths.
  Tensor Infer(const Tensor& input) const;
  std::vector<Param*> Params();
  std::size_t size() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }
  const Layer& layer(std::size_t i) const { return *layers_[i]; }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace nec::nn
