// The NEC Selector DNN (§IV-B1, Fig. 7).
//
// Architecture, following the paper exactly (widths parameterized by
// NecConfig):
//
//   input: mixed magnitude spectrogram, frame-major (T, F)
//     Conv 1x7  (frequency-direction "flat" filters — each covers the
//               bandwidth of an individual formant)           + ReLU
//     Conv 7x1  (time direction, phoneme-scale context)       + ReLU
//     Conv 5x5 dilation (1,1)                                 + ReLU
//     Conv 5x5 dilation (2,1)                                 + ReLU
//     Conv 5x5 dilation (4,1)                                 + ReLU
//     Conv 5x5 dilation (8,1)  (85–610 ms effective context)  + ReLU
//     Conv 5x5 → 2 channels → reshape to (T, 2F)
//     concat d-vector at every frame → (T, 2F + E)
//     Linear → H + ReLU
//     Linear → F      (linear output: the shadow is signed)
//
// 6 CNN layers + 2 FC layers total, no LSTM — the paper's efficiency
// argument against VoiceFilter.
//
// The network is trained with the Eq. 6 objective (see trainer.h):
//     argmin || (S_mixed + S_shadow) - S_bk ||^2
// so Forward() returns the shadow spectrogram to superpose on the mix.
//
// Input normalization: spectrogram cells are scaled by 1/rms(S_mixed)
// before the network and the shadow is scaled back after — superposition
// is linear, so this per-instance gain cancels out exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/config.h"
#include "dsp/stft.h"
#include "nn/layers.h"

namespace nec::core {

class Selector {
 public:
  Selector(const NecConfig& config, std::uint64_t init_seed = 11);

  /// Runs the selector on a (T, F) magnitude tensor plus the speaker
  /// embedding; returns the (T, F) shadow tensor. Caches activations for
  /// Backward when `training` is true. Mutates layer caches — training /
  /// single-thread use only (see nn/layers.h thread-safety contract).
  nn::Tensor Forward(const nn::Tensor& mixed_mag,
                     const std::vector<float>& dvector, bool training);

  /// Cache-free, bit-identical twin of Forward: writes no member state, so
  /// any number of threads may run Infer concurrently on one shared trained
  /// Selector (nec::runtime sessions share weights via
  /// shared_ptr<const Selector>). Kept in lockstep with Forward — change
  /// both together.
  nn::Tensor Infer(const nn::Tensor& mixed_mag,
                   const std::vector<float>& dvector) const;

  /// Backprop from dLoss/dShadow; accumulates parameter gradients.
  void Backward(const nn::Tensor& grad_shadow);

  std::vector<nn::Param*> Params();

  /// Convenience: spectrogram in, shadow magnitude surface out (applies the
  /// per-instance gain normalization described above). The result can be
  /// superposed with spec's magnitudes or rendered via IstftWithPhase.
  /// Const (uses Infer) — safe for concurrent sessions on shared weights.
  std::vector<float> ComputeShadow(const dsp::Spectrogram& spec,
                                   const std::vector<float>& dvector) const;

  /// ComputeShadow into a caller-owned surface (resized in place; capacity
  /// reused across chunks). Bit-identical to ComputeShadow. Run under an
  /// ArenaScope the network's intermediate tensors bump-allocate instead of
  /// hitting the heap — the streaming per-chunk path does exactly that.
  void ComputeShadowInto(const dsp::Spectrogram& spec,
                         const std::vector<float>& dvector,
                         std::vector<float>& out) const;

  void Save(const std::string& path) const;
  static Selector Load(const std::string& path);

  const NecConfig& config() const { return config_; }

  /// MAC count of the most recent Forward (Table II runtime analysis).
  std::size_t LastForwardMacs() const;

 private:
  NecConfig config_;
  // Conv stack (owning pointers so layers can be heterogeneous later).
  std::vector<std::unique_ptr<nn::Conv2D>> convs_;
  std::vector<nn::ReLU> conv_relus_;
  nn::ReLU fc_relu_;
  std::unique_ptr<nn::Linear> fc1_;
  std::unique_ptr<nn::Linear> fc2_;
  nn::Sigmoid mask_sigmoid_;
  nn::Tensor mask_input_cache_;

  // Forward caches for the reshape/concat boundary.
  std::size_t cached_T_ = 0;
};

}  // namespace nec::core
