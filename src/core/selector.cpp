#include "core/selector.h"

#include <cmath>

#include "common/check.h"
#include "nn/serialize.h"

namespace nec::core {
namespace {

constexpr std::size_t kDilations[] = {1, 2, 4, 8};

}  // namespace

Selector::Selector(const NecConfig& config, std::uint64_t init_seed)
    : config_(config) {
  Rng rng(init_seed ^ 0x8AD1F2C1B7E94E2DULL);
  const std::size_t C = config_.conv_channels;

  // Conv 1x7 (frequency), Conv 7x1 (time), 4 dilated 5x5, final 5x5 -> 2.
  convs_.push_back(std::make_unique<nn::Conv2D>(1, C, 1, 7, 1, 1, rng));
  convs_.push_back(std::make_unique<nn::Conv2D>(C, C, 7, 1, 1, 1, rng));
  for (std::size_t d : kDilations) {
    convs_.push_back(std::make_unique<nn::Conv2D>(C, C, 5, 5, d, 1, rng));
  }
  convs_.push_back(std::make_unique<nn::Conv2D>(C, 2, 5, 5, 1, 1, rng));
  conv_relus_.resize(convs_.size());

  const std::size_t F = config_.num_bins();
  fc1_ = std::make_unique<nn::Linear>(2 * F + config_.embedding_dim,
                                      config_.fc_hidden, rng);
  fc2_ = std::make_unique<nn::Linear>(config_.fc_hidden, F, rng);
  // Near-zero head init: the mask starts flat at 0.5 rather than random,
  // which keeps the first training steps close to a sane baseline.
  fc2_->weight().value.Scale(0.01f);
}

nn::Tensor Selector::Forward(const nn::Tensor& mixed_mag,
                             const std::vector<float>& dvector,
                             bool /*training*/) {
  NEC_CHECK_MSG(mixed_mag.rank() == 2 &&
                    mixed_mag.dim(1) == config_.num_bins(),
                "selector expects (T, F) input with F = "
                    << config_.num_bins());
  NEC_CHECK_MSG(dvector.size() == config_.embedding_dim,
                "d-vector dim " << dvector.size() << " != configured "
                                << config_.embedding_dim);
  const std::size_t T = mixed_mag.dim(0);
  const std::size_t F = config_.num_bins();
  cached_T_ = T;

  // (T, F) -> (1, T, F) for the conv stack. The conv features see a
  // square-root-compressed view of the magnitudes (standard for masking
  // networks: compresses the dynamic range so formant structure is not
  // drowned by the loudest cells); the output shadow stays linear, so the
  // Eq. 5/6 superposition algebra is untouched.
  nn::Tensor x({1, T, F});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    const float v = mixed_mag[i];
    x[i] = v > 0.0f ? std::sqrt(v) : 0.0f;
  }
  for (std::size_t i = 0; i < convs_.size(); ++i) {
    x = convs_[i]->Forward(x);
    // Final conv layer also passes through ReLU per the paper's uniform
    // activation choice; its output is re-signed by the FC head.
    x = conv_relus_[i].Forward(x);
  }

  // (2, T, F) -> (T, 2F + E): frame t = [ch0 row t, ch1 row t, d-vector].
  NEC_CHECK(x.rank() == 3 && x.dim(0) == 2);
  nn::Tensor fused({T, 2 * F + config_.embedding_dim});
  for (std::size_t t = 0; t < T; ++t) {
    float* row = fused.data() + t * (2 * F + config_.embedding_dim);
    for (std::size_t f = 0; f < F; ++f) row[f] = x.At3(0, t, f);
    for (std::size_t f = 0; f < F; ++f) row[F + f] = x.At3(1, t, f);
    for (std::size_t e = 0; e < config_.embedding_dim; ++e) {
      row[2 * F + e] = dvector[e];
    }
  }

  nn::Tensor h = fc_relu_.Forward(fc1_->Forward(fused));
  nn::Tensor logits = fc2_->Forward(h);  // (T, F)

  // Masked shadow head: shadow = -sigmoid(logits) * S_mixed. The selector
  // decides, per T-F cell, what fraction of the mixed energy belongs to
  // the target; the superposed record S_mixed + shadow = (1-mask)*S_mixed
  // stays a valid non-negative spectrogram. (The raw-regression head the
  // paper's text suggests trains far less stably — see DESIGN.md §5.)
  nn::Tensor mask = mask_sigmoid_.Forward(logits);
  mask_input_cache_ = mixed_mag;
  nn::Tensor shadow({T, F});
  for (std::size_t i = 0; i < shadow.numel(); ++i) {
    shadow[i] = -mask[i] * mixed_mag[i];
  }
  return shadow;
}

nn::Tensor Selector::Infer(const nn::Tensor& mixed_mag,
                           const std::vector<float>& dvector) const {
  // Mirror of Forward through the layers' cache-free Infer path; every
  // arithmetic step matches Forward exactly (the runtime test suite pins
  // Infer == Forward bit-for-bit). No member state is written here: that is
  // what lets nec::runtime sessions share one trained Selector across
  // threads.
  NEC_CHECK_MSG(mixed_mag.rank() == 2 &&
                    mixed_mag.dim(1) == config_.num_bins(),
                "selector expects (T, F) input with F = "
                    << config_.num_bins());
  NEC_CHECK_MSG(dvector.size() == config_.embedding_dim,
                "d-vector dim " << dvector.size() << " != configured "
                                << config_.embedding_dim);
  const std::size_t T = mixed_mag.dim(0);
  const std::size_t F = config_.num_bins();

  nn::Tensor x({1, T, F});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    const float v = mixed_mag[i];
    x[i] = v > 0.0f ? std::sqrt(v) : 0.0f;
  }
  for (std::size_t i = 0; i < convs_.size(); ++i) {
    x = conv_relus_[i].Infer(convs_[i]->Infer(x));
  }

  NEC_CHECK(x.rank() == 3 && x.dim(0) == 2);
  nn::Tensor fused({T, 2 * F + config_.embedding_dim});
  for (std::size_t t = 0; t < T; ++t) {
    float* row = fused.data() + t * (2 * F + config_.embedding_dim);
    for (std::size_t f = 0; f < F; ++f) row[f] = x.At3(0, t, f);
    for (std::size_t f = 0; f < F; ++f) row[F + f] = x.At3(1, t, f);
    for (std::size_t e = 0; e < config_.embedding_dim; ++e) {
      row[2 * F + e] = dvector[e];
    }
  }

  nn::Tensor h = fc_relu_.Infer(fc1_->Infer(fused));
  nn::Tensor logits = fc2_->Infer(h);  // (T, F)

  nn::Tensor mask = mask_sigmoid_.Infer(logits);
  nn::Tensor shadow({T, F});
  for (std::size_t i = 0; i < shadow.numel(); ++i) {
    shadow[i] = -mask[i] * mixed_mag[i];
  }
  return shadow;
}

void Selector::Backward(const nn::Tensor& grad_shadow) {
  const std::size_t T = cached_T_;
  const std::size_t F = config_.num_bins();
  NEC_CHECK_MSG(T > 0, "Backward before Forward");
  NEC_CHECK(grad_shadow.rank() == 2 && grad_shadow.dim(0) == T &&
            grad_shadow.dim(1) == F);

  // Through the masked head: dL/dMask = dL/dShadow * (-S_mixed).
  nn::Tensor grad_mask = grad_shadow;
  for (std::size_t i = 0; i < grad_mask.numel(); ++i) {
    grad_mask[i] *= -mask_input_cache_[i];
  }
  nn::Tensor grad_logits = mask_sigmoid_.Backward(grad_mask);

  nn::Tensor g = fc1_->Backward(fc_relu_.Backward(fc2_->Backward(grad_logits)));

  // Split (T, 2F + E) gradient back to the conv output (2, T, F); the
  // d-vector slice is a constant input, its gradient is dropped.
  nn::Tensor gx({2, T, F});
  for (std::size_t t = 0; t < T; ++t) {
    const float* row = g.data() + t * (2 * F + config_.embedding_dim);
    for (std::size_t f = 0; f < F; ++f) gx.At3(0, t, f) = row[f];
    for (std::size_t f = 0; f < F; ++f) gx.At3(1, t, f) = row[F + f];
  }

  for (std::size_t i = convs_.size(); i-- > 0;) {
    gx = convs_[i]->Backward(conv_relus_[i].Backward(gx));
  }
}

std::vector<nn::Param*> Selector::Params() {
  std::vector<nn::Param*> params;
  for (auto& conv : convs_) {
    for (nn::Param* p : conv->Params()) params.push_back(p);
  }
  for (nn::Param* p : fc1_->Params()) params.push_back(p);
  for (nn::Param* p : fc2_->Params()) params.push_back(p);
  return params;
}

void Selector::ComputeShadowInto(const dsp::Spectrogram& spec,
                                 const std::vector<float>& dvector,
                                 std::vector<float>& out) const {
  const std::size_t T = spec.num_frames(), F = spec.num_bins();
  NEC_CHECK(F == config_.num_bins());

  // Per-instance gain normalization.
  double acc = 0.0;
  for (float m : spec.mag()) acc += static_cast<double>(m) * m;
  const float rms = static_cast<float>(
      std::sqrt(acc / std::max<std::size_t>(1, spec.mag().size())));
  const float gain = rms > 1e-9f ? 1.0f / rms : 1.0f;

  nn::Tensor input({T, F});
  for (std::size_t i = 0; i < input.numel(); ++i) {
    input[i] = spec.mag()[i] * gain;
  }
  nn::Tensor shadow = Infer(input, dvector);
  out.resize(shadow.numel());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = shadow[i] / gain;
  }
}

std::vector<float> Selector::ComputeShadow(
    const dsp::Spectrogram& spec, const std::vector<float>& dvector) const {
  std::vector<float> out;
  ComputeShadowInto(spec, dvector, out);
  return out;
}

std::size_t Selector::LastForwardMacs() const {
  std::size_t macs = 0;
  for (const auto& conv : convs_) macs += conv->LastForwardMacs();
  macs += fc1_->LastForwardMacs() + fc2_->LastForwardMacs();
  return macs;
}

void Selector::Save(const std::string& path) const {
  nn::TensorMap map;
  // Persist the config alongside the weights.
  nn::Tensor meta({8});
  meta[0] = static_cast<float>(config_.sample_rate);
  meta[1] = static_cast<float>(config_.stft.fft_size);
  meta[2] = static_cast<float>(config_.stft.win_length);
  meta[3] = static_cast<float>(config_.stft.hop_length);
  meta[4] = static_cast<float>(config_.conv_channels);
  meta[5] = static_cast<float>(config_.fc_hidden);
  meta[6] = static_cast<float>(config_.embedding_dim);
  meta[7] = 1.0f;  // format version
  map.emplace("meta", std::move(meta));

  for (std::size_t i = 0; i < convs_.size(); ++i) {
    map.emplace("conv" + std::to_string(i) + ".w", convs_[i]->weight().value);
    map.emplace("conv" + std::to_string(i) + ".b", convs_[i]->bias().value);
  }
  map.emplace("fc1.w", fc1_->weight().value);
  map.emplace("fc1.b", fc1_->bias().value);
  map.emplace("fc2.w", fc2_->weight().value);
  map.emplace("fc2.b", fc2_->bias().value);
  nn::SaveTensors(path, map);
}

Selector Selector::Load(const std::string& path) {
  const nn::TensorMap map = nn::LoadTensors(path);
  const nn::Tensor& meta = map.at("meta");
  NecConfig cfg;
  cfg.sample_rate = static_cast<int>(meta[0]);
  cfg.stft.fft_size = static_cast<std::size_t>(meta[1]);
  cfg.stft.win_length = static_cast<std::size_t>(meta[2]);
  cfg.stft.hop_length = static_cast<std::size_t>(meta[3]);
  cfg.conv_channels = static_cast<std::size_t>(meta[4]);
  cfg.fc_hidden = static_cast<std::size_t>(meta[5]);
  cfg.embedding_dim = static_cast<std::size_t>(meta[6]);

  Selector s(cfg);
  for (std::size_t i = 0; i < s.convs_.size(); ++i) {
    s.convs_[i]->weight().value = map.at("conv" + std::to_string(i) + ".w");
    s.convs_[i]->bias().value = map.at("conv" + std::to_string(i) + ".b");
  }
  s.fc1_->weight().value = map.at("fc1.w");
  s.fc1_->bias().value = map.at("fc1.b");
  s.fc2_->weight().value = map.at("fc2.w");
  s.fc2_->bias().value = map.at("fc2.b");
  return s;
}

// Compile-time trail for the concurrency contract: everything a runtime
// session calls per chunk on the *shared* model must be const-invocable.
// If a future change drops const from one of these, sharing a Selector
// across sessions silently becomes a data race — fail the build instead.
static_assert(
    requires(const Selector& s, const dsp::Spectrogram& spec,
             const nn::Tensor& mag, const std::vector<float>& d,
             std::vector<float>& shadow_out) {
      s.ComputeShadow(spec, d);
      s.ComputeShadowInto(spec, d, shadow_out);
      s.Infer(mag, d);
      s.config();
    },
    "Selector inference entry points must stay const for nec::runtime "
    "weight sharing");

}  // namespace nec::core
