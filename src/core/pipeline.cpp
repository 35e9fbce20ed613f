#include "core/pipeline.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "obs/trace.h"

namespace nec::core {
namespace {

// A NaN/Inf anywhere in the selector output would propagate silently into
// the inverse STFT and modulation, broadcasting garbage instead of a
// shadow. Catch it at the selector boundary with a typed invariant so the
// serving layer (runtime session containment) can fault exactly the one
// session whose chunk poisoned the forward. O(cells) — negligible next to
// the DNN forward itself.
void CheckShadowFinite(const std::vector<float>& shadow_mag,
                       const char* site) {
  for (const float v : shadow_mag) {
    NEC_CHECK_MSG(std::isfinite(v),
                  site << " produced a non-finite shadow magnitude");
  }
}

}  // namespace

NecPipeline::NecPipeline(
    Selector selector,
    std::shared_ptr<const encoder::SpeakerEncoder> encoder,
    PipelineOptions options)
    : NecPipeline(std::make_shared<const Selector>(std::move(selector)),
                  std::move(encoder), options) {}

NecPipeline::NecPipeline(
    std::shared_ptr<const Selector> selector,
    std::shared_ptr<const encoder::SpeakerEncoder> encoder,
    PipelineOptions options)
    : selector_(std::move(selector)),
      las_selector_(selector_->config()),
      encoder_(std::move(encoder)),
      options_(options) {
  NEC_CHECK(selector_ != nullptr);
  NEC_CHECK(encoder_ != nullptr);
  NEC_CHECK_MSG(encoder_->dim() == selector_->config().embedding_dim,
                "encoder/selector embedding dimension mismatch");
}

void NecPipeline::Enroll(std::span<const audio::Waveform> references) {
  dvector_ = encoder_->EmbedReferences(references);
  las_selector_.Enroll(references);
}

const std::vector<float>& NecPipeline::dvector() const {
  NEC_CHECK_MSG(dvector_.has_value(), "pipeline not enrolled");
  return *dvector_;
}

audio::Waveform NecPipeline::GenerateShadow(const audio::Waveform& mixed,
                                            SelectorKind kind,
                                            dsp::StftWorkspace* ws) const {
  NEC_CHECK_MSG(dvector_.has_value(), "enroll a target before GenerateShadow");
  NEC_CHECK_MSG(mixed.sample_rate() == config().sample_rate,
                "monitor audio must be at " << config().sample_rate
                                            << " Hz");
  NEC_TRACE_SPAN("pipeline.generate_shadow");
  dsp::StftWorkspace local_ws;
  dsp::StftWorkspace& w = ws != nullptr ? *ws : local_ws;
  dsp::Spectrogram spec;
  {
    NEC_TRACE_SPAN("dsp.stft");
    spec = dsp::Stft(mixed, config().stft, w);
  }
  std::vector<float> shadow_mag;
  {
    NEC_TRACE_SPAN(kind == SelectorKind::kNeural ? "selector.forward"
                                                 : "selector.las");
    shadow_mag = kind == SelectorKind::kNeural
                     ? selector_->ComputeShadow(spec, *dvector_)
                     : las_selector_.ComputeShadow(spec);
  }
  CheckShadowFinite(shadow_mag, "GenerateShadow selector");
  NEC_TRACE_SPAN("dsp.istft");
  return dsp::IstftWithPhase(shadow_mag, spec, config().stft,
                             config().sample_rate, mixed.size(), w);
}

void NecPipeline::GenerateShadowInto(const audio::Waveform& mixed,
                                     SelectorKind kind,
                                     ShadowScratch& scratch,
                                     audio::Waveform& out) const {
  NEC_CHECK_MSG(dvector_.has_value(), "enroll a target before GenerateShadow");
  NEC_CHECK_MSG(mixed.sample_rate() == config().sample_rate,
                "monitor audio must be at " << config().sample_rate
                                            << " Hz");
  NEC_TRACE_SPAN("pipeline.generate_shadow");
  {
    NEC_TRACE_SPAN("dsp.stft");
    dsp::Stft(mixed, config().stft, scratch.stft, scratch.spec);
  }
  {
    NEC_TRACE_SPAN(kind == SelectorKind::kNeural ? "selector.forward"
                                                 : "selector.las");
    if (kind == SelectorKind::kNeural) {
      // All selector intermediates (input tensor, conv activations, the
      // shadow tensor) bump-allocate from the scratch arena and are
      // reclaimed wholesale when the scope closes; the result escapes into
      // scratch.shadow_mag (caller-owned heap capacity, reused per chunk).
      ArenaScope arena_scope(scratch.arena);
      selector_->ComputeShadowInto(scratch.spec, *dvector_,
                                   scratch.shadow_mag);
    } else {
      las_selector_.ComputeShadowInto(scratch.spec, scratch.shadow_mag);
    }
  }
  CheckShadowFinite(scratch.shadow_mag, "GenerateShadow selector");
  NEC_TRACE_SPAN("dsp.istft");
  dsp::IstftWithPhaseInto(scratch.shadow_mag, scratch.spec, config().stft,
                          config().sample_rate, mixed.size(), scratch.stft,
                          out);
}

audio::Waveform NecPipeline::GenerateModulatedShadow(
    const audio::Waveform& mixed, SelectorKind kind) const {
  return channel::ModulateAm(GenerateShadow(mixed, kind),
                             options_.modulation);
}

audio::Waveform NecPipeline::OracleShadow(
    const audio::Waveform& mixed, const audio::Waveform& background) const {
  const dsp::Spectrogram mix_spec = dsp::Stft(mixed, config().stft);
  const dsp::Spectrogram bk_spec = dsp::Stft(background, config().stft);
  // Tolerate a trailing length mismatch (stems may carry propagation
  // delays); cells past the shorter signal keep a zero shadow.
  const std::size_t n =
      std::min(mix_spec.mag().size(), bk_spec.mag().size());
  std::vector<float> shadow(mix_spec.mag().size(), 0.0f);
  for (std::size_t i = 0; i < n; ++i) {
    shadow[i] = bk_spec.mag()[i] - mix_spec.mag()[i];
  }
  return dsp::IstftWithPhase(shadow, mix_spec, config().stft,
                             config().sample_rate, mixed.size());
}

}  // namespace nec::core
