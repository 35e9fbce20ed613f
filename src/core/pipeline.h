// The end-to-end NEC pipeline (Fig. 6): enrollment → monitoring → shadow
// generation → ultrasonic broadcast.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "audio/waveform.h"
#include "channel/modulation.h"
#include "core/config.h"
#include "core/las_selector.h"
#include "core/memory.h"
#include "core/selector.h"
#include "dsp/stft.h"
#include "encoder/encoder.h"

namespace nec::core {

struct PipelineOptions {
  channel::ModulationConfig modulation;  ///< carrier f_c, alpha, air rate
};

/// Per-session scratch for the per-chunk shadow hot path (DESIGN.md §5i).
/// Owns everything GenerateShadowInto reuses across chunks: the STFT/ISTFT
/// workspace, the chunk spectrogram, the shadow magnitude surface, and the
/// bump arena the selector's intermediate tensors live in (rewound at every
/// chunk boundary by the ArenaScope inside GenerateShadowInto). After the
/// first chunk of a stream every buffer is at steady-state size, so the
/// per-chunk path performs zero heap allocations. Single-threaded: each
/// streaming session / runtime strand owns one.
struct ShadowScratch {
  dsp::StftWorkspace stft;
  dsp::Spectrogram spec;
  std::vector<float> shadow_mag;
  Arena arena;
};

/// Which shadow generator the pipeline runs (neural is the paper system;
/// the LAS mask is the DSP ablation).
enum class SelectorKind { kNeural, kLasMask };

class NecPipeline {
 public:
  /// Takes ownership of a trained selector and an encoder.
  NecPipeline(Selector selector,
              std::shared_ptr<const encoder::SpeakerEncoder> encoder,
              PipelineOptions options = {});

  /// Shares an immutable trained selector with other pipelines. This is the
  /// nec::runtime path: every concurrent session holds the same weight set
  /// (inference is const — see Selector::Infer); only enrollment state and
  /// the LAS ablation profile are per-pipeline.
  NecPipeline(std::shared_ptr<const Selector> selector,
              std::shared_ptr<const encoder::SpeakerEncoder> encoder,
              PipelineOptions options = {});

  /// Enrolls the target speaker from reference clips (paper: 3 clips of
  /// 3 s). Computes the d-vector and the LAS profile for the ablation
  /// selector.
  void Enroll(std::span<const audio::Waveform> references);

  /// Generates the baseband shadow waveform for a monitored mixed clip:
  /// STFT → selector → signed shadow magnitudes → inverse STFT with the
  /// mixed signal's phase (§IV-C1). The returned wave has the property
  /// x_mixed + x_shadow ≈ x_background at the monitor's scale. Const:
  /// concurrent callers are safe once enrollment has happened.
  ///
  /// `ws` (optional) reuses STFT/ISTFT scratch between calls — the
  /// streaming hot path passes a per-session workspace so shadow
  /// generation stops allocating per frame. A workspace must not be shared
  /// across threads.
  audio::Waveform GenerateShadow(const audio::Waveform& mixed,
                                 SelectorKind kind = SelectorKind::kNeural,
                                 dsp::StftWorkspace* ws = nullptr) const;

  /// Zero-allocation twin of GenerateShadow: every intermediate lives in
  /// `scratch` (spectrogram, shadow surface, selector tensors via the
  /// scratch arena) and the result is written into `out` in place.
  /// Bit-identical to GenerateShadow — arena-backed tensors zero-fill
  /// exactly like heap-backed ones, and the dsp Into-variants are the
  /// implementations behind the value-returning forms. With a warm scratch
  /// (one chunk of this shape already seen) the call performs no heap
  /// allocation; bench_runtime_throughput asserts this at 0 mallocs/chunk.
  void GenerateShadowInto(const audio::Waveform& mixed, SelectorKind kind,
                          ShadowScratch& scratch, audio::Waveform& out) const;

  /// GenerateShadow + ultrasonic AM modulation (Broadcast module). The
  /// result is at the air sample rate with unit peak; emitted power is a
  /// scene parameter.
  audio::Waveform GenerateModulatedShadow(
      const audio::Waveform& mixed,
      SelectorKind kind = SelectorKind::kNeural) const;

  /// The ideal shadow computed from ground-truth stems (oracle): exactly
  /// S_bk - S_mixed. Upper-bounds what any selector can achieve; used by
  /// tests and the offset study (Fig. 9), which the paper also runs with
  /// known signals.
  audio::Waveform OracleShadow(const audio::Waveform& mixed,
                               const audio::Waveform& background) const;

  bool enrolled() const { return dvector_.has_value(); }
  const std::vector<float>& dvector() const;

  const NecConfig& config() const { return selector_->config(); }
  const PipelineOptions& options() const { return options_; }
  const Selector& selector() const { return *selector_; }
  const encoder::SpeakerEncoder& encoder() const { return *encoder_; }

  /// Shared handles, for fanning more pipelines out of the same weights.
  std::shared_ptr<const Selector> shared_selector() const {
    return selector_;
  }
  std::shared_ptr<const encoder::SpeakerEncoder> shared_encoder() const {
    return encoder_;
  }

 private:
  std::shared_ptr<const Selector> selector_;
  LasSelector las_selector_;
  std::shared_ptr<const encoder::SpeakerEncoder> encoder_;
  PipelineOptions options_;
  std::optional<std::vector<float>> dvector_;
};

}  // namespace nec::core
