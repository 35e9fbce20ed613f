#include "channel/modulation.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <numbers>
#include <utility>
#include <vector>

#include "common/check.h"
#include "dsp/biquad.h"
#include "dsp/resample.h"

namespace nec::channel {
namespace {

using CarrierTable = std::vector<double>;

struct CarrierCache {
  std::mutex mu;
  /// Keyed by (carrier Hz, air rate). An entry is immutable once
  /// published; growing it publishes a longer table in its place, and
  /// callers still holding the shorter one keep it alive until done.
  std::map<std::pair<double, int>, std::shared_ptr<const CarrierTable>>
      tables;
};

CarrierCache& Carriers() {
  static CarrierCache cache;
  return cache;
}

/// The carrier cos(w*i), i < at least `length`, for one (carrier, air
/// rate), shared process-wide: every session of a process reads the same
/// table, which grows to the longest chunk requested. Entries are
/// computed with the exact expression the per-sample modulator used, so
/// a lookup is the same double as the call it replaces.
std::shared_ptr<const CarrierTable> GetCarrierTable(double carrier_hz,
                                                    int air_rate,
                                                    std::size_t length) {
  CarrierCache& cache = Carriers();
  const std::pair<double, int> key{carrier_hz, air_rate};
  {
    std::lock_guard lock(cache.mu);
    const auto it = cache.tables.find(key);
    if (it != cache.tables.end() && it->second->size() >= length) {
      return it->second;
    }
  }
  // Built outside the lock; two threads may race to grow the same key, and
  // since the entries are deterministic the longer table wins.
  const double w = 2.0 * std::numbers::pi * carrier_hz / air_rate;
  auto table = std::make_shared<CarrierTable>(length);
  for (std::size_t i = 0; i < length; ++i) {
    (*table)[i] = std::cos(w * static_cast<double>(i));
  }
  std::lock_guard lock(cache.mu);
  auto& slot = cache.tables[key];
  if (!slot || slot->size() < table->size()) slot = std::move(table);
  return slot;
}

}  // namespace

std::size_t CarrierCacheBytes() {
  CarrierCache& cache = Carriers();
  std::lock_guard lock(cache.mu);
  std::size_t bytes = 0;
  for (const auto& [key, table] : cache.tables) {
    bytes += table->size() * sizeof(double);
  }
  return bytes;
}

void ModulateAmInto(const audio::Waveform& baseband,
                    const ModulationConfig& config, dsp::ResamplerPlan& plan,
                    audio::Waveform& out) {
  NEC_CHECK_MSG(config.carrier_hz > 20000.0 &&
                    config.carrier_hz < 0.45 * config.air_sample_rate,
                "carrier " << config.carrier_hz
                           << " Hz outside the inaudible/supported band");
  NEC_CHECK_MSG(config.alpha > 0.0, "alpha must be positive");

  dsp::ResampleInto(baseband, config.air_sample_rate, plan, out);
  if (config.reference_peak > 0.0) {
    // Fixed stream-wide gain: every chunk of a stream maps amplitude to
    // envelope identically, so the emitted power coefficient is stable.
    // Resampler overshoot (or chunks louder than the reference) clamps to
    // the |m| <= 1 modulation-index invariant instead of re-normalizing.
    const float scale = static_cast<float>(1.0 / config.reference_peak);
    for (float& s : out.samples()) s = std::clamp(s * scale, -1.0f, 1.0f);
  } else {
    const float peak = out.Peak();
    if (peak > 0.0f) out.Scale(1.0f / peak);  // |m| <= 1
  }

  const auto table = GetCarrierTable(config.carrier_hz,
                                     config.air_sample_rate, out.size());
  const double* carrier = table->data();
  const double norm = config.peak / (1.0 + config.alpha);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<float>(
        (static_cast<double>(out[i]) + config.alpha) * carrier[i] * norm);
  }
}

audio::Waveform ModulateAm(const audio::Waveform& baseband,
                           const ModulationConfig& config) {
  dsp::ResamplerPlan plan;
  audio::Waveform out;
  ModulateAmInto(baseband, config, plan, out);
  return out;
}

audio::Waveform DemodulateAm(const audio::Waveform& passband,
                             double carrier_hz, int target_rate) {
  // Coherent demodulation shifts the upper sideband to carrier + bw where
  // bw = target_rate/2 is the recovered baseband's bandwidth. The whole
  // sideband — not just the carrier — must sit below Nyquist, or it folds
  // back into the audio band before the low-pass can reject it.
  NEC_CHECK_MSG(
      passband.sample_rate() > 2.0 * (carrier_hz + 0.5 * target_rate),
      "passband rate " << passband.sample_rate()
                       << " Hz cannot carry the upper sideband of a "
                       << carrier_hz << " Hz carrier with " << target_rate
                       << " Hz baseband");
  audio::Waveform mixed = passband;
  const double w =
      2.0 * std::numbers::pi * carrier_hz / passband.sample_rate();
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    mixed[i] = static_cast<float>(
        2.0 * mixed[i] * std::cos(w * static_cast<double>(i)));
  }
  auto lp = dsp::DesignButterworthLowPass(
      8, 0.4 * target_rate, passband.sample_rate());
  lp.ProcessBuffer(mixed.samples());
  return dsp::Resample(mixed, target_rate);
}

}  // namespace nec::channel
