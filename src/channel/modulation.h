// Ultrasonic amplitude modulation (the paper's Broadcast module, Eq. 7/9).
//
// The audible shadow waveform m(t) (16 kHz baseband) is up-converted onto an
// inaudible carrier f_c > 20 kHz:  b(t) = (m(t) + alpha) * cos(2*pi*f_c*t).
// The simulation carries over-the-air signals at 192 kHz so carriers up to
// ~30 kHz and their second-order intermodulation products (2*f_c terms of
// Eq. 8) stay below Nyquist.
#pragma once

#include "audio/waveform.h"
#include "dsp/resample.h"

namespace nec::channel {

/// Default over-the-air simulation rate.
inline constexpr int kAirSampleRate = 192000;

struct ModulationConfig {
  double carrier_hz = 27000.0;  ///< f_c; must be in (20 kHz, fs_air*0.45)
  double alpha = 1.0;           ///< carrier power coefficient of Eq. 7
  int air_sample_rate = kAirSampleRate;
  /// Peak normalization of the emitted waveform (transmit amplitude is set
  /// by the emitter's SPL, not here).
  double peak = 0.95;
  /// Envelope reference amplitude. 0 (default) normalizes by the input's
  /// own peak — correct for whole-utterance modulation. A chunked stream
  /// MUST set an explicit reference instead (one gain for the whole
  /// stream): normalizing each chunk by its own peak boosts quiet chunks
  /// and attenuates loud ones, so the emitted shadow's power coefficient
  /// drifts chunk-to-chunk and no longer matches the calibrated a <= 0.6
  /// cancellation scale. StreamingProcessor latches a stream-wide
  /// reference automatically when this is 0.
  double reference_peak = 0.0;
};

/// AM-modulates a baseband waveform onto the ultrasonic carrier. The input
/// is resampled to `air_sample_rate` first; the envelope is normalized so
/// |m(t)| <= 1 before the (m + alpha) offset, keeping the modulation index
/// at alpha^-1. With `reference_peak > 0` the envelope is scaled by
/// 1/reference_peak instead of the per-call peak (samples beyond the
/// reference clamp to +-1, preserving the modulation-index invariant).
audio::Waveform ModulateAm(const audio::Waveform& baseband,
                           const ModulationConfig& config);

/// ModulateAm into a caller-owned output buffer, reusing a cached resampler
/// plan across calls. Bit-identical to ModulateAm (the plan caches the same
/// FIR taps the plan-free resampler designs per call); with a warm plan and
/// steady-state `out` the per-chunk call performs no allocation. The
/// streaming dispatcher owns one plan per session next to its stream-wide
/// reference-peak latch.
///
/// The carrier cos(2*pi*f_c*i/fs_air) is read from a process-wide table
/// per (carrier, air rate), never one per session. Its entries are the
/// values std::cos returns for the same argument, so the output is the
/// same as evaluating the carrier per sample; the table grows to the
/// longest chunk modulated (8 bytes per air sample: 1.5 MB for a 1 s
/// chunk at 192 kHz), and only that growth allocates.
void ModulateAmInto(const audio::Waveform& baseband,
                    const ModulationConfig& config, dsp::ResamplerPlan& plan,
                    audio::Waveform& out);

/// Bytes held by the process-wide carrier tables (diagnostic).
std::size_t CarrierCacheBytes();

/// Ideal coherent demodulation — test/diagnostic reference only (real
/// recorders rely on their nonlinearity; see MicrophoneModel). Returns the
/// baseband at `target_rate`. Requires the passband rate to cover the
/// carrier plus the recovered baseband bandwidth (carrier + target_rate/2
/// below Nyquist), not merely the carrier itself — an upper sideband that
/// straddles Nyquist would alias into the demodulated audio.
audio::Waveform DemodulateAm(const audio::Waveform& passband,
                             double carrier_hz, int target_rate);

}  // namespace nec::channel
