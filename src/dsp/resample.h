// Rational sample-rate conversion.
//
// The NEC simulation runs the audible world at 16 kHz (the paper's rate)
// and the over-the-air ultrasound channel at 192 kHz so that 24–28 kHz
// carriers and their second-order intermodulation products are represented
// without aliasing. Upsampling by 12 (16k → 192k, once per streamed chunk
// in the Broadcast module) and decimating by 12 (192k → 16k inside the
// microphone model) are the hot paths.
//
// Every L/M runs one phase-major polyphase kernel. The outputs
// n = r + q*L share one tap phase, and their newest input index advances
// by M per q, so the kernel walks each residue r once, with the phase's
// taps (split out as double when the plan binds) and no per-tap division
// or bounds test. Outputs whose taps all land inside the input are
// computed eight at a time in independent double accumulators; the few
// at either end, where the input runs out, take a bounded scalar loop.
// Each output still starts from 0.0 and adds its taps in ascending tap
// order with the same double product, exactly as a direct per-output
// loop does, so the result is bit for bit that loop's (see
// tests/test_fir_resample.cpp, which keeps it as an oracle).
#pragma once

#include "audio/waveform.h"

namespace nec::dsp {

/// Resamples `input` to `target_rate` with a polyphase windowed-sinc FIR.
/// Exact rational conversion: L/M is derived from target/source rates via
/// gcd. Identity rates return a copy. `taps_per_phase` controls quality
/// (filter length = taps_per_phase * L, group-delay compensated so the
/// output is time-aligned with the input).
audio::Waveform Resample(const audio::Waveform& input, int target_rate,
                         std::size_t taps_per_phase = 24);

/// Cached polyphase filter for a fixed (source rate, target rate,
/// taps_per_phase) conversion. Binds lazily on first use and rebinds if the
/// rates change; the tap values are produced by the exact same design call
/// as the plan-free Resample, so the two paths are bit-identical. Designing
/// the FIR dominates per-call cost (and allocates), so the streaming hot
/// path keeps one plan per modulation direction and reuses it every chunk.
struct ResamplerPlan {
  /// Ensures the cached taps match the conversion (no-op when warm).
  void Bind(int src_rate, int target_rate, std::size_t taps_per_phase);

  int src_rate = 0;
  int target_rate = 0;
  std::size_t taps_per_phase = 0;
  std::size_t up = 0;    ///< L: interpolation factor
  std::size_t down = 0;  ///< M: decimation factor
  std::size_t num_taps = 0;  ///< length of the designed low-pass FIR
  /// The FIR split by phase: tap j = p + t*L of the design is
  /// phase_taps[phase_begin[p] + t], widened to double.
  std::vector<double> phase_taps;
  std::vector<std::size_t> phase_begin;  ///< L + 1 offsets into phase_taps
};

/// Resample into a caller-owned output buffer, reusing `plan`'s cached
/// taps. Bit-identical to the plan-free overload; with a warm plan and a
/// steady-state `out` the call performs no allocation.
void ResampleInto(const audio::Waveform& input, int target_rate,
                  ResamplerPlan& plan, audio::Waveform& out,
                  std::size_t taps_per_phase = 24);

}  // namespace nec::dsp
