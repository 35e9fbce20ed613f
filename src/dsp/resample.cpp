#include "dsp/resample.h"

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <vector>

#include "common/check.h"
#include "dsp/fir.h"

namespace nec::dsp {

void ResamplerPlan::Bind(int src, int target, std::size_t tpp) {
  if (src_rate == src && target_rate == target && taps_per_phase == tpp) {
    return;
  }
  const int g = std::gcd(src, target);
  up = static_cast<std::size_t>(target / g);
  down = static_cast<std::size_t>(src / g);

  // Anti-alias / anti-image low-pass at min(src, target)/2, designed at the
  // upsampled rate src*L. Cut slightly below Nyquist for transition band.
  const double fs_up = static_cast<double>(src) * up;
  const double cutoff = 0.45 * std::min(src, target);
  std::size_t length = tpp * std::max(up, down);
  if (length % 2 == 0) ++length;
  const std::vector<float> taps = DesignFirLowPass(length, cutoff, fs_up);
  num_taps = taps.size();

  // Polyphase decomposition: tap j belongs to phase j % L.
  phase_taps.clear();
  phase_taps.reserve(num_taps);
  phase_begin.assign(up + 1, 0);
  for (std::size_t p = 0; p < up; ++p) {
    phase_begin[p] = phase_taps.size();
    for (std::size_t j = p; j < num_taps; j += up) {
      phase_taps.push_back(static_cast<double>(taps[j]));
    }
  }
  phase_begin[up] = phase_taps.size();

  src_rate = src;
  target_rate = target;
  taps_per_phase = tpp;
}

namespace {

/// Outputs accumulated side by side in the kernel's interior.
constexpr std::size_t kBlock = 8;

/// Shared phase-major polyphase kernel: both Resample entry points run it
/// over plan-held taps, so plan-cached and plan-free conversion stay
/// bit-identical by construction.
///
/// Output n lands at upsampled index u = n*M + delay (the filter's group
/// delay keeps the output time-aligned with the input). Its taps are
/// those of phase u % L, and tap t of that phase meets input sample
/// k0 - t with k0 = u / L. For n = r + q*L the phase is fixed by r and k0
/// grows by M per q. Gain L compensates the zero-stuffing loss.
void PolyphaseFilter(const audio::Waveform& input, const ResamplerPlan& plan,
                     audio::Waveform& out) {
  const std::size_t L = plan.up;
  const std::size_t M = plan.down;
  const std::size_t out_len =
      (input.size() * L + M - 1) / M;  // ceil(input*L/M)
  out.AssignSilence(plan.target_rate, out_len);
  const float* x = input.samples().data();
  float* y = out.samples().data();
  const auto n_in = static_cast<std::ptrdiff_t>(input.size());
  const auto stride = static_cast<std::ptrdiff_t>(M);
  const std::size_t delay = plan.num_taps / 2;
  const float gain = static_cast<float>(L);

  for (std::size_t r = 0; r < std::min(L, out_len); ++r) {
    const std::size_t u = r * M + delay;
    const std::size_t phase = u % L;
    const double* h = plan.phase_taps.data() + plan.phase_begin[phase];
    const auto span = static_cast<std::ptrdiff_t>(plan.phase_begin[phase + 1] -
                                                  plan.phase_begin[phase]);
    const auto k0_first = static_cast<std::ptrdiff_t>(u / L);
    const auto count = static_cast<std::ptrdiff_t>((out_len - r + L - 1) / L);

    // Near either end some taps fall outside the input; those outputs sum
    // only the taps t with 0 <= k0 - t < n_in, still in ascending t.
    const auto bounded = [&](std::ptrdiff_t k0) {
      const std::ptrdiff_t t_end = std::min(span, k0 + 1);
      double acc = 0.0;
      for (std::ptrdiff_t t = std::max<std::ptrdiff_t>(0, k0 - n_in + 1);
           t < t_end; ++t) {
        acc += h[t] * x[k0 - t];
      }
      return acc;
    };
    // Interior outputs q in [q_lo, q_hi) have span - 1 <= k0 < n_in.
    const std::ptrdiff_t q_lo =
        k0_first >= span - 1 ? 0 : (span - 1 - k0_first + stride - 1) / stride;
    const std::ptrdiff_t q_hi =
        k0_first >= n_in
            ? 0
            : std::min(count, (n_in - 1 - k0_first) / stride + 1);

    std::ptrdiff_t q = 0;
    for (; q < std::min(q_lo, count); ++q) {
      y[r + q * L] = gain * static_cast<float>(bounded(k0_first + q * stride));
    }
    for (; q + static_cast<std::ptrdiff_t>(kBlock) <= q_hi;
         q += static_cast<std::ptrdiff_t>(kBlock)) {
      const float* xq = x + k0_first + q * stride;
      double acc[kBlock] = {};
      for (std::ptrdiff_t t = 0; t < span; ++t) {
        const double ht = h[t];
        const float* xt = xq - t;
        for (std::size_t i = 0; i < kBlock; ++i) {
          acc[i] += ht * xt[static_cast<std::ptrdiff_t>(i) * stride];
        }
      }
      for (std::size_t i = 0; i < kBlock; ++i) {
        y[r + (q + i) * L] = gain * static_cast<float>(acc[i]);
      }
    }
    for (; q < count; ++q) {
      y[r + q * L] = gain * static_cast<float>(bounded(k0_first + q * stride));
    }
  }
}

}  // namespace

void ResampleInto(const audio::Waveform& input, int target_rate,
                  ResamplerPlan& plan, audio::Waveform& out,
                  std::size_t taps_per_phase) {
  NEC_CHECK_MSG(target_rate > 0, "target rate must be positive");
  NEC_CHECK_MSG(input.sample_rate() > 0, "input must have a sample rate");
  if (input.sample_rate() == target_rate) {
    out = input;
    return;
  }
  if (input.empty()) {
    out.AssignSilence(target_rate, 0);
    return;
  }
  plan.Bind(input.sample_rate(), target_rate, taps_per_phase);
  PolyphaseFilter(input, plan, out);
}

audio::Waveform Resample(const audio::Waveform& input, int target_rate,
                         std::size_t taps_per_phase) {
  ResamplerPlan plan;
  audio::Waveform out;
  ResampleInto(input, target_rate, plan, out, taps_per_phase);
  return out;
}

}  // namespace nec::dsp
