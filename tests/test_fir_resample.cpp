// Tests for FIR design/convolution and the polyphase resampler — the 16 kHz
// ↔ 192 kHz conversions the ultrasound channel depends on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>
#include <numeric>
#include <random>
#include <vector>

#include "common/check.h"
#include "dsp/fir.h"
#include "dsp/resample.h"

namespace nec::dsp {
namespace {

audio::Waveform Tone(int rate, double f, double seconds) {
  audio::Waveform w(rate, static_cast<std::size_t>(rate * seconds));
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = static_cast<float>(std::sin(2.0 * std::numbers::pi * f * i / rate));
  }
  return w;
}

double ToneRms(const audio::Waveform& w, std::size_t skip) {
  double acc = 0.0;
  std::size_t n = 0;
  for (std::size_t i = skip; i + skip < w.size(); ++i, ++n) {
    acc += static_cast<double>(w[i]) * w[i];
  }
  return std::sqrt(acc / std::max<std::size_t>(1, n));
}

TEST(Fir, UnitDcGain) {
  const auto taps = DesignFirLowPass(63, 2000.0, 16000.0);
  double sum = 0.0;
  for (float t : taps) sum += t;
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(Fir, EvenTapCountBumpedToOdd) {
  const auto taps = DesignFirLowPass(64, 2000.0, 16000.0);
  EXPECT_EQ(taps.size() % 2, 1u);
}

TEST(Fir, SymmetricKernel) {
  const auto taps = DesignFirLowPass(101, 3000.0, 16000.0);
  for (std::size_t i = 0; i < taps.size(); ++i) {
    EXPECT_NEAR(taps[i], taps[taps.size() - 1 - i], 1e-7);
  }
}

TEST(Fir, RejectsBadCutoff) {
  EXPECT_THROW(DesignFirLowPass(63, 9000.0, 16000.0), nec::CheckError);
  EXPECT_THROW(DesignFirLowPass(63, 0.0, 16000.0), nec::CheckError);
}

TEST(Convolve, KnownResult) {
  const std::vector<float> x = {1, 2, 3};
  const std::vector<float> h = {1, 1};
  const auto y = Convolve(x, h);
  ASSERT_EQ(y.size(), 4u);
  EXPECT_FLOAT_EQ(y[0], 1.0f);
  EXPECT_FLOAT_EQ(y[1], 3.0f);
  EXPECT_FLOAT_EQ(y[2], 5.0f);
  EXPECT_FLOAT_EQ(y[3], 3.0f);
}

TEST(Convolve, EmptyInputs) {
  EXPECT_TRUE(Convolve({}, std::vector<float>{1.0f}).empty());
  EXPECT_TRUE(Convolve(std::vector<float>{1.0f}, {}).empty());
}

TEST(ConvolveSame, PreservesLengthAndCentering) {
  std::vector<float> x(64, 0.0f);
  x[32] = 1.0f;  // impulse at center
  const auto taps = DesignFirLowPass(15, 4000.0, 16000.0);
  const auto y = ConvolveSame(x, taps);
  ASSERT_EQ(y.size(), x.size());
  std::size_t peak = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y[i] > y[peak]) peak = i;
  }
  EXPECT_EQ(peak, 32u);  // group delay compensated
}

TEST(Resample, IdentityRateReturnsCopy) {
  const audio::Waveform w = Tone(16000, 440.0, 0.1);
  const audio::Waveform r = Resample(w, 16000);
  ASSERT_EQ(r.size(), w.size());
  for (std::size_t i = 0; i < w.size(); ++i) EXPECT_EQ(r[i], w[i]);
}

class ResampleRateTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ResampleRateTest, TonePreservedThroughConversion) {
  const auto [src, dst] = GetParam();
  const audio::Waveform w = Tone(src, 1000.0, 0.25);
  const audio::Waveform r = Resample(w, dst);
  EXPECT_EQ(r.sample_rate(), dst);
  EXPECT_NEAR(static_cast<double>(r.size()),
              static_cast<double>(w.size()) * dst / src, 16.0);
  EXPECT_NEAR(ToneRms(r, static_cast<std::size_t>(dst) / 100),
              1.0 / std::sqrt(2.0), 0.03);
}

INSTANTIATE_TEST_SUITE_P(
    Rates, ResampleRateTest,
    ::testing::Values(std::pair{16000, 192000}, std::pair{192000, 16000},
                      std::pair{16000, 48000}, std::pair{48000, 16000},
                      std::pair{16000, 44100}));

TEST(Resample, RoundTrip16kTo192kAndBack) {
  const audio::Waveform w = Tone(16000, 700.0, 0.3);
  const audio::Waveform up = Resample(w, 192000);
  const audio::Waveform back = Resample(up, 16000);
  // Group delay is compensated, so samples line up directly.
  double err = 0.0, ref = 0.0;
  for (std::size_t i = 500; i + 500 < w.size() && i < back.size(); ++i) {
    const double d = back[i] - w[i];
    err += d * d;
    ref += static_cast<double>(w[i]) * w[i];
  }
  EXPECT_LT(err / ref, 1e-3);
}

TEST(Resample, DecimationRejectsAliases) {
  // A 40 kHz tone at 192 kHz must vanish when decimated to 16 kHz
  // (Nyquist 8 kHz) rather than aliasing into the audible band.
  const audio::Waveform w = Tone(192000, 40000.0, 0.1);
  const audio::Waveform down = Resample(w, 16000);
  EXPECT_LT(ToneRms(down, 200), 0.01);
}

TEST(Resample, UpsamplingAddsNoImages) {
  const audio::Waveform w = Tone(16000, 1000.0, 0.2);
  const audio::Waveform up = Resample(w, 192000);
  EXPECT_NEAR(ToneRms(up, 2000), 1.0 / std::sqrt(2.0), 0.02);
}

TEST(Resample, EmptyInput) {
  audio::Waveform w(16000, std::size_t{0});
  const audio::Waveform r = Resample(w, 48000);
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(r.sample_rate(), 48000);
}

TEST(Resample, RejectsBadRates) {
  const audio::Waveform w = Tone(16000, 440.0, 0.05);
  EXPECT_THROW(Resample(w, 0), nec::CheckError);
  EXPECT_THROW(Resample(w, -8000), nec::CheckError);
}

// ------------------------------------------------ bit-identity vs oracle

// The direct per-output polyphase loop the phase-major kernel replaced,
// kept as the oracle: for each output, one tap at a time in ascending tap
// order with an integer division per tap and bounds tests in the loop.
audio::Waveform OracleResample(const audio::Waveform& input, int target_rate,
                               std::size_t taps_per_phase = 24) {
  if (input.sample_rate() == target_rate) return input;
  audio::Waveform out;
  if (input.empty()) {
    out.AssignSilence(target_rate, 0);
    return out;
  }
  const int src = input.sample_rate();
  const int g = std::gcd(src, target_rate);
  const std::size_t L = static_cast<std::size_t>(target_rate / g);
  const std::size_t M = static_cast<std::size_t>(src / g);
  std::size_t num_taps = taps_per_phase * std::max(L, M);
  if (num_taps % 2 == 0) ++num_taps;
  const std::vector<float> taps =
      DesignFirLowPass(num_taps, 0.45 * std::min(src, target_rate),
                       static_cast<double>(src) * L);

  const std::size_t out_len = (input.size() * L + M - 1) / M;
  out.AssignSilence(target_rate, out_len);
  const auto x = input.samples();
  const auto delay = static_cast<std::ptrdiff_t>(taps.size() / 2);
  const float gain = static_cast<float>(L);
  for (std::size_t n = 0; n < out_len; ++n) {
    const std::ptrdiff_t u = static_cast<std::ptrdiff_t>(n * M) + delay;
    const std::size_t phase = static_cast<std::size_t>(u % L);
    double acc = 0.0;
    for (std::size_t j = phase; j < taps.size(); j += L) {
      const std::ptrdiff_t k = (u - static_cast<std::ptrdiff_t>(j)) /
                               static_cast<std::ptrdiff_t>(L);
      if (k < 0) break;
      if (k >= static_cast<std::ptrdiff_t>(x.size())) continue;
      acc += static_cast<double>(taps[j]) * x[static_cast<std::size_t>(k)];
    }
    out[n] = gain * static_cast<float>(acc);
  }
  return out;
}

audio::Waveform Noise(int rate, std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  audio::Waveform w(rate, n);
  for (std::size_t i = 0; i < n; ++i) w[i] = dist(rng);
  return w;
}

bool SameBits(const audio::Waveform& a, const audio::Waveform& b) {
  return a.sample_rate() == b.sample_rate() && a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.samples().data(), b.samples().data(),
                      a.size() * sizeof(float)) == 0);
}

class ResampleOracleTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ResampleOracleTest, KernelMatchesDirectLoopBitForBit) {
  const auto [src, dst] = GetParam();
  // One filter span in input samples: the FIR covers taps_per_phase * max
  // (L, M) upsampled samples, i.e. 24 * max(L, M) / L input samples.
  const int g = std::gcd(src, dst);
  const std::size_t L = static_cast<std::size_t>(dst / g);
  const std::size_t M = static_cast<std::size_t>(src / g);
  const std::size_t span = 24 * std::max(L, M) / L;
  const std::size_t chunk = static_cast<std::size_t>(src);  // one 1 s chunk
  ResamplerPlan plan;  // one warm plan across lengths, as a stream uses it
  audio::Waveform into;
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                        std::size_t{7}, span / 2, span - 1, span + 3, chunk,
                        chunk / 3 + 1}) {
    const audio::Waveform w = Noise(src, n, static_cast<std::uint32_t>(n));
    const audio::Waveform want = OracleResample(w, dst);
    EXPECT_TRUE(SameBits(Resample(w, dst), want))
        << src << " -> " << dst << " length " << n;
    ResampleInto(w, dst, plan, into);
    EXPECT_TRUE(SameBits(into, want))
        << src << " -> " << dst << " length " << n << " (warm plan)";
  }
}

TEST(ResampleOracle, OtherTapCountsMatchDirectLoop) {
  for (std::size_t tpp : {std::size_t{1}, std::size_t{4}, std::size_t{9}}) {
    const audio::Waveform w = Noise(16000, 777, 5);
    EXPECT_TRUE(SameBits(Resample(w, 192000, tpp),
                         OracleResample(w, 192000, tpp)))
        << "taps_per_phase " << tpp;
    const audio::Waveform v = Noise(48000, 777, 6);
    EXPECT_TRUE(SameBits(Resample(v, 16000, tpp),
                         OracleResample(v, 16000, tpp)))
        << "taps_per_phase " << tpp;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rates, ResampleOracleTest,
    ::testing::Values(std::pair{16000, 192000}, std::pair{192000, 16000},
                      std::pair{16000, 44100}, std::pair{44100, 16000},
                      std::pair{16000, 48000}));

}  // namespace
}  // namespace nec::dsp
