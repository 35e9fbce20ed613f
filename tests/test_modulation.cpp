// Tests for ultrasonic AM modulation (Eq. 7/9): carrier placement,
// inaudibility, and ideal-demodulation round trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <random>
#include <vector>

#include "channel/modulation.h"
#include "common/check.h"
#include "dsp/fft.h"

namespace nec::channel {
namespace {

audio::Waveform Tone(int rate, double f, double seconds) {
  audio::Waveform w(rate, static_cast<std::size_t>(rate * seconds));
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = static_cast<float>(
        0.5 * std::sin(2.0 * std::numbers::pi * f * i / rate));
  }
  return w;
}

// Energy of `w` inside [lo, hi) Hz via one big FFT.
double BandEnergy(const audio::Waveform& w, double lo, double hi) {
  const std::size_t nfft = dsp::NextPowerOfTwo(w.size());
  const auto half = dsp::RealFft(w.samples(), nfft);
  double acc = 0.0;
  for (std::size_t i = 0; i < half.size(); ++i) {
    const double f = i * static_cast<double>(w.sample_rate()) / nfft;
    if (f >= lo && f < hi) acc += std::norm(std::complex<double>(half[i]));
  }
  return acc;
}

TEST(Modulation, OutputAtAirRate) {
  const auto mod = ModulateAm(Tone(16000, 500.0, 0.2), {});
  EXPECT_EQ(mod.sample_rate(), kAirSampleRate);
  EXPECT_NEAR(static_cast<double>(mod.size()), 0.2 * kAirSampleRate, 64.0);
}

TEST(Modulation, EnergyConcentratedAroundCarrier) {
  ModulationConfig cfg{.carrier_hz = 27000.0, .alpha = 1.0};
  const auto mod = ModulateAm(Tone(16000, 1000.0, 0.25), cfg);
  const double near_carrier = BandEnergy(mod, 25000.0, 29000.0);
  const double audible = BandEnergy(mod, 0.0, 16000.0);
  EXPECT_GT(near_carrier, 100.0 * audible);
}

TEST(Modulation, IsInaudible) {
  // No more than a sliver of energy below 20 kHz → humans hear nothing.
  ModulationConfig cfg{.carrier_hz = 25000.0};
  const auto mod = ModulateAm(Tone(16000, 2000.0, 0.25), cfg);
  const double audible = BandEnergy(mod, 20.0, 20000.0);
  const double total = BandEnergy(mod, 20.0, 96000.0);
  EXPECT_LT(audible / total, 1e-3);
}

TEST(Modulation, PeakRespected) {
  ModulationConfig cfg{.carrier_hz = 27000.0, .peak = 0.8};
  const auto mod = ModulateAm(Tone(16000, 700.0, 0.2), cfg);
  EXPECT_LE(mod.Peak(), 0.82f);
  EXPECT_GT(mod.Peak(), 0.5f);
}

TEST(Modulation, SidebandsAtCarrierPlusMinusTone) {
  ModulationConfig cfg{.carrier_hz = 27000.0, .alpha = 1.0};
  const auto mod = ModulateAm(Tone(16000, 1500.0, 0.5), cfg);
  // DSB-AM: carrier at 27 kHz, sidebands at 25.5 and 28.5 kHz.
  const double side_lo = BandEnergy(mod, 25300.0, 25700.0);
  const double side_hi = BandEnergy(mod, 28300.0, 28700.0);
  const double gap = BandEnergy(mod, 26100.0, 26700.0);
  EXPECT_GT(side_lo, 10.0 * gap);
  EXPECT_GT(side_hi, 10.0 * gap);
}

TEST(Modulation, RejectsAudibleCarrier) {
  EXPECT_THROW(ModulateAm(Tone(16000, 500.0, 0.1), {.carrier_hz = 15000.0}),
               nec::CheckError);
}

TEST(Modulation, RejectsCarrierAboveSupportedBand) {
  EXPECT_THROW(
      ModulateAm(Tone(16000, 500.0, 0.1), {.carrier_hz = 90000.0}),
      nec::CheckError);
}

TEST(Modulation, RejectsNonPositiveAlpha) {
  EXPECT_THROW(
      ModulateAm(Tone(16000, 500.0, 0.1),
                 {.carrier_hz = 27000.0, .alpha = 0.0}),
      nec::CheckError);
}

class DemodRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(DemodRoundTrip, CoherentDemodRecoversTone) {
  const double carrier = GetParam();
  const double tone_hz = 800.0;
  ModulationConfig cfg{.carrier_hz = carrier, .alpha = 1.0};
  const auto mod = ModulateAm(Tone(16000, tone_hz, 0.5), cfg);
  const auto demod = DemodulateAm(mod, carrier, 16000);
  // The demodulated signal contains the tone (plus DC from the carrier
  // offset); check the tone band dominates other non-DC content.
  const double tone_band = BandEnergy(demod, 700.0, 900.0);
  const double rest = BandEnergy(demod, 1200.0, 7000.0);
  EXPECT_GT(tone_band, 20.0 * rest);
}

INSTANTIATE_TEST_SUITE_P(Carriers, DemodRoundTrip,
                         ::testing::Values(24000.0, 27000.0, 30000.0));

TEST(Modulation, StreamedChunksMatchWholeUtteranceWithReferencePeak) {
  // THE streamed-gain regression (satellite of the hot-path PR): chunked
  // modulation with one shared reference_peak must reproduce the
  // whole-utterance result. Legacy per-chunk peak normalization re-scaled
  // every chunk by its own loudness, so a quiet second was emitted as loud
  // as a shouted one. Two 1 s halves at 5:1 amplitude expose that
  // immediately.
  const int rate = 16000;
  audio::Waveform whole(rate, static_cast<std::size_t>(2 * rate));
  for (std::size_t i = 0; i < whole.size(); ++i) {
    const double amp = i < static_cast<std::size_t>(rate) ? 0.5 : 0.1;
    whole[i] = static_cast<float>(
        amp * std::sin(2.0 * std::numbers::pi * 600.0 * i / rate));
  }
  // Integer carrier Hz x integer chunk seconds → the carrier phase at each
  // chunk boundary is a whole number of cycles, so per-chunk cos(w i)
  // restarts in phase with the whole-utterance carrier.
  ModulationConfig cfg{.carrier_hz = 24000.0};
  cfg.reference_peak = 0.5;

  const auto mod_whole = ModulateAm(whole, cfg);
  auto mod_chunked = ModulateAm(whole.Slice(0, rate), cfg);
  mod_chunked.Append(ModulateAm(whole.Slice(rate, rate), cfg));
  ASSERT_EQ(mod_chunked.size(), mod_whole.size());

  // Identical except for resampler edge transients at the chunk seam;
  // compare RMS of the difference over the interior of each chunk.
  const std::size_t guard = 2048;  // air-rate samples around each boundary
  double diff2 = 0.0, sig2 = 0.0;
  std::size_t counted = 0;
  for (std::size_t i = guard; i + guard < mod_whole.size(); ++i) {
    const std::size_t chunk_pos = i % (mod_whole.size() / 2);
    if (chunk_pos < guard || chunk_pos + guard > mod_whole.size() / 2) {
      continue;
    }
    const double d = mod_chunked[i] - mod_whole[i];
    diff2 += d * d;
    sig2 += static_cast<double>(mod_whole[i]) * mod_whole[i];
    ++counted;
  }
  ASSERT_GT(counted, mod_whole.size() / 2);
  EXPECT_LT(std::sqrt(diff2 / counted), 1e-3 * std::sqrt(sig2 / counted));
}

TEST(Modulation, PerChunkNormalizationBugIsGone) {
  // Direct witness of the old bug: under legacy normalization a 5x quieter
  // chunk modulates to the SAME sideband power as the loud one; with a
  // shared reference the emitted power tracks the content.
  const auto loud = Tone(16000, 800.0, 0.25);  // peak 0.5
  auto quiet = loud;
  quiet.Scale(0.2f);

  ModulationConfig legacy{.carrier_hz = 27000.0};
  const double legacy_ratio =
      BandEnergy(ModulateAm(quiet, legacy), 25000.0, 29000.0) /
      BandEnergy(ModulateAm(loud, legacy), 25000.0, 29000.0);
  EXPECT_NEAR(legacy_ratio, 1.0, 0.05);  // the bug: loudness erased

  ModulationConfig fixed{.carrier_hz = 27000.0};
  fixed.reference_peak = 0.5;
  const auto fixed_loud = ModulateAm(loud, fixed);
  const auto fixed_quiet = ModulateAm(quiet, fixed);
  // Sideband (content) energy must scale ~(0.2)^2; total energy is
  // carrier-dominated so compare after removing the carrier line.
  const double side_loud =
      BandEnergy(fixed_loud, 26100.0, 26900.0) +
      BandEnergy(fixed_loud, 27100.0, 27900.0);
  const double side_quiet =
      BandEnergy(fixed_quiet, 26100.0, 26900.0) +
      BandEnergy(fixed_quiet, 27100.0, 27900.0);
  // ~(0.2)^2 = 0.04, with slack for carrier spectral leakage into the
  // sideband bands; the legacy ratio above pinned at 1.0 either way.
  EXPECT_LT(side_quiet / side_loud, 0.08);
  EXPECT_GT(side_quiet / side_loud, 0.01);
}

TEST(Modulation, ReferencePeakClampsHotterChunks) {
  // A chunk louder than the stream reference clamps its envelope to the
  // |m| <= 1 modulation-index invariant rather than exceeding it.
  ModulationConfig cfg{.carrier_hz = 27000.0, .peak = 0.9};
  cfg.reference_peak = 0.1;  // 5x below the tone's 0.5 peak
  const auto mod = ModulateAm(Tone(16000, 700.0, 0.2), cfg);
  EXPECT_LE(mod.Peak(), 0.92f);  // (1 + alpha) * peak / (1 + alpha) = peak
  EXPECT_GT(mod.Peak(), 0.5f);
}

TEST(Demodulation, RejectsRateThatClipsUpperSideband) {
  // 64 kHz carries a 27 kHz carrier (old guard: 64k > 2*27k passed) but
  // NOT its upper sideband at 27 + 8 kHz = 35 kHz > Nyquist (32 kHz); the
  // tightened guard must refuse instead of aliasing the sideband back
  // into the recovered audio.
  audio::Waveform passband(64000, std::size_t{6400});
  EXPECT_THROW(DemodulateAm(passband, 27000.0, 16000), nec::CheckError);
}

TEST(Demodulation, AcceptsRateCoveringCarrierPlusBandwidth) {
  audio::Waveform passband(96000, std::size_t{9600});
  // 2*(27000 + 8000) = 70 kHz < 96 kHz: legal, must not throw.
  const auto out = DemodulateAm(passband, 27000.0, 16000);
  EXPECT_EQ(out.sample_rate(), 16000);
}

TEST(Modulation, EnvelopeIsNonNegativeAtUnitAlpha) {
  // With |m| <= 1 and alpha = 1 the AM envelope (m + 1) never crosses
  // zero — the condition for distortion-free square-law demodulation.
  ModulationConfig cfg{.carrier_hz = 27000.0, .alpha = 1.0};
  const auto base = Tone(16000, 440.0, 0.1);
  const auto mod = ModulateAm(base, cfg);
  // Envelope check: local maxima of |mod| should never be (near) zero for
  // a full carrier cycle region; approximate via max over carrier periods.
  const std::size_t period =
      static_cast<std::size_t>(kAirSampleRate / cfg.carrier_hz);
  for (std::size_t start = 10 * period; start + period < mod.size() / 2;
       start += period) {
    float peak = 0.0f;
    for (std::size_t i = start; i < start + period; ++i) {
      peak = std::max(peak, std::abs(mod[i]));
    }
    EXPECT_GT(peak, 0.0f);
  }
}

// ------------------------------------------------ bit-identity vs oracle

// The modulator as it was before the carrier table: the same envelope
// steps, with std::cos evaluated per sample. Kept as the oracle.
audio::Waveform OracleModulateAm(const audio::Waveform& baseband,
                                 const ModulationConfig& config) {
  audio::Waveform out = dsp::Resample(baseband, config.air_sample_rate);
  if (config.reference_peak > 0.0) {
    const float scale = static_cast<float>(1.0 / config.reference_peak);
    for (float& s : out.samples()) s = std::clamp(s * scale, -1.0f, 1.0f);
  } else {
    const float peak = out.Peak();
    if (peak > 0.0f) out.Scale(1.0f / peak);
  }
  const double w = 2.0 * std::numbers::pi * config.carrier_hz /
                   config.air_sample_rate;
  const double norm = config.peak / (1.0 + config.alpha);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double carrier = std::cos(w * static_cast<double>(i));
    out[i] = static_cast<float>(
        (static_cast<double>(out[i]) + config.alpha) * carrier * norm);
  }
  return out;
}

audio::Waveform Noise(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-0.4f, 0.4f);
  audio::Waveform w(16000, n);
  for (std::size_t i = 0; i < n; ++i) w[i] = dist(rng);
  return w;
}

bool SameBits(const audio::Waveform& a, const audio::Waveform& b) {
  return a.sample_rate() == b.sample_rate() && a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.samples().data(), b.samples().data(),
                      a.size() * sizeof(float)) == 0);
}

class ModulationOracleTest : public ::testing::TestWithParam<double> {};

TEST_P(ModulationOracleTest, CarrierTableMatchesPerSampleCosBitForBit) {
  const std::size_t chunk = 16000;  // one 1 s streaming chunk
  // Lengths 0, 1, 5, 7 and one shorter than the resampler's filter span
  // come first, so the shared table also grows mid-sequence; the shorter
  // flush-tail chunk after the full one reads a prefix of the grown table.
  const std::vector<std::size_t> lengths = {0, 1, 5, 7, 20, chunk, 6123};
  for (const double ref : {0.0, 0.3}) {
    ModulationConfig cfg{.carrier_hz = GetParam()};
    cfg.reference_peak = ref;
    dsp::ResamplerPlan plan;  // one stream's warm plan
    audio::Waveform into;
    for (std::size_t n : lengths) {
      const audio::Waveform base = Noise(n, static_cast<std::uint32_t>(n));
      const audio::Waveform want = OracleModulateAm(base, cfg);
      ModulateAmInto(base, cfg, plan, into);
      EXPECT_TRUE(SameBits(into, want))
          << cfg.carrier_hz << " Hz, reference_peak " << ref << ", length "
          << n;
      EXPECT_TRUE(SameBits(ModulateAm(base, cfg), want))
          << cfg.carrier_hz << " Hz, reference_peak " << ref << ", length "
          << n << " (plan-free)";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Carriers, ModulationOracleTest,
                         ::testing::Values(24000.0, 27000.0, 30000.0));

TEST(Modulation, CarrierTableIsSharedAcrossStreams) {
  // Eight streams on a carrier no other test uses add one table, sized to
  // the longest chunk, not one table per stream.
  const std::size_t before = CarrierCacheBytes();
  ModulationConfig cfg{.carrier_hz = 25500.0};
  cfg.reference_peak = 0.5;
  const audio::Waveform chunk = Noise(16000, 9);
  for (int stream = 0; stream < 8; ++stream) {
    dsp::ResamplerPlan plan;
    audio::Waveform out;
    ModulateAmInto(chunk, cfg, plan, out);
    ModulateAmInto(chunk.Slice(0, 4000), cfg, plan, out);
  }
  EXPECT_EQ(CarrierCacheBytes() - before, 16000u * 12u * sizeof(double));
}

}  // namespace
}  // namespace nec::channel
