#include "checks.h"

#include <atomic>
#include <cmath>
#include <mutex>
#include <numbers>
#include <thread>

#include "common/check.h"
#include "core/pipeline.h"
#include "core/streaming.h"
#include "synth/dataset.h"

namespace servebench {

void ParallelFor(std::size_t n, std::size_t threads,
                 const std::function<void(std::size_t)>& fn) {
  threads = std::max<std::size_t>(1, std::min(threads, n));
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

StreamPool MakePool(std::uint64_t seed, std::uint64_t role, std::size_t count,
                    std::size_t chunks, std::size_t threads) {
  StreamPool pool;
  pool.chunks = chunks;
  pool.speaker_seeds.resize(count);
  pool.streams.resize(count);
  const nec::synth::DatasetBuilder builder(
      {.duration_s = static_cast<double>(chunks * kChunkSamples) /
                     kInputRate});
  ParallelFor(count, threads, [&](std::size_t i) {
    pool.speaker_seeds[i] = Mix(seed, role, 2 * i);
    auto instance = builder.MakeInstance(
        nec::synth::SpeakerProfile::FromSeed(pool.speaker_seeds[i]),
        nec::synth::Scenario::kBabble, Mix(seed, role, 2 * i + 1));
    pool.streams[i] = std::move(instance.mixed.data());
    pool.streams[i].resize(chunks * kChunkSamples, 0.0f);
  });
  return pool;
}

SessionSpec MakeSession(std::uint64_t seed, std::uint64_t role,
                        std::size_t index, const StreamPool& pool) {
  SessionSpec s;
  s.stream = index % pool.streams.size();
  s.speaker_seed = pool.speaker_seeds[s.stream];
  s.ref_seed = Mix(seed, role + 1000, index);
  return s;
}

std::vector<nec::audio::Waveform> EnrollmentRefs(const SessionSpec& s) {
  // NetServer::Options defaults: 3 clips of 3 s from a default builder.
  const nec::synth::DatasetBuilder builder({.duration_s = 3.0});
  return builder.MakeReferenceAudios(
      nec::synth::SpeakerProfile::FromSeed(s.speaker_seed), 3, s.ref_seed);
}

RealSpectrum::RealSpectrum(std::size_t n) : n_(n), m_(n / 2) {
  NEC_CHECK(n >= 4 && (n & (n - 1)) == 0);
  std::size_t bits = 0;
  while ((std::size_t{1} << bits) < m_) ++bits;
  rev_.resize(m_);
  for (std::size_t i = 0; i < m_; ++i) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < bits; ++b) r |= ((i >> b) & 1) << (bits - 1 - b);
    rev_[i] = r;
  }
  // Twiddles of every radix-2 stage, one contiguous run per stage.
  for (std::size_t len = 2; len <= m_; len <<= 1) {
    for (std::size_t k = 0; k < len / 2; ++k) {
      tw_m_.push_back(
          std::polar(1.0, -2.0 * std::numbers::pi * double(k) / double(len)));
    }
  }
  tw_n_.resize(m_ + 1);
  for (std::size_t k = 0; k <= m_; ++k) {
    tw_n_[k] = std::polar(1.0, -2.0 * std::numbers::pi * double(k) / double(n_));
  }
  z_.resize(m_);
  power_.resize(m_ + 1);
}

const std::vector<double>& RealSpectrum::Power(const float* x,
                                               std::size_t len) {
  NEC_CHECK(len <= n_);
  // Pack x[2j] + i x[2j+1], bit-reversed, then iterate radix-2 stages.
  for (std::size_t j = 0; j < m_; ++j) {
    const double re = 2 * j < len ? x[2 * j] : 0.0;
    const double im = 2 * j + 1 < len ? x[2 * j + 1] : 0.0;
    z_[rev_[j]] = {re, im};
  }
  const std::complex<double>* w = tw_m_.data();
  for (std::size_t len = 2; len <= m_; len <<= 1) {
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < m_; i += len) {
      std::complex<double>* a = &z_[i];
      std::complex<double>* b = &z_[i + half];
      for (std::size_t k = 0; k < half; ++k) {
        // Written out: std::complex's operator* keeps a NaN-recovery path
        // that stops the loop from vectorizing.
        const double vr = b[k].real() * w[k].real() - b[k].imag() * w[k].imag();
        const double vi = b[k].real() * w[k].imag() + b[k].imag() * w[k].real();
        const double ar = a[k].real(), ai = a[k].imag();
        a[k] = {ar + vr, ai + vi};
        b[k] = {ar - vr, ai - vi};
      }
    }
    w += half;
  }
  // Unpack the even/odd halves into the real input's spectrum.
  for (std::size_t k = 0; k <= m_; ++k) {
    const std::complex<double> zk = z_[k % m_];
    const std::complex<double> zc = std::conj(z_[(m_ - k) % m_]);
    const std::complex<double> even = 0.5 * (zk + zc);
    const std::complex<double> odd =
        std::complex<double>(0.0, -0.5) * (zk - zc);
    power_[k] = std::norm(even + tw_n_[k] * odd);
  }
  return power_;
}

ChunkProperties CheckChunk(const float* b, std::size_t n, RealSpectrum& fft) {
  ChunkProperties p;
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(b[i]) || std::fabs(b[i]) > kPeak) p.bounded = false;
  }
  const std::vector<double>& power = fft.Power(b, n);
  const double bin_hz = double(kAirRate) / double(fft.size());
  const std::size_t last = power.size() - 1;
  double total = 0, in_band = 0, audible = 0;
  for (std::size_t k = 0; k <= last; ++k) {
    const double e = (k == 0 || k == last) ? power[k] : 2.0 * power[k];
    const double hz = double(k) * bin_hz;
    total += e;
    if (std::fabs(hz - kCarrierHz) <= kBasebandHz) in_band += e;
    if (hz < 20000.0) audible += e;
  }
  if (total > 0) {
    p.in_band_share = in_band / total;
    p.audible_share = audible / total;
  }
  return p;
}

Reference ComputeReference(const Model& model, const SessionSpec& s,
                           const StreamPool& pool, std::size_t chunks,
                           RealSpectrum& fft) {
  Reference ref;
  nec::core::NecPipeline pipeline(model.selector, model.encoder, {});
  pipeline.Enroll(EnrollmentRefs(s));
  nec::core::StreamingProcessor proc(pipeline, 1.0);
  for (std::size_t k = 0; k < chunks; ++k) {
    const auto out = proc.Push(pool.Chunk(s.stream, k));
    NEC_CHECK_MSG(out.has_value() && out->size() == kOutSamples,
                  "reference chunk " << k << " has the wrong length");
    ref.digests.push_back(DigestOf(out->samples().data(), out->size()));
    ref.properties.push_back(
        CheckChunk(out->samples().data(), out->size(), fft));
  }
  return ref;
}

CheckSummary VerifySessions(const Model& model,
                            const std::vector<SessionSpec>& specs,
                            const StreamPool& pool,
                            const std::vector<std::vector<Digest>>& served,
                            std::size_t threads, Accounting* acct) {
  std::mutex mu;
  CheckSummary summary;
  ParallelFor(specs.size(), threads, [&](std::size_t i) {
    thread_local RealSpectrum fft(std::size_t{1} << 18);
    const Reference ref =
        ComputeReference(model, specs[i], pool, served[i].size(), fft);
    std::uint64_t run = 0, failed = 0, bad_chunks = 0;
    CheckSummary local;
    for (std::size_t k = 0; k < served[i].size(); ++k) {
      const ChunkProperties& p = ref.properties[k];
      const int fails = int(!(served[i][k] == ref.digests[k])) +
                        int(!p.bounded) +
                        int(p.in_band_share < kMinInBandShare) +
                        int(p.audible_share > kMaxAudibleShare);
      run += 4;
      failed += fails;
      bad_chunks += fails > 0;
      local.min_in_band_share = std::min(local.min_in_band_share,
                                         p.in_band_share);
      local.max_audible_share = std::max(local.max_audible_share,
                                         p.audible_share);
    }
    std::lock_guard<std::mutex> lock(mu);
    acct->checks_run += run;
    acct->checks_failed += failed;
    acct->chunks_check_failed += bad_chunks;
    summary.min_in_band_share =
        std::min(summary.min_in_band_share, local.min_in_band_share);
    summary.max_audible_share =
        std::max(summary.max_audible_share, local.max_audible_share);
  });
  return summary;
}

}  // namespace servebench
