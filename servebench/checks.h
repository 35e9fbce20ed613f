// Inputs, references and output checks of the serving benchmark.
//
// Inputs are seeded: a pool of synthesized monitored streams (babble
// scenario, each spoken by its own speaker) and per-session enrollment
// seeds. The reference for a session is a fresh single-threaded
// core::StreamingProcessor run over the same chunks, enrolled the way a
// shard enrolls a wire session (MakeReferenceAudios, 3 clips of 3 s).
// Served chunks must match it bit for bit, and every reference chunk is
// checked against properties of AM broadcast with this file's own FFT,
// not nec::channel code.
#pragma once

#include <complex>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "audio/waveform.h"
#include "util.h"

namespace servebench {

inline constexpr int kInputRate = 16000;
inline constexpr std::size_t kChunkSamples = 16000;  // 1 s chunks
inline constexpr int kAirRate = 192000;
inline constexpr std::size_t kOutSamples = 192000;   // one chunk at 192 kHz

// Property thresholds (ModulationConfig defaults: 27 kHz carrier, 0.95
// peak; the 16 kHz monitor gives an 8 kHz baseband).
inline constexpr double kCarrierHz = 27000.0;
inline constexpr double kBasebandHz = kInputRate / 2.0;
inline constexpr float kPeak = 0.95f;
inline constexpr double kMinInBandShare = 0.99;
/// Inaudibility floor: share of a chunk's energy below 20 kHz (-30 dB).
inline constexpr double kMaxAudibleShare = 1e-3;

/// Runs fn(i) for i in [0, n) on up to `threads` threads.
void ParallelFor(std::size_t n, std::size_t threads,
                 const std::function<void(std::size_t)>& fn);

/// Enrollment and stream identity of one session.
struct SessionSpec {
  std::uint64_t speaker_seed = 0;
  std::uint64_t ref_seed = 0;
  std::size_t stream = 0;  ///< index into the StreamPool
};

/// Pre-synthesized monitored streams. A session's chunk k is chunk
/// (k mod chunks) of its stream, so a stream of any length replays.
struct StreamPool {
  std::size_t chunks = 0;  ///< per stream
  std::vector<std::uint64_t> speaker_seeds;
  std::vector<std::vector<float>> streams;

  std::span<const float> Chunk(std::size_t stream, std::size_t k) const {
    return {streams[stream].data() + (k % chunks) * kChunkSamples,
            kChunkSamples};
  }
};

/// `count` streams of `chunks` chunks, seeded by (seed, role).
StreamPool MakePool(std::uint64_t seed, std::uint64_t role, std::size_t count,
                    std::size_t chunks, std::size_t threads);

/// Session i of a population drawing on `pool`: spoken by its stream's
/// speaker, enrolled from its own reference clips.
SessionSpec MakeSession(std::uint64_t seed, std::uint64_t role,
                        std::size_t index, const StreamPool& pool);

/// The reference clips a shard synthesizes for kOpenSession.
std::vector<nec::audio::Waveform> EnrollmentRefs(const SessionSpec& s);

/// Power spectrum of real blocks by a radix-2 FFT (half-length complex
/// transform of the even/odd packing). One instance per thread.
class RealSpectrum {
 public:
  explicit RealSpectrum(std::size_t n);
  /// |X_k|^2 for k = 0..n/2 of x zero-padded to n.
  const std::vector<double>& Power(const float* x, std::size_t len);
  std::size_t size() const { return n_; }

 private:
  std::size_t n_, m_;
  std::vector<std::size_t> rev_;
  std::vector<std::complex<double>> tw_m_;  ///< per stage: exp(-2 pi i k / len)
  std::vector<std::complex<double>> tw_n_;  ///< exp(-2 pi i k / n)
  std::vector<std::complex<double>> z_;
  std::vector<double> power_;
};

/// Property results of one emitted chunk.
struct ChunkProperties {
  bool bounded = true;        ///< every sample finite and |b| <= peak
  double in_band_share = 0;   ///< energy within carrier +- baseband
  double audible_share = 0;   ///< energy below 20 kHz
};

ChunkProperties CheckChunk(const float* b, std::size_t n, RealSpectrum& fft);

/// Reference digests and property results for the first `chunks` chunks
/// of a session.
struct Reference {
  std::vector<Digest> digests;
  std::vector<ChunkProperties> properties;
};

Reference ComputeReference(const Model& model, const SessionSpec& s,
                           const StreamPool& pool, std::size_t chunks,
                           RealSpectrum& fft);

/// Compares served digests against references, session by session, and
/// books the checks (4 per chunk: bit-exact, bounded, in-band, inaudible).
/// Returns the worst property shares seen for the detail line.
struct CheckSummary {
  double min_in_band_share = 1.0;
  double max_audible_share = 0.0;
};
CheckSummary VerifySessions(const Model& model,
                            const std::vector<SessionSpec>& specs,
                            const StreamPool& pool,
                            const std::vector<std::vector<Digest>>& served,
                            std::size_t threads, Accounting* acct);

}  // namespace servebench
