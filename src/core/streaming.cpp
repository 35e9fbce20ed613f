#include "core/streaming.h"

#include <algorithm>
#include <chrono>

#include "channel/modulation.h"
#include "common/check.h"
#include "obs/trace.h"

namespace nec::core {
namespace {

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

StreamingProcessor::StreamingProcessor(const NecPipeline& pipeline,
                                       double chunk_s,
                                       SelectorKind kind)
    : pipeline_(pipeline),
      kind_(kind),
      chunk_samples_(static_cast<std::size_t>(
          chunk_s * pipeline.config().sample_rate)),
      buffer_(pipeline.config().sample_rate, std::size_t{0}) {
  NEC_CHECK_MSG(chunk_samples_ >= pipeline.config().stft.win_length,
                "chunk shorter than one analysis window");
}

void StreamingProcessor::ProcessChunkInto(const audio::Waveform& chunk,
                                          audio::Waveform& out) {
  NEC_TRACE_SPAN("stream.process_chunk");
  const auto t0 = std::chrono::steady_clock::now();
  pipeline_.GenerateShadowInto(chunk, kind_, scratch_, shadow_wave_);
  CompleteShadowChunkInto(shadow_wave_, MsSince(t0), out);
}

audio::Waveform StreamingProcessor::ProcessChunk(audio::Waveform chunk) {
  audio::Waveform out;
  ProcessChunkInto(chunk, out);
  return out;
}

void StreamingProcessor::CompleteShadowChunkInto(
    const audio::Waveform& shadow, double selector_ms,
    audio::Waveform& out) {
  timings_.selector_ms += selector_ms;

  const auto t1 = std::chrono::steady_clock::now();
  channel::ModulationConfig mod = pipeline_.options().modulation;
  if (mod.reference_peak <= 0.0) {
    // No explicit stream reference configured: latch one from the first
    // non-silent shadow so every later chunk is modulated with the same
    // gain. The latch is a pure function of the chunk sequence, so
    // concurrent runtime sessions replaying the same stream stay
    // bit-identical to a sequential processor.
    if (mod_reference_peak_ <= 0.0) {
      const float peak = shadow.Peak();
      if (peak > 0.0f) mod_reference_peak_ = peak;
    }
    if (mod_reference_peak_ > 0.0) mod.reference_peak = mod_reference_peak_;
  }
  {
    NEC_TRACE_SPAN("channel.modulate_am");
    channel::ModulateAmInto(shadow, mod, resample_plan_, out);
  }
  timings_.broadcast_ms += MsSince(t1);
  ++timings_.chunks;
}

audio::Waveform StreamingProcessor::CompleteShadowChunk(
    audio::Waveform shadow, double selector_ms) {
  audio::Waveform out;
  CompleteShadowChunkInto(shadow, selector_ms, out);
  return out;
}

void StreamingProcessor::BufferSamples(std::span<const float> samples) {
  buffer_.data().insert(buffer_.data().end(), samples.begin(),
                        samples.end());
}

void StreamingProcessor::PopChunkInto(audio::Waveform& chunk) {
  NEC_CHECK_MSG(HasFullChunk(), "PopChunkInto without a full buffered chunk");
  chunk.AssignSilence(buffer_.sample_rate(), chunk_samples_);
  std::copy(buffer_.data().begin(),
            buffer_.data().begin() +
                static_cast<std::ptrdiff_t>(chunk_samples_),
            chunk.data().begin());
  buffer_.data().erase(
      buffer_.data().begin(),
      buffer_.data().begin() + static_cast<std::ptrdiff_t>(chunk_samples_));
}

std::optional<audio::Waveform> StreamingProcessor::Push(
    std::span<const float> samples) {
  buffer_.data().insert(buffer_.data().end(), samples.begin(),
                        samples.end());
  if (buffer_.size() < chunk_samples_) return std::nullopt;

  // Drain every complete chunk (a single Push may deliver several) and
  // concatenate their modulated output in stream order. Chunks are read at
  // an advancing offset into reused scratch buffers and the consumed
  // prefix is erased once afterwards; only the returned concatenation
  // allocates (the per-chunk pipeline runs through the Into path).
  audio::Waveform out;
  std::size_t pos = 0;
  while (buffer_.size() - pos >= chunk_samples_) {
    chunk_wave_.AssignSilence(buffer_.sample_rate(), chunk_samples_);
    std::copy(buffer_.data().begin() + static_cast<std::ptrdiff_t>(pos),
              buffer_.data().begin() +
                  static_cast<std::ptrdiff_t>(pos + chunk_samples_),
              chunk_wave_.data().begin());
    ProcessChunkInto(chunk_wave_, modulated_wave_);
    out.Append(modulated_wave_);
    pos += chunk_samples_;
  }
  buffer_.data().erase(
      buffer_.data().begin(),
      buffer_.data().begin() + static_cast<std::ptrdiff_t>(pos));
  return out;
}

void StreamingProcessor::Reset() {
  buffer_ = audio::Waveform(pipeline_.config().sample_rate, std::size_t{0});
  mod_reference_peak_ = 0.0;
}

void StreamingProcessor::RestoreStreamState(std::span<const float> tail,
                                            double reference_peak) {
  NEC_CHECK_MSG(buffer_.empty() && mod_reference_peak_ == 0.0,
                "RestoreStreamState on a non-fresh processor");
  buffer_.data().assign(tail.begin(), tail.end());
  mod_reference_peak_ = reference_peak;
}

std::optional<audio::Waveform> StreamingProcessor::Flush() {
  if (buffer_.empty()) return std::nullopt;
  audio::Waveform chunk = buffer_.Slice(0, chunk_samples_);  // zero-padded
  buffer_ = audio::Waveform(pipeline_.config().sample_rate, std::size_t{0});
  return ProcessChunk(std::move(chunk));
}

}  // namespace nec::core
