// Runtime throughput: chunks/sec vs. worker count with HONEST deadline
// accounting, plus the steady-state allocation audit.
//
// The single-threaded deployment loop (Table II) bounds ONE stream; this
// harness measures how far the nec::runtime session strands scale that
// over a pool. The workload is replayed offline — submitted as fast as the
// queues accept it — which is right for chunks/sec and speedup (the
// machine is saturated) and WRONG for latency: end-to-end latency then
// measures the replay backlog, which no deployment ever sees. Rows still
// report e2e numbers, honestly labeled; paced serving latency is the
// serving benchmark's job (servebench/).
//
// Every row also carries a bit-exactness audit: parallel output must
// equal the sequential StreamingProcessor result sample-for-sample.
//
// The selector is a fixed-seed untrained Fast() model: weight values do
// not change the arithmetic cost, and keeping the bench hermetic avoids a
// training dependency. Scaling is compute-bound, so multi-worker rows are
// only meaningful on a machine with as many cores as workers — each row
// records `workers`, and the file records hardware_concurrency, so a
// reader (and tools/check.sh) can tell a 1-core row from a 4-core row.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "alloc_hook.h"
#include "bench_json.h"
#include "bench_support.h"
#include "core/selector.h"
#include "core/streaming.h"
#include "encoder/encoder.h"
#include "runtime/session_manager.h"
#include "synth/dataset.h"

namespace nec::bench {
namespace {

constexpr double kChunkSeconds = 1.0;
constexpr double kDeadlineMs = 300.0;

/// Full run: 8 sessions x 6 s, worker sweep 1/2/4/8. Smoke mode
/// ($NEC_BENCH_SMOKE) shrinks to 2 x 2 s with workers 1/2 — enough to
/// exercise the wiring and emit well-formed JSON in a few seconds.
struct BenchParams {
  std::size_t sessions = 8;
  double stream_seconds = 6.0;
  std::vector<std::size_t> worker_sweep = {1, 2, 4, 8};

  static BenchParams Get() {
    if (!BenchSmokeMode()) return {};
    return {.sessions = 2, .stream_seconds = 2.0, .worker_sweep = {1, 2}};
  }
};

struct Workload {
  std::shared_ptr<const core::Selector> selector;
  std::shared_ptr<const encoder::SpeakerEncoder> encoder;
  std::vector<synth::SpeakerProfile> speakers;
  std::vector<std::vector<audio::Waveform>> references;
  std::vector<audio::Waveform> streams;
};

Workload MakeWorkload(const BenchParams& p) {
  Workload w;
  const core::NecConfig cfg = core::NecConfig::Fast();
  w.selector = std::make_shared<const core::Selector>(cfg, /*init_seed=*/29);
  w.encoder = std::make_shared<encoder::LasEncoder>(cfg.embedding_dim);
  synth::DatasetBuilder stream_builder({.duration_s = p.stream_seconds});
  synth::DatasetBuilder enroll_builder({.duration_s = 3.0});
  for (std::size_t i = 0; i < p.sessions; ++i) {
    w.speakers.push_back(synth::SpeakerProfile::FromSeed(300 + i));
    w.references.push_back(
        enroll_builder.MakeReferenceAudios(w.speakers[i], 3, 600 + i));
    w.streams.push_back(
        stream_builder
            .MakeInstance(w.speakers[i], synth::Scenario::kBabble, 900 + i)
            .mixed);
  }
  return w;
}

struct RunResult {
  double wall_s = 0.0;
  double chunks_per_sec = 0.0;
  double selector_ms_per_chunk = 0.0;  ///< per-session timing sum / chunks
  runtime::RuntimeStatsSnapshot stats;
  std::vector<audio::Waveform> outputs;
};

/// Replays the first `sessions` workload streams through a SessionManager
/// as fast as the queues accept them, in 4096-sample pieces interleaved
/// across sessions.
RunResult RunWith(const Workload& w, std::size_t workers,
                  std::size_t sessions) {
  runtime::SessionManager manager(w.selector, w.encoder, {},
                                  {.workers = workers,
                                   .queue_capacity = 1024,
                                   .chunk_s = kChunkSeconds,
                                   .kind = core::SelectorKind::kNeural,
                                   .deadline_ms = kDeadlineMs});
  std::vector<runtime::SessionManager::SessionId> ids;
  for (std::size_t i = 0; i < sessions; ++i) {
    ids.push_back(manager.CreateSession(w.references[i]));
  }

  const std::size_t piece = 4096;
  std::size_t longest = 0;
  for (std::size_t i = 0; i < sessions; ++i) {
    longest = std::max(longest, w.streams[i].size());
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t pos = 0; pos < longest; pos += piece) {
    for (std::size_t i = 0; i < sessions; ++i) {
      if (pos >= w.streams[i].size()) continue;
      const std::size_t n = std::min(piece, w.streams[i].size() - pos);
      manager.Submit(ids[i], w.streams[i].samples().subspan(pos, n));
    }
  }
  manager.Drain();

  RunResult r;
  for (std::size_t i = 0; i < sessions; ++i) {
    audio::Waveform out = manager.TakeOutput(ids[i]);
    if (auto tail = manager.Flush(ids[i])) out.Append(*tail);
    r.outputs.push_back(std::move(out));
  }
  r.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.stats = manager.Stats();
  r.chunks_per_sec =
      r.wall_s > 0.0
          ? static_cast<double>(r.stats.chunks_processed) / r.wall_s
          : 0.0;
  double selector_ms = 0.0;
  std::size_t chunks = 0;
  for (std::size_t i = 0; i < sessions; ++i) {
    const core::ModuleTimings t = manager.SessionTimings(ids[i]);
    selector_ms += t.selector_ms;
    chunks += t.chunks;
  }
  r.selector_ms_per_chunk =
      chunks ? selector_ms / static_cast<double>(chunks) : 0.0;
  return r;
}

struct SequentialResult {
  std::vector<audio::Waveform> outputs;
  double chunks_per_sec = 0.0;    ///< single-thread loop, all sessions
  double avg_selector_ms = 0.0;   ///< STFT + DNN + inverse STFT, per chunk
  double avg_broadcast_ms = 0.0;  ///< ultrasonic modulation, per chunk
};

/// Sequential reference: one StreamingProcessor per session, same weights.
/// Its per-module timings are the Table II-style single-thread hot-path
/// numbers the perf harness tracks across commits.
SequentialResult RunSequential(const Workload& w) {
  SequentialResult r;
  double selector_ms = 0.0, broadcast_ms = 0.0;
  std::size_t chunks = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < w.streams.size(); ++i) {
    core::NecPipeline pipeline(w.selector, w.encoder, {});
    pipeline.Enroll(w.references[i]);
    core::StreamingProcessor proc(pipeline, kChunkSeconds,
                                  core::SelectorKind::kNeural);
    audio::Waveform out;
    if (auto o = proc.Push(w.streams[i].samples())) out = std::move(*o);
    if (auto tail = proc.Flush()) out.Append(*tail);
    r.outputs.push_back(std::move(out));
    selector_ms += proc.timings().selector_ms;
    broadcast_ms += proc.timings().broadcast_ms;
    chunks += proc.timings().chunks;
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.chunks_per_sec =
      wall_s > 0.0 ? static_cast<double>(chunks) / wall_s : 0.0;
  r.avg_selector_ms = chunks ? selector_ms / static_cast<double>(chunks) : 0.0;
  r.avg_broadcast_ms =
      chunks ? broadcast_ms / static_cast<double>(chunks) : 0.0;
  return r;
}

/// Per-chunk heap allocations of one hot-path arm, measured with the
/// alloc_hook counters: warm up `warmup` chunks (buffers grow to
/// steady-state size), then count operator-new calls across `measured`
/// more. `per_chunk` runs one prepared chunk through the arm under test.
/// Single-threaded by construction — runs before any SessionManager
/// exists, so the relaxed counter is exact.
struct AllocArm {
  std::uint64_t total = 0;      ///< allocations across the measured window
  std::size_t chunks = 0;       ///< measured chunk count
  double per_chunk() const {
    return chunks ? static_cast<double>(total) / static_cast<double>(chunks)
                  : 0.0;
  }
};

template <typename PerChunk>
AllocArm MeasureAllocArm(const std::vector<audio::Waveform>& chunks,
                         std::size_t warmup, PerChunk&& per_chunk) {
  AllocArm arm;
  for (std::size_t c = 0; c < warmup && c < chunks.size(); ++c) {
    per_chunk(chunks[c]);
  }
  const std::uint64_t before = AllocCount();
  for (std::size_t c = warmup; c < chunks.size(); ++c) {
    per_chunk(chunks[c]);
    ++arm.chunks;
  }
  arm.total = AllocCount() - before;
  return arm;
}

bool BitExact(const std::vector<audio::Waveform>& a,
              const std::vector<audio::Waveform>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (std::size_t k = 0; k < a[i].size(); ++k) {
      if (a[i][k] != b[i][k]) return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace nec::bench

int main() {
  using namespace nec::bench;

  const BenchParams params = BenchParams::Get();
  const unsigned hw = std::thread::hardware_concurrency();
  PrintHeader("Runtime throughput: chunks/sec and p99 latency vs. workers");
  std::printf("%zu sessions x %.0f s streams, %.0f s chunks; "
              "hardware_concurrency=%u%s\n",
              params.sessions, params.stream_seconds, kChunkSeconds, hw,
              BenchSmokeMode() ? "  [SMOKE — not a baseline]" : "");

  const Workload w = MakeWorkload(params);
  const SequentialResult sequential = RunSequential(w);
  std::printf("sequential loop: %.2f chunks/sec; per chunk selector "
              "%.2f ms, broadcast %.2f ms\n",
              sequential.chunks_per_sec, sequential.avg_selector_ms,
              sequential.avg_broadcast_ms);

  // ---- Steady-state allocation audit (ISSUE 8). Two arms over identical
  // chunks on one thread, counted via the linked alloc_hook operator-new
  // replacements:
  //   before — the legacy value-returning chunk path (PopChunk →
  //            GenerateShadow → CompleteShadowChunk), which allocates its
  //            spectrogram, selector tensors, FIR taps, and result
  //            waveforms per chunk;
  //   after  — the Into/arena path the runtime strands actually run
  //            (PopChunkInto → ProcessChunkInto), which must perform ZERO
  //            heap allocations per chunk once warm. Asserted below; the
  //            bench exits nonzero on any steady-state allocation.
  bool alloc_ok = true;
  {
    constexpr std::size_t kWarmupChunks = 2;
    constexpr std::size_t kMeasuredChunks = 4;
    nec::core::NecPipeline pipeline(w.selector, w.encoder, {});
    pipeline.Enroll(w.references[0]);

    // Pre-slice the chunk sequence (wrapping over the stream) OUTSIDE the
    // counted window so feeding costs nothing.
    const std::size_t chunk_n = static_cast<std::size_t>(
        kChunkSeconds * w.streams[0].sample_rate());
    const std::size_t in_stream =
        std::max<std::size_t>(1, w.streams[0].size() / chunk_n);
    std::vector<nec::audio::Waveform> chunks;
    for (std::size_t c = 0; c < kWarmupChunks + kMeasuredChunks; ++c) {
      chunks.push_back(w.streams[0].Slice((c % in_stream) * chunk_n,
                                          chunk_n));
    }

    nec::core::StreamingProcessor legacy(pipeline, kChunkSeconds,
                                    nec::core::SelectorKind::kNeural);
    const AllocArm before_arm = MeasureAllocArm(
        chunks, kWarmupChunks, [&](const nec::audio::Waveform& chunk) {
          nec::audio::Waveform shadow = pipeline.GenerateShadow(
              chunk, nec::core::SelectorKind::kNeural,
              &legacy.stft_workspace());
          legacy.CompleteShadowChunk(std::move(shadow), 0.0);
        });

    nec::core::StreamingProcessor proc(pipeline, kChunkSeconds,
                                  nec::core::SelectorKind::kNeural);
    nec::audio::Waveform chunk_buf, mod_buf;
    const AllocArm after_arm = MeasureAllocArm(
        chunks, kWarmupChunks, [&](const nec::audio::Waveform& chunk) {
          proc.BufferSamples(chunk.samples());
          while (proc.HasFullChunk()) {
            proc.PopChunkInto(chunk_buf);
            proc.ProcessChunkInto(chunk_buf, mod_buf);
          }
        });

    alloc_ok = after_arm.total == 0;
    std::printf("\nsteady-state allocations per chunk (%zu warmup + %zu "
                "measured):\n  legacy value path: %8.1f  (%llu total)\n"
                "  arena/Into path:   %8.1f  (%llu total)  %s\n",
                kWarmupChunks, kMeasuredChunks, before_arm.per_chunk(),
                static_cast<unsigned long long>(before_arm.total),
                after_arm.per_chunk(),
                static_cast<unsigned long long>(after_arm.total),
                alloc_ok ? "[OK: zero-alloc]" : "[FAIL: expected 0]");

    JsonWriter ajson;
    ajson.Field("warmup_chunks", static_cast<double>(kWarmupChunks))
        .Field("measured_chunks", static_cast<double>(after_arm.chunks))
        .Field("smoke", BenchSmokeMode());
    ajson.BeginObject("before")
        .Field("path", "legacy value-returning chunk path")
        .Field("total_allocs", static_cast<double>(before_arm.total))
        .Field("allocs_per_chunk", before_arm.per_chunk())
        .EndObject();
    ajson.BeginObject("after")
        .Field("path", "Into/arena chunk path (runtime strands)")
        .Field("total_allocs", static_cast<double>(after_arm.total))
        .Field("allocs_per_chunk", after_arm.per_chunk())
        .EndObject();
    ajson.Field("zero_alloc_steady_state", alloc_ok);
    WriteJsonSection(BenchJsonPath(), "alloc", ajson.Finish());
    std::printf("wrote section alloc -> %s\n", BenchJsonPath().c_str());
  }

  std::printf("\noffline replay (throughput mode; e2e includes replay "
              "backlog, so deadline_met is false by construction):\n");
  std::printf("%8s %12s %10s %10s %10s %12s %10s\n", "workers",
              "chunks/sec", "speedup", "p50 ms", "p99 ms", "e2e p99",
              "bitexact");
  PrintRule();

  JsonWriter json;
  json.Field("sessions", static_cast<double>(params.sessions))
      .Field("stream_seconds", params.stream_seconds)
      .Field("chunk_seconds", kChunkSeconds)
      .Field("deadline_ms", kDeadlineMs)
      .Field("hardware_concurrency", static_cast<double>(hw))
      .Field("arrival", "offline-replay")
      .Field("smoke", BenchSmokeMode());
  json.BeginObject("sequential")
      .Field("chunks_per_sec", sequential.chunks_per_sec)
      .Field("selector_ms_per_chunk", sequential.avg_selector_ms)
      .Field("broadcast_ms_per_chunk", sequential.avg_broadcast_ms)
      .EndObject();
  json.BeginArray("rows");

  double base = 0.0;
  double speedup_at_4 = 0.0;
  bool all_exact = true;
  for (const std::size_t workers : params.worker_sweep) {
    const RunResult r = RunWith(w, workers, params.sessions);
    if (workers == 1) base = r.chunks_per_sec;
    const double speedup = base > 0.0 ? r.chunks_per_sec / base : 0.0;
    if (workers == 4) speedup_at_4 = speedup;
    const bool exact = BitExact(r.outputs, sequential.outputs);
    all_exact &= exact;
    std::printf("%8zu %12.2f %9.2fx %10.2f %10.2f %12.2f %10s\n", workers,
                r.chunks_per_sec, speedup, r.stats.chunk_latency.p50_ms,
                r.stats.chunk_latency.p99_ms, r.stats.e2e_latency.p99_ms,
                exact ? "yes" : "NO");
    json.BeginObject()
        .Field("workers", static_cast<double>(workers))
        .Field("chunks_per_sec", r.chunks_per_sec)
        .Field("speedup_vs_1", speedup)
        .Field("p50_ms", r.stats.chunk_latency.p50_ms)
        .Field("p99_ms", r.stats.chunk_latency.p99_ms)
        .Field("max_ms", r.stats.chunk_latency.max_ms)
        .Field("e2e_p50_ms", r.stats.e2e_latency.p50_ms)
        .Field("e2e_p99_ms", r.stats.e2e_latency.p99_ms)
        .Field("bitexact", exact)
        // Honest accounting: the deadline verdict is end-to-end (queue
        // wait + compute), never compute-only. Under offline replay the
        // whole stream is enqueued up front, so e2e measures backlog and
        // this is false on any hardware slower than the replay.
        .Field("deadline_met", r.stats.e2e_latency.p99_ms < kDeadlineMs)
        .EndObject();
  }
  json.EndArray();
  json.Field("all_bitexact", all_exact);

  PrintRule();
  std::printf("per-session outputs vs sequential StreamingProcessor: %s\n",
              all_exact ? "bit-identical" : "MISMATCH");
  std::printf("speedup at 4 workers: %.2fx%s\n", speedup_at_4,
              hw < 4 ? " (machine has fewer than 4 cores; scaling is "
                       "core-bound)"
                     : "");

  const std::string path = BenchJsonPath();
  WriteJsonSection(path, "runtime_throughput", json.Finish());
  std::printf("wrote section runtime_throughput -> %s\n", path.c_str());

  if (!alloc_ok) {
    std::printf("FAIL: steady-state chunk path allocated (see alloc "
                "section)\n");
  }
  return all_exact && alloc_ok ? 0 : 1;
}
