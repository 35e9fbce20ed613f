// Concurrent multi-session protection service.
//
// The paper's deployment loop (§VI-C) protects one target on one stream;
// SessionManager scales that to many concurrent rooms/recorders. Each
// session wraps an enrolled NecPipeline + StreamingProcessor exactly like
// the single-threaded path — sessions differ only in *who* is enrolled —
// while all sessions share one immutable trained Selector/SpeakerEncoder
// weight set via shared_ptr (Selector::Infer is const; see nn/layers.h).
//
// Concurrency model: per-session *strands* over a shared ThreadPool. Audio
// submitted to a session lands in that session's inbox; at most one pool
// task per session is in flight at any time. It takes the whole inbox,
// runs every full chunk of it through the session's StreamingProcessor,
// and then yields: if more input arrived meanwhile it re-posts itself to
// the back of the pool queue, so a session fed as fast as it is served
// cannot hold a worker while other sessions wait. Chunks of one session
// therefore process strictly in submission order on a single logical
// stream — per-session output is bit-identical to running the sequential
// StreamingProcessor — while chunks of *different* sessions run in
// parallel across the pool's workers. Every chunk takes the same
// zero-allocation path: strand → ProcessOneChunk → GenerateShadowInto →
// CompleteShadowChunkInto.
//
// Fault isolation (DESIGN.md §5f): every exception raised while processing
// a session's audio is caught AT THE SESSION BOUNDARY. The session
// transitions to SessionState::kFaulted with a recorded SessionError
// (taxonomy in runtime/fault.h), sheds its backlog, and rejects further
// Submits until ResetSession() — every other session keeps protecting its
// room. Chunks that blow the deadline budget (or fail transiently past the
// retry budget) can instead step down a graceful-degradation ladder
// (neural → LAS → silence) with automatic recovery probes back up — see
// Options::fault.
//
// Lock discipline: Session::mu guards inbox/output/running plus the fault
// and degradation state; the StreamingProcessor itself is touched only by
// the session's single active strand task (hand-off between consecutive
// strand tasks is ordered by Session::mu and the pool queue's mutex, so no
// additional lock is needed). RuntimeStats is all-atomic.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "audio/waveform.h"
#include "core/pipeline.h"
#include "core/streaming.h"
#include "encoder/encoder.h"
#include "runtime/fault.h"
#include "runtime/stats.h"
#include "runtime/thread_pool.h"

namespace nec::runtime {

/// How Submit treats corrupt (NaN/Inf/wild-amplitude) audio.
enum class BadInputPolicy {
  kSanitize,  ///< repair in place (NaN/Inf → 0, wild → ±1), count it
  kReject,    ///< bounce the whole Submit with a typed kBadInput error
  kTrust,     ///< skip the scan entirely (caller vouches for the stream)
};

/// What happens when a chunk keeps failing after the retry budget.
enum class FaultPolicy {
  kFault,    ///< transition the session to kFaulted (default)
  kDegrade,  ///< step down the degradation ladder and keep serving
};

/// One session's externally visible health, returned by SessionStatus().
struct SessionStatus {
  SessionState state = SessionState::kIdle;
  std::optional<SessionError> error;  ///< set iff state == kFaulted
  DegradeLevel level = DegradeLevel::kNeural;  ///< current ladder rung
  std::uint64_t chunks_emitted = 0;
  std::uint64_t faults = 0;           ///< lifetime kFaulted transitions
  std::uint64_t deadline_misses = 0;  ///< chunks over budget (lifetime)
};

/// Typed Submit outcome. ok() == no error. On error, `error->category`
/// says what to do: kOverload — the dispatch was bounced by kReject
/// backpressure but the samples ARE buffered (retry with an empty span);
/// kBadInput — the samples were rejected and NOT buffered; anything else
/// is the recorded error of a faulted session (samples not buffered;
/// ResetSession() to restore service).
struct SubmitResult {
  std::optional<SessionError> error;
  bool ok() const { return !error.has_value(); }
  explicit operator bool() const { return ok(); }
};

/// The complete mid-stream state of a healthy session, exported for
/// migration to another SessionManager sharing the same weight set
/// (fleet draining reshard, DESIGN.md §5h). Enrollment does not travel —
/// it is seed-deterministic, so the re-enrolling side rebuilds it; what
/// does travel is everything the stream computed so far that future
/// output depends on: the partial-chunk tail and the stream-wide
/// modulation-reference latch.
struct SessionSnapshot {
  std::vector<float> tail;              ///< buffered partial-chunk samples
  double mod_reference_peak = 0.0;      ///< 0.0 = not yet latched
  std::uint64_t chunks_emitted = 0;     ///< carried for status continuity
};

class SessionManager {
 public:
  using SessionId = std::size_t;

  /// Fault-tolerance knobs (all containment is active regardless; these
  /// tune the reaction).
  struct FaultOptions {
    FaultPolicy on_error = FaultPolicy::kFault;
    BadInputPolicy bad_input = BadInputPolicy::kSanitize;
    /// Enables the deadline watchdog: consecutive chunks over
    /// Options::deadline_ms step the session down the ladder; sustained
    /// health probes it back up. Off by default — degradation changes
    /// output bits, so it must be an explicit opt-in.
    bool degrade_on_deadline = false;
    /// Consecutive deadline misses before stepping down one rung.
    std::size_t deadline_miss_threshold = 3;
    /// In-budget chunks at a degraded rung before probing one rung up.
    std::size_t recovery_probe_chunks = 8;
    /// Chunk-level retries before the on_error policy applies.
    std::size_t max_retries = 1;
    /// Sleep between retries (grows linearly with the attempt number).
    double retry_backoff_ms = 0.0;
  };

  struct Options {
    std::size_t workers = 4;
    std::size_t queue_capacity = 1024;
    /// Backpressure for strand dispatches when the pool queue is full.
    OverflowPolicy policy = OverflowPolicy::kBlock;
    /// Chunk duration per session (paper: 1 s, Table II).
    double chunk_s = 1.0;
    core::SelectorKind kind = core::SelectorKind::kNeural;
    /// Per-chunk budget (paper: ~300 ms overshadowing tolerance). The
    /// deadline watchdog (if enabled) judges chunk processing time
    /// against it.
    double deadline_ms = 300.0;

    FaultOptions fault = {};  ///< containment / degradation / sanitization
  };

  /// All sessions share `selector` and `encoder` (no weight copies).
  /// (`options` has no `= {}` default: GCC bug 88165 rejects braced
  /// defaults of nested aggregates with member initializers.)
  SessionManager(std::shared_ptr<const core::Selector> selector,
                 std::shared_ptr<const encoder::SpeakerEncoder> encoder,
                 core::PipelineOptions pipeline_options, Options options);

  /// Drains in-flight work and joins the pool.
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Opens a protection session enrolled on `references` (paper: 3 clips
  /// of 3 s). Thread-safe; returns a dense id.
  SessionId CreateSession(std::span<const audio::Waveform> references);

  /// Feeds monitored samples to a session and schedules processing on the
  /// pool. See SubmitResult for the error contract; in brief: a kOverload
  /// error means the strand dispatch was bounced by kReject backpressure
  /// but the samples are ALREADY buffered — retry with an empty span
  /// (`Submit(id, {})`) until it succeeds; re-submitting the same samples
  /// would duplicate them. Corrupt audio is sanitized or rejected per
  /// Options::fault.bad_input; a faulted session sheds input until
  /// ResetSession().
  ///
  /// Under kDropOldest a full pool queue evicts the oldest *queued* strand
  /// to admit this one. The evicted session is unwound, not wedged: its
  /// buffered-but-unprocessed audio is discarded (those chunks missed
  /// their deadline — that is what drop-oldest means) and the session goes
  /// back to idle, so later Submits redispatch and Drain/Flush still work.
  /// Drops are visible as `dispatch_drops` / `samples_dropped` in Stats().
  ///
  /// Thread-safe across sessions; calls for one session must come from one
  /// producer (a stream is ordered).
  ///
  /// `trace_flow` (optional) is a wire-carried trace flow id
  /// (kTraceContext, DESIGN.md §5g): when nonzero it attaches to the
  /// FIRST chunk that becomes ready from these samples, so that chunk's
  /// shard.compute span and flow-end event carry the remote sender's id
  /// and the merged fleet trace stitches client-submit → shard-compute
  /// into one flow. Zero (the default) keeps the local-only behavior.
  SubmitResult Submit(SessionId id, std::span<const float> samples,
                      std::uint64_t trace_flow = 0);

  /// Blocks until every strand dispatched so far has finished. Sessions
  /// may still hold partial-chunk tails (see Flush).
  void Drain();

  /// Zero-pads and processes a session's final partial chunk, if any.
  /// Call after Drain with no concurrent Submit to this session. Returns
  /// nullopt for a faulted session (its tail is part of the shed backlog).
  std::optional<audio::Waveform> Flush(SessionId id);

  /// Moves out everything the session produced so far (modulated shadow at
  /// the air rate, in stream order). Thread-safe. `produced_since`
  /// (optional) receives the instant the oldest returned sample was
  /// appended — the anchor for the reply hop of the latency decomposition
  /// (time the output sat waiting for a taker); untouched when the
  /// returned waveform is empty.
  audio::Waveform TakeOutput(
      SessionId id,
      std::chrono::steady_clock::time_point* produced_since = nullptr);

  /// One session's health: lifecycle state, recorded error (if faulted),
  /// current degradation rung, and lifetime counters. Safe against the
  /// session's own processing; like every call that names one id, only
  /// the session's owner makes it (see ReleaseSession).
  runtime::SessionStatus SessionStatus(SessionId id) const;

  /// Every live session's id and status, ascending by id, read under the
  /// session table lock so no session can be released mid-read. The form
  /// for threads that do not own the sessions (metrics, /sessions).
  std::vector<std::pair<SessionId, runtime::SessionStatus>> SessionStatuses()
      const;

  /// Returns a faulted (or idle) session to service: clears the recorded
  /// error, discards any buffered backlog and partial-chunk tail, resets
  /// the degradation ladder to the top, and starts a fresh stream (the
  /// modulation-reference latch re-latches). Call only while the session
  /// is quiescent — after it reported kFaulted, or after Drain() with no
  /// concurrent Submit. Previously produced output remains takeable.
  void ResetSession(SessionId id);

  /// True when the session can be exported right now: no strand in
  /// flight and an empty inbox. With no concurrent Submit for this
  /// session, quiescence is stable once observed. Thread-safe.
  bool SessionQuiescent(SessionId id) const;

  /// Exports the session's mid-stream state for migration. Requires
  /// quiescence (NEC_CHECK) and a healthy session — a faulted one
  /// returns nullopt (its backlog was shed; there is no stream left to
  /// continue). The session itself is untouched: callers typically
  /// ReleaseSession() afterwards to free it.
  std::optional<SessionSnapshot> ExportSession(SessionId id);

  /// Checks a migrated snapshot's content before anything is built from
  /// it: the modulation latch must be a finite non-negative peak and the
  /// tail a partial chunk (< chunk_samples()); the tail then passes the
  /// same Options::fault.bad_input hygiene as Submit (sanitized in place
  /// or rejected). Returns the typed kBadInput error of a snapshot that
  /// must not be restored. Thread-safe.
  std::optional<SessionError> ScreenSnapshot(SessionSnapshot& snapshot);

  /// Installs a migrated snapshot onto a freshly created (never
  /// submitted-to) session, making its future output bit-identical to
  /// the exporting session having continued. NEC_CHECKs freshness; the
  /// snapshot should have passed ScreenSnapshot.
  void RestoreSession(SessionId id, const SessionSnapshot& snapshot);

  /// Frees a finished session: its pipeline, STFT and arena scratch, and
  /// output buffers. Returns false, changing nothing, while a strand is
  /// still inside the session — call again later. Otherwise input not yet
  /// processed (the inbox) is discarded and counted as dropped samples,
  /// untaken output is discarded, and the session is freed. The id is never reused: it
  /// stays behind as a tombstone, so a later call naming it raises
  /// CheckError ("released") instead of touching freed memory, and the
  /// session count and SessionStatuses skip it.
  ///
  /// Ownership: the per-id calls (Submit, Flush, TakeOutput,
  /// SessionStatus, ResetSession, SessionQuiescent, Export/Restore,
  /// SessionTimings, ReleaseSession) resolve the id to the session once
  /// and then use it unlocked, so they must not run concurrently with the
  /// session's release. Make them from the thread that owns the session
  /// (for a NetServer, its poll thread); other threads use
  /// SessionStatuses, num_sessions and Stats.
  [[nodiscard]] bool ReleaseSession(SessionId id);

  /// Per-module latency accounting of one session's processor. Call while
  /// the session is idle (after Drain): the counters are strand-owned.
  core::ModuleTimings SessionTimings(SessionId id) const;

  RuntimeStatsSnapshot Stats() const;

  /// Live sessions: created and not yet released.
  std::size_t num_sessions() const;
  std::size_t workers() const { return pool_.workers(); }
  std::size_t chunk_samples() const { return chunk_samples_; }

  /// Stops accepting strand dispatches, drains admitted ones, joins.
  void Shutdown();

 private:
  struct Session {
    Session(std::shared_ptr<const core::Selector> selector,
            std::shared_ptr<const encoder::SpeakerEncoder> encoder,
            const core::PipelineOptions& pipeline_options, double chunk_s,
            core::SelectorKind kind, SessionId session_id)
        : pipeline(std::move(selector), std::move(encoder),
                   pipeline_options),
          proc(pipeline, chunk_s, kind),
          id(session_id),
          top_level(kind == core::SelectorKind::kNeural
                        ? DegradeLevel::kNeural
                        : DegradeLevel::kLasFallback),
          level(top_level) {}

    core::NecPipeline pipeline;
    core::StreamingProcessor proc;  ///< strand-owned, see header comment
    const SessionId id;             ///< fault-injection key + status

    /// Per-chunk reuse buffers for the Into hot path (inbox take, popped
    /// chunk, generated shadow, modulated output). Same exclusivity
    /// contract as `proc`: touched only by the strand, so steady-state
    /// chunks recycle their capacity instead of allocating.
    std::vector<float> take;
    audio::Waveform chunk_buf, shadow_buf, mod_buf;

    std::mutex mu;
    std::deque<float> inbox;   ///< guarded by mu
    /// Wire-carried trace flow id (kTraceContext) awaiting its chunk:
    /// consumed by the next chunk popped from this session's stream.
    /// Guarded by mu.
    std::uint64_t wire_flow = 0;
    /// When the inbox last went empty → non-empty: the arrival time of the
    /// oldest unconsumed samples, feeding end-to-end latency accounting.
    /// Guarded by mu.
    std::chrono::steady_clock::time_point inbox_since{};
    audio::Waveform output;    ///< guarded by mu
    /// When `output` last went empty → non-empty: production time of the
    /// oldest un-taken sample (reply-hop anchor). Guarded by mu.
    std::chrono::steady_clock::time_point output_since{};
    bool running = false;      ///< strand in flight; guarded by mu

    // --- Fault / degradation state, all guarded by mu.
    std::optional<SessionError> error;  ///< set → kFaulted (absorbing)
    const DegradeLevel top_level;  ///< best rung this session can run at
    DegradeLevel level;            ///< current rung
    std::size_t consecutive_misses = 0;
    std::size_t successes_at_level = 0;  ///< feeds the recovery probe
    std::uint64_t chunk_count = 0;
    std::uint64_t fault_count = 0;
    std::uint64_t miss_count = 0;
  };

  Session* GetSession(SessionId id) const;
  /// Input hygiene shared by Submit and ScreenSnapshot: applies
  /// Options::fault.bad_input to `samples`. Returns the kBadInput error of
  /// a rejected span (`what` names it in the message); under kSanitize a
  /// dirty span is repaired into `repaired` and `samples` rebound to it.
  std::optional<SessionError> ScreenSamples(std::span<const float>& samples,
                                            std::vector<float>& repaired,
                                            const char* what);
  static runtime::SessionStatus StatusOf(Session* session);
  void RunStrand(Session* session);
  void AbandonStrand(Session* session);
  void BeginStrand();
  void FinishStrand();

  /// Generates + completes one chunk at the session's current rung, with
  /// retry/backoff, the deadline watchdog, and recovery probes. `ready` is
  /// when the chunk became processable (inbox arrival) and anchors the
  /// end-to-end latency record. `flow` (0 = none) links the chunk's
  /// shard.compute span and flow-end back to a remote sender's trace.
  /// Returns false iff the session faulted. Runs on the session's strand.
  bool ProcessOneChunk(Session* session, const audio::Waveform& chunk,
                       std::chrono::steady_clock::time_point ready,
                       std::uint64_t flow = 0);
  /// Generates the shadow at `level` into the session's reuse buffer
  /// (session->shadow_buf via caller) — the zero-allocation strand path.
  void GenerateShadowAtLevelInto(Session* session,
                                 const audio::Waveform& chunk,
                                 DegradeLevel level, audio::Waveform& out);
  /// Records the fault, sheds the session's inbox, and ends its strand
  /// (the caller is the strand, which returns right after).
  void FaultSession(Session* session, SessionError error);
  /// Ladder step-down with stats. Caller holds session->mu.
  void StepDownLocked(Session* session);
  /// Watchdog bookkeeping after a successfully emitted chunk. Caller
  /// holds session->mu. `used_level`/`probe` describe how the chunk ran.
  void UpdateWatchdogLocked(Session* session, DegradeLevel used_level,
                            bool probe, double total_ms);
  /// The rung the next chunk should run at (may be one above the current
  /// rung when a recovery probe is due). Caller holds session->mu.
  DegradeLevel EffectiveLevelLocked(Session* session, bool* probe) const;

  const Options options_;
  const core::PipelineOptions pipeline_options_;
  const std::shared_ptr<const core::Selector> selector_;
  const std::shared_ptr<const encoder::SpeakerEncoder> encoder_;
  std::size_t chunk_samples_ = 0;

  mutable std::mutex sessions_mu_;
  /// Indexed by id; a released session leaves a null tombstone.
  std::vector<std::unique_ptr<Session>> sessions_;

  mutable std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  std::size_t in_flight_ = 0;  ///< active strands; guarded by drain_mu_

  RuntimeStats stats_;
  ThreadPool pool_;  ///< last member: workers die before state above
};

}  // namespace nec::runtime
