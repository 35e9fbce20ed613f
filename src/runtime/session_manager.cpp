#include "runtime/session_manager.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <string>
#include <thread>
#include <utility>

#include "common/check.h"
#include "obs/trace.h"

namespace nec::runtime {
namespace {

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Maps the exception currently being handled onto the closed error
// taxonomy. Must be called from inside a catch block.
SessionError ClassifyCurrentException() {
  try {
    throw;
  } catch (const InjectedFault& f) {
    return SessionError{f.category(), f.what()};
  } catch (const std::invalid_argument& e) {
    return SessionError{ErrorCategory::kBadInput, e.what()};
  } catch (const nec::CheckError& e) {
    return SessionError{ErrorCategory::kInvariant, e.what()};
  } catch (const std::exception& e) {
    return SessionError{ErrorCategory::kInvariant, e.what()};
  } catch (...) {
    return SessionError{ErrorCategory::kInvariant, "unknown exception"};
  }
}

}  // namespace

SessionManager::SessionManager(
    std::shared_ptr<const core::Selector> selector,
    std::shared_ptr<const encoder::SpeakerEncoder> encoder,
    core::PipelineOptions pipeline_options, Options options)
    : options_(options),
      pipeline_options_(pipeline_options),
      selector_(std::move(selector)),
      encoder_(std::move(encoder)),
      pool_(ThreadPool::Options{.workers = options.workers,
                                .queue_capacity = options.queue_capacity,
                                .policy = options.policy}) {
  NEC_CHECK(selector_ != nullptr && encoder_ != nullptr);
  chunk_samples_ = static_cast<std::size_t>(
      options_.chunk_s * selector_->config().sample_rate);
}

SessionManager::~SessionManager() { Shutdown(); }

void SessionManager::Shutdown() { pool_.Shutdown(); }

SessionManager::SessionId SessionManager::CreateSession(
    std::span<const audio::Waveform> references) {
  Session* session = nullptr;
  {
    std::lock_guard lock(sessions_mu_);
    const SessionId id = sessions_.size();
    sessions_.push_back(std::make_unique<Session>(
        selector_, encoder_, pipeline_options_, options_.chunk_s,
        options_.kind, id));
    session = sessions_.back().get();
  }
  // Enrollment (the encoder forward) runs outside sessions_mu_ so
  // concurrent CreateSession calls embed in parallel; only the creator
  // knows the id until this returns.
  session->pipeline.Enroll(references);
  stats_.AddSession();
  return session->id;
}

SessionManager::Session* SessionManager::GetSession(SessionId id) const {
  std::lock_guard lock(sessions_mu_);
  NEC_CHECK_MSG(id < sessions_.size(), "unknown session id " << id);
  NEC_CHECK_MSG(sessions_[id] != nullptr, "session " << id << " was released");
  return sessions_[id].get();
}

std::optional<SessionError> SessionManager::ScreenSamples(
    std::span<const float>& samples, std::vector<float>& repaired,
    const char* what) {
  // Input hygiene at the service boundary: NaN/Inf/wild-amplitude capture
  // audio never reaches the DSP. The scan is one pass over the samples —
  // noise next to the selector forward.
  if (options_.fault.bad_input == BadInputPolicy::kTrust || samples.empty()) {
    return std::nullopt;
  }
  const SampleScan scan = ScanSamples(samples);
  if (scan.clean()) return std::nullopt;
  if (options_.fault.bad_input == BadInputPolicy::kReject) {
    stats_.AddBadInputRejection();
    return SessionError{ErrorCategory::kBadInput,
                        std::string("rejected ") + what + ": " +
                            std::to_string(scan.nonfinite) +
                            " non-finite + " + std::to_string(scan.wild) +
                            " wild-amplitude samples"};
  }
  repaired.assign(samples.begin(), samples.end());
  stats_.AddSanitized(SanitizeSamples(repaired).total());
  samples = repaired;
  return std::nullopt;
}

std::optional<SessionError> SessionManager::ScreenSnapshot(
    SessionSnapshot& snapshot) {
  const double latch = snapshot.mod_reference_peak;
  if (!std::isfinite(latch) || latch < 0.0) {
    return SessionError{ErrorCategory::kBadInput,
                        "snapshot modulation latch " + std::to_string(latch) +
                            " is not a finite non-negative peak"};
  }
  if (snapshot.tail.size() >= chunk_samples_) {
    return SessionError{ErrorCategory::kBadInput,
                        "snapshot tail of " +
                            std::to_string(snapshot.tail.size()) +
                            " samples is not a partial chunk (< " +
                            std::to_string(chunk_samples_) + ")"};
  }
  std::vector<float> repaired;
  std::span<const float> tail = snapshot.tail;
  if (auto bad = ScreenSamples(tail, repaired, "snapshot tail")) return bad;
  if (!repaired.empty()) snapshot.tail = std::move(repaired);
  return std::nullopt;
}

SubmitResult SessionManager::Submit(SessionId id,
                                    std::span<const float> samples,
                                    std::uint64_t trace_flow) {
  NEC_TRACE_SPAN_ARG("runtime.submit", id);
  Session* s = GetSession(id);

  std::vector<float> repaired;
  std::span<const float> accepted = samples;
  if (auto bad = ScreenSamples(accepted, repaired, "submit")) {
    return SubmitResult{std::move(bad)};
  }

  stats_.AddSamples(accepted.size());

  bool dispatch = false;
  {
    std::lock_guard lock(s->mu);
    if (s->error.has_value()) {
      // A faulted session sheds input until ResetSession().
      stats_.AddSamplesDropped(accepted.size());
      return SubmitResult{*s->error};
    }
    if (s->inbox.empty() && !accepted.empty()) {
      // Arrival time of the oldest unconsumed samples — the anchor for
      // end-to-end latency.
      s->inbox_since = std::chrono::steady_clock::now();
    }
    s->inbox.insert(s->inbox.end(), accepted.begin(), accepted.end());
    if (trace_flow != 0) s->wire_flow = trace_flow;
    if (!s->running && !s->inbox.empty()) {
      s->running = true;
      dispatch = true;
    }
  }
  if (!dispatch) return {};  // an active strand will pick the samples up

  BeginStrand();
  stats_.AddDispatch();
  const bool saturated =
      FaultInjector::Global().SaturateAt("pool.submit", s->id);
  if (saturated ||
      !pool_.Submit([this, s] { RunStrand(s); },
                    /*on_drop=*/[this, s] { AbandonStrand(s); })) {
    // Pool bounced the strand (kReject backpressure, shutdown, or an
    // injected saturation). The samples stay in the inbox; a later Submit
    // — an empty one will do — redispatches.
    stats_.AddDispatchRejection();
    {
      std::lock_guard lock(s->mu);
      s->running = false;
    }
    FinishStrand();
    return SubmitResult{SessionError{
        ErrorCategory::kOverload,
        "strand dispatch bounced by queue backpressure; samples are "
        "buffered — retry with an empty Submit"}};
  }
  return {};
}

void SessionManager::RunStrand(Session* s) {
  NEC_TRACE_SPAN_ARG("runtime.strand", s->id);
  for (;;) {
    std::chrono::steady_clock::time_point ready;
    std::uint64_t flow = 0;
    {
      std::lock_guard lock(s->mu);
      if (s->inbox.empty() || s->error.has_value()) {
        s->running = false;
        break;
      }
      s->take.assign(s->inbox.begin(), s->inbox.end());
      s->inbox.clear();
      flow = std::exchange(s->wire_flow, 0);
      // Chunks completed from this take were waiting since the oldest
      // taken sample arrived. When several chunks pop from one take the
      // later ones inherit the oldest arrival — end-to-end latency may
      // overcount there, never undercount (honest in the direction that
      // matters for the deadline check).
      ready = s->inbox_since;
    }
    s->proc.BufferSamples(s->take);
    bool faulted = false;
    while (s->proc.HasFullChunk()) {
      s->proc.PopChunkInto(s->chunk_buf);
      // The wire-carried flow names ONE chunk; the first popped from this
      // take claims it.
      if (!ProcessOneChunk(s, s->chunk_buf, ready,
                           std::exchange(flow, 0))) {
        faulted = true;  // FaultSession already shed inbox + running
        break;
      }
    }
    if (faulted) break;
    // If more input arrived during this take, yield the worker by
    // re-posting the strand behind whatever else is queued. `running`
    // stays true and the in-flight count carries over to the re-posted
    // task. The push never blocks and never evicts another strand; when
    // the queue is full the strand keeps draining here instead.
    bool more = false;
    {
      std::lock_guard lock(s->mu);
      more = !s->inbox.empty() && !s->error.has_value();
    }
    if (more && pool_.TrySubmit([this, s] { RunStrand(s); },
                                /*on_drop=*/[this, s] { AbandonStrand(s); })) {
      return;
    }
  }
  FinishStrand();
}

void SessionManager::GenerateShadowAtLevelInto(Session* s,
                                               const audio::Waveform& chunk,
                                               DegradeLevel level,
                                               audio::Waveform& out) {
  switch (level) {
    case DegradeLevel::kNeural:
      s->pipeline.GenerateShadowInto(chunk, core::SelectorKind::kNeural,
                                     s->proc.shadow_scratch(), out);
      return;
    case DegradeLevel::kLasFallback:
      s->pipeline.GenerateShadowInto(chunk, core::SelectorKind::kLasMask,
                                     s->proc.shadow_scratch(), out);
      return;
    case DegradeLevel::kSilence:
      // Passthrough rung: an all-zero shadow modulates to silence — no
      // cancellation, but the stream keeps its cadence and the ladder can
      // probe back up.
      out.AssignSilence(chunk.sample_rate(), chunk.size());
      return;
  }
  NEC_CHECK_MSG(false, "unreachable degrade level");
}

bool SessionManager::ProcessOneChunk(
    Session* s, const audio::Waveform& chunk,
    std::chrono::steady_clock::time_point ready, std::uint64_t flow) {
  bool probe = false;
  DegradeLevel level = DegradeLevel::kNeural;
  {
    std::lock_guard lock(s->mu);
    level = EffectiveLevelLocked(s, &probe);
  }
  // Hop decomposition (§5g): ready → compute start is the shard's queue
  // share of the end-to-end number.
  HopStats::Global().Record(Hop::kShardQueue, MsSince(ready));
  const FaultOptions& fo = options_.fault;
  std::size_t attempts = 0;
  for (;;) {
    try {
      const auto t0 = std::chrono::steady_clock::now();
      obs::TraceRecorder& rec = obs::TraceRecorder::Global();
      const std::uint64_t t0_ns = rec.enabled() ? obs::TraceNowNs() : 0;
      FaultInjector::Global().OnSite("strand.chunk", s->id);
      GenerateShadowAtLevelInto(s, chunk, level, s->shadow_buf);
      const double selector_ms = MsSince(t0);
      s->proc.CompleteShadowChunkInto(s->shadow_buf, selector_ms,
                                      s->mod_buf);
      const double total_ms = MsSince(t0);
      stats_.AddChunk(total_ms);
      stats_.AddChunkE2E(MsSince(ready));
      HopStats::Global().Record(Hop::kShardCompute, total_ms);
      if (t0_ns != 0) {
        rec.RecordSpan("shard.compute", "nec", t0_ns,
                       obs::TraceNowNs() - t0_ns, flow, s->id);
        if (flow != 0) {
          rec.RecordFlow(obs::TraceEventKind::kFlowEnd, "chunk.flow", flow);
        }
      }
      std::lock_guard lock(s->mu);
      if (s->output.size() == 0) {
        s->output_since = std::chrono::steady_clock::now();
      }
      s->output.Append(s->mod_buf);
      ++s->chunk_count;
      UpdateWatchdogLocked(s, level, probe, total_ms);
      return true;
    } catch (...) {
      SessionError err = ClassifyCurrentException();
      if (probe) {
        // The rung above is still broken: fall back to the current rung
        // and regenerate there. Retries/degradation judge the current
        // rung, not the failed probe.
        probe = false;
        std::lock_guard lock(s->mu);
        s->successes_at_level = 0;
        level = s->level;
        continue;
      }
      if (attempts < fo.max_retries) {
        // Regeneration is safe: CompleteShadowChunk (the only stream-state
        // mutation) runs strictly after a successful generate.
        ++attempts;
        stats_.AddRetry();
        if (fo.retry_backoff_ms > 0.0) {
          std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
              fo.retry_backoff_ms * static_cast<double>(attempts)));
        }
        continue;
      }
      if (fo.on_error == FaultPolicy::kDegrade) {
        bool stepped = false;
        {
          std::lock_guard lock(s->mu);
          if (s->level < DegradeLevel::kSilence) {
            StepDownLocked(s);
            stepped = true;
          }
          level = s->level;
        }
        if (stepped) {
          attempts = 0;
          continue;
        }
      }
      FaultSession(s, std::move(err));
      return false;
    }
  }
}

void SessionManager::FaultSession(Session* s, SessionError error) {
  const SessionId id = s->id;  // s may be released once `running` drops
  const ErrorCategory category = error.category;
  std::size_t shed = 0;
  {
    std::lock_guard lock(s->mu);
    if (!s->error.has_value()) s->error = std::move(error);  // first wins
    ++s->fault_count;
    shed = s->inbox.size();
    s->inbox.clear();
    s->running = false;
  }
  stats_.AddFault(category);
  stats_.AddSamplesDropped(shed);
  obs::TraceInstant("session.fault", id);
}

void SessionManager::StepDownLocked(Session* s) {
  s->level = static_cast<DegradeLevel>(static_cast<int>(s->level) + 1);
  s->consecutive_misses = 0;
  s->successes_at_level = 0;
  stats_.AddDegradeDown();
  obs::TraceInstant("degrade.down", s->id);
}

void SessionManager::UpdateWatchdogLocked(Session* s, DegradeLevel used_level,
                                          bool probe, double total_ms) {
  const bool miss = total_ms > options_.deadline_ms;
  if (miss) {
    stats_.AddDeadlineMiss();
    ++s->miss_count;
  }
  if (probe) {
    if (miss) {
      // The rung above emitted but is still over budget — stay degraded
      // and restart the probe countdown.
      s->successes_at_level = 0;
    } else {
      // Recovery: the probe chunk ran a rung up within budget.
      s->level = used_level;
      s->consecutive_misses = 0;
      s->successes_at_level = 0;
      stats_.AddDegradeUp();
      obs::TraceInstant("degrade.up", s->id);
    }
    return;
  }
  if (miss) {
    s->successes_at_level = 0;
    if (options_.fault.degrade_on_deadline &&
        ++s->consecutive_misses >= options_.fault.deadline_miss_threshold &&
        s->level < DegradeLevel::kSilence) {
      StepDownLocked(s);
    }
    return;
  }
  s->consecutive_misses = 0;
  if (s->level > s->top_level) ++s->successes_at_level;
}

DegradeLevel SessionManager::EffectiveLevelLocked(Session* s,
                                                 bool* probe) const {
  *probe = false;
  if (s->level > s->top_level &&
      s->successes_at_level >= options_.fault.recovery_probe_chunks) {
    *probe = true;
    return static_cast<DegradeLevel>(static_cast<int>(s->level) - 1);
  }
  return s->level;
}

void SessionManager::AbandonStrand(Session* s) {
  // kDropOldest evicted this session's queued strand before it ran. The
  // buffered audio has missed its overshadowing deadline, so discard it
  // and return the session to idle — otherwise `running` stays true
  // forever (no strand will ever clear it), later Submits never
  // redispatch, Flush fails its idle check, and Drain deadlocks on the
  // leaked in_flight_ count. Runs on the thread whose Submit caused the
  // eviction; the evicted task itself can no longer run.
  const SessionId id = s->id;  // s may be released once idle (below)
  std::size_t discarded = 0;
  {
    std::lock_guard lock(s->mu);
    discarded = s->inbox.size();
    s->inbox.clear();
    s->running = false;
  }
  stats_.AddSamplesDropped(discarded);
  obs::TraceInstant("strand.drop", id);
  FinishStrand();
}

void SessionManager::BeginStrand() {
  std::lock_guard lock(drain_mu_);
  ++in_flight_;
}

void SessionManager::FinishStrand() {
  std::size_t left;
  {
    std::lock_guard lock(drain_mu_);
    left = --in_flight_;
  }
  if (left == 0) drain_cv_.notify_all();
}

void SessionManager::Drain() {
  std::unique_lock lock(drain_mu_);
  drain_cv_.wait(lock, [&] { return in_flight_ == 0; });
}

std::optional<audio::Waveform> SessionManager::Flush(SessionId id) {
  Session* s = GetSession(id);
  {
    std::lock_guard lock(s->mu);
    if (s->error.has_value()) return std::nullopt;  // tail died with the fault
    NEC_CHECK_MSG(!s->running && s->inbox.empty(),
                  "Flush requires an idle session — call Drain() first");
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::optional<audio::Waveform> out = s->proc.Flush();
  if (out.has_value()) {
    // A flushed tail runs synchronously on the caller: no queue wait, so
    // its end-to-end latency IS its processing latency.
    stats_.AddChunk(MsSince(t0));
    stats_.AddChunkE2E(MsSince(t0));
  }
  return out;
}

audio::Waveform SessionManager::TakeOutput(
    SessionId id, std::chrono::steady_clock::time_point* produced_since) {
  Session* s = GetSession(id);
  std::lock_guard lock(s->mu);
  if (produced_since != nullptr && s->output.size() > 0) {
    *produced_since = s->output_since;
  }
  return std::exchange(s->output, audio::Waveform());
}

runtime::SessionStatus SessionManager::StatusOf(Session* s) {
  std::lock_guard lock(s->mu);
  runtime::SessionStatus status;
  if (s->error.has_value()) {
    status.state = SessionState::kFaulted;
    status.error = s->error;
  } else if (s->running) {
    status.state = SessionState::kRunning;
  } else {
    status.state = SessionState::kIdle;
  }
  status.level = s->level;
  status.chunks_emitted = s->chunk_count;
  status.faults = s->fault_count;
  status.deadline_misses = s->miss_count;
  return status;
}

runtime::SessionStatus SessionManager::SessionStatus(SessionId id) const {
  return StatusOf(GetSession(id));
}

std::vector<std::pair<SessionManager::SessionId, runtime::SessionStatus>>
SessionManager::SessionStatuses() const {
  // sessions_mu_ is held across the walk: ReleaseSession takes it to
  // unlink a session before freeing it, so every session read here stays
  // alive (lock order sessions_mu_ -> Session::mu).
  std::lock_guard lock(sessions_mu_);
  std::vector<std::pair<SessionId, runtime::SessionStatus>> out;
  for (SessionId id = 0; id < sessions_.size(); ++id) {
    if (sessions_[id] != nullptr) {
      out.emplace_back(id, StatusOf(sessions_[id].get()));
    }
  }
  return out;
}

void SessionManager::ResetSession(SessionId id) {
  Session* s = GetSession(id);
  {
    std::lock_guard lock(s->mu);
    NEC_CHECK_MSG(!s->running,
                  "ResetSession requires a quiescent session — a faulted "
                  "one, or Drain() first");
    s->error.reset();
    s->inbox.clear();
    s->level = s->top_level;
    s->consecutive_misses = 0;
    s->successes_at_level = 0;
  }
  // Quiescent by contract, so the strand-owned processor is safe to touch
  // from here: fresh stream — empty buffer, modulation latch re-latches.
  s->proc.Reset();
  stats_.AddSessionReset();
}

bool SessionManager::SessionQuiescent(SessionId id) const {
  Session* s = GetSession(id);
  std::lock_guard lock(s->mu);
  return !s->running && s->inbox.empty();
}

std::optional<SessionSnapshot> SessionManager::ExportSession(SessionId id) {
  Session* s = GetSession(id);
  {
    std::lock_guard lock(s->mu);
    if (s->error.has_value()) return std::nullopt;
    NEC_CHECK_MSG(!s->running && s->inbox.empty(),
                  "ExportSession requires a quiescent session");
  }
  // Quiescent by contract, so the strand-owned processor is safe to read.
  SessionSnapshot snapshot;
  const auto tail = s->proc.buffered_samples();
  snapshot.tail.assign(tail.begin(), tail.end());
  snapshot.mod_reference_peak = s->proc.modulation_reference_peak();
  {
    std::lock_guard lock(s->mu);
    snapshot.chunks_emitted = s->chunk_count;
  }
  return snapshot;
}

void SessionManager::RestoreSession(SessionId id,
                                    const SessionSnapshot& snapshot) {
  Session* s = GetSession(id);
  {
    std::lock_guard lock(s->mu);
    NEC_CHECK_MSG(!s->running && s->inbox.empty() && !s->error.has_value() &&
                      s->chunk_count == 0,
                  "RestoreSession requires a fresh session");
    s->chunk_count = snapshot.chunks_emitted;
  }
  // Fresh by contract — RestoreStreamState re-checks the processor side.
  s->proc.RestoreStreamState(snapshot.tail, snapshot.mod_reference_peak);
}

bool SessionManager::ReleaseSession(SessionId id) {
  Session* s = GetSession(id);
  std::size_t discarded = 0;
  {
    std::lock_guard lock(s->mu);
    if (s->running) return false;
    discarded = s->inbox.size();
  }
  stats_.AddSamplesDropped(discarded);
  std::unique_ptr<Session> released;
  {
    std::lock_guard lock(sessions_mu_);
    released = std::move(sessions_[id]);
  }
  // Destroyed here, outside sessions_mu_.
  return true;
}

core::ModuleTimings SessionManager::SessionTimings(SessionId id) const {
  return GetSession(id)->proc.timings();
}

RuntimeStatsSnapshot SessionManager::Stats() const {
  return stats_.Snapshot(
      PoolSample{.queue_depth = pool_.queue_depth(),
                 .dispatch_drops = pool_.dropped(),
                 .queue_peak_depth = pool_.queue_peak_depth(),
                 .worker_exceptions = pool_.task_exceptions()});
}

std::size_t SessionManager::num_sessions() const {
  std::lock_guard lock(sessions_mu_);
  return static_cast<std::size_t>(
      std::count_if(sessions_.begin(), sessions_.end(),
                    [](const auto& session) { return session != nullptr; }));
}

}  // namespace nec::runtime
