#include "runtime/session_manager.h"

#include <algorithm>
#include <chrono>
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
  if (options_.max_batch > 1 &&
      options_.kind == core::SelectorKind::kNeural) {
    batcher_ = std::make_unique<ContinuousBatcher>(
        ContinuousBatcher::Options{.max_batch = options_.max_batch,
                                   .workers = options_.workers,
                                   .deadline_ms = options_.deadline_ms},
        [this](std::vector<ContinuousBatcher::Item>&& items) {
          RunBatch(std::move(items));
        });
  }
}

SessionManager::~SessionManager() { Shutdown(); }

void SessionManager::Shutdown() {
  // Pool first (no strand can Enqueue afterwards), then the batcher —
  // its Shutdown dispatches whatever is still pending before joining.
  pool_.Shutdown();
  if (batcher_ != nullptr) batcher_->Shutdown();
}

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

SubmitResult SessionManager::Submit(SessionId id,
                                    std::span<const float> samples,
                                    std::uint64_t trace_flow) {
  NEC_TRACE_SPAN_ARG("runtime.submit", id);
  Session* s = GetSession(id);

  // Input hygiene at the service boundary: NaN/Inf/wild-amplitude capture
  // audio never reaches the DSP. The scan is one pass over the samples —
  // noise next to the selector forward.
  std::vector<float> repaired;
  std::span<const float> accepted = samples;
  if (options_.fault.bad_input != BadInputPolicy::kTrust &&
      !samples.empty()) {
    const SampleScan scan = ScanSamples(samples);
    if (!scan.clean()) {
      if (options_.fault.bad_input == BadInputPolicy::kReject) {
        stats_.AddBadInputRejection();
        return SubmitResult{SessionError{
            ErrorCategory::kBadInput,
            "rejected submit: " + std::to_string(scan.nonfinite) +
                " non-finite + " + std::to_string(scan.wild) +
                " wild-amplitude samples"}};
      }
      repaired.assign(samples.begin(), samples.end());
      stats_.AddSanitized(SanitizeSamples(repaired).total());
      accepted = repaired;
    }
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
      // end-to-end latency on the unbatched path.
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
  if (batcher_ != nullptr) {
    RunStrandBatched(s);
    return;
  }
  NEC_TRACE_SPAN_ARG("runtime.strand", s->id);
  std::vector<float> take;
  for (;;) {
    std::chrono::steady_clock::time_point ready;
    std::uint64_t flow = 0;
    {
      std::lock_guard lock(s->mu);
      if (s->inbox.empty() || s->error.has_value()) {
        s->running = false;
        break;
      }
      take.assign(s->inbox.begin(), s->inbox.end());
      s->inbox.clear();
      flow = std::exchange(s->wire_flow, 0);
      // Chunks completed from this take were waiting since the oldest
      // taken sample arrived. When several chunks pop from one take the
      // later ones inherit the oldest arrival — end-to-end latency may
      // overcount there, never undercount (honest in the direction that
      // matters for the deadline check).
      ready = s->inbox_since;
    }
    s->proc.BufferSamples(take);
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
  }
  FinishStrand();
}

void SessionManager::RunStrandBatched(Session* s) {
  // Batched strand: never runs the selector. Buffers the inbox into the
  // processor, pops every ready chunk, and hands each to the batcher in
  // stream order — degraded chunks included, so ALL completion happens on
  // the dispatcher that claimed the session's lane and per-session FIFO
  // order survives ladder transitions. Completion (shadow + modulation +
  // output append) happens in RunBatch.
  NEC_TRACE_SPAN_ARG("runtime.strand_batched", s->id);
  std::vector<float> take;
  for (;;) {
    std::uint64_t flow = 0;
    {
      std::lock_guard lock(s->mu);
      if (s->inbox.empty() || s->error.has_value()) {
        s->running = false;
        break;
      }
      take.assign(s->inbox.begin(), s->inbox.end());
      s->inbox.clear();
      flow = std::exchange(s->wire_flow, 0);
    }
    try {
      s->proc.BufferSamples(take);
      while (s->proc.HasFullChunk()) {
        FaultInjector::Global().OnSite("strand.chunk", s->id);
        // First chunk of the take carries the wire flow (if any); the
        // batcher adopts it instead of minting a local id.
        batcher_->Enqueue(s, s->proc.PopChunk(), std::exchange(flow, 0));
      }
    } catch (...) {
      FaultSession(s, ClassifyCurrentException(), /*ends_strand=*/true);
      break;
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
      // Unbatched, this runs on the session's strand; batched, only on
      // the dispatcher holding its lane.
      FaultSession(s, std::move(err), /*ends_strand=*/batcher_ == nullptr);
      return false;
    }
  }
}

void SessionManager::RunBatch(std::vector<ContinuousBatcher::Item>&& items) {
  NEC_TRACE_SPAN_ARG("runtime.batch", items.size());
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t t0_ns =
      obs::TraceRecorder::Global().enabled() ? obs::TraceNowNs() : 0;
  stats_.AddBatch(items.size());
  for (const ContinuousBatcher::Item& it : items) {
    const double wait_ms =
        std::chrono::duration<double, std::milli>(t0 - it.enqueued)
            .count();
    stats_.AddQueueWait(wait_ms);
    // Hop decomposition (§5g): batcher wait is the batched path's
    // shard-queue share.
    HopStats::Global().Record(Hop::kShardQueue, wait_ms);
  }

  // Disposition pass, in admission order: a faulted session's items are
  // shed (a fault may land between Enqueue and dispatch); only chunks at
  // the kNeural rung join the batched forward — degraded chunks are
  // generated singly in the completion loop below, which runs strictly in
  // admission order (FIFO within each session — the batcher's lane
  // invariant) so per-session chunk order, and with it the modulation
  // latch, is preserved across ladder transitions.
  enum class Route { kShed, kBatched, kSingle };
  std::vector<Route> route(items.size());
  std::vector<std::size_t> neural;
  neural.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    Session* s = static_cast<Session*>(items[i].key);
    std::lock_guard lock(s->mu);
    if (s->error.has_value()) {
      route[i] = Route::kShed;
    } else if (s->level == DegradeLevel::kNeural) {
      route[i] = Route::kBatched;
      neural.push_back(i);
    } else {
      route[i] = Route::kSingle;
    }
  }

  std::vector<std::optional<audio::Waveform>> shadows(items.size());
  std::vector<std::optional<SessionError>> errors(items.size());
  double selector_ms_each = 0.0;
  if (!neural.empty()) {
    const auto tf = std::chrono::steady_clock::now();
    GenerateShadowsBisect(items, neural, 0, neural.size(), shadows, errors);
    // Attribute the batched shadow-generation wall time evenly across the
    // chunks it served, mirroring the per-chunk selector_ms accounting.
    selector_ms_each = MsSince(tf) / static_cast<double>(neural.size());
  }

  // Complete in admission order: per-session chunk order — and with it
  // the stream-wide modulation-reference latch — is part of the bits.
  for (std::size_t i = 0; i < items.size(); ++i) {
    Session* s = static_cast<Session*>(items[i].key);
    switch (route[i]) {
      case Route::kShed:
        stats_.AddSamplesDropped(items[i].chunk.size());
        break;
      case Route::kBatched:
        if (errors[i].has_value()) {
          // The bisection isolated this item as the poison.
          HandleGenerationError(s, std::move(items[i].chunk),
                                std::move(*errors[i]), items[i].enqueued);
          break;
        }
        try {
          s->proc.CompleteShadowChunkInto(*shadows[i], selector_ms_each,
                                          s->mod_buf);
          // Chunk latency keeps its PR 2 meaning — processing time, not
          // queue wait: batch dispatch start → this chunk's completion.
          // End-to-end latency is the honest one: batcher enqueue → this
          // completion, queue wait included.
          const double total_ms = MsSince(t0);
          stats_.AddChunk(total_ms);
          stats_.AddChunkE2E(MsSince(items[i].enqueued));
          HopStats::Global().Record(Hop::kShardCompute, total_ms);
          if (t0_ns != 0) {
            obs::TraceRecorder::Global().RecordSpan(
                "shard.compute", "nec", t0_ns, obs::TraceNowNs() - t0_ns,
                items[i].flow_id, s->id);
          }
          std::lock_guard lock(s->mu);
          if (s->output.size() == 0) {
            s->output_since = std::chrono::steady_clock::now();
          }
          s->output.Append(s->mod_buf);
          ++s->chunk_count;
          UpdateWatchdogLocked(s, DegradeLevel::kNeural, /*probe=*/false,
                               total_ms);
        } catch (...) {
          FaultSession(s, ClassifyCurrentException(), /*ends_strand=*/false);
        }
        break;
      case Route::kSingle:
        // Degraded (or probing) session: generate on the claiming
        // dispatcher so completion order stays FIFO. ProcessOneChunk owns
        // retries, the ladder, the fault transition — and, via the flow
        // id, this chunk's flow-end event (skip the shared one below or
        // the arrow head would be emitted twice).
        ProcessOneChunk(s, items[i].chunk, items[i].enqueued,
                        items[i].flow_id);
        continue;
    }
    // Flow arrow head: ties this chunk's completion (or shedding) back to
    // its Enqueue tail, batch membership visible via the enclosing span.
    obs::TraceRecorder::Global().RecordFlow(obs::TraceEventKind::kFlowEnd,
                                            "chunk.flow", items[i].flow_id);
  }
}

void SessionManager::GenerateShadowsBisect(
    std::vector<ContinuousBatcher::Item>& items,
    const std::vector<std::size_t>& indices, std::size_t begin,
    std::size_t end, std::vector<std::optional<audio::Waveform>>& shadows,
    std::vector<std::optional<SessionError>>& errors) {
  const std::size_t n = end - begin;
  if (n == 0) return;
  try {
    std::vector<core::ShadowBatchRequest> requests(n);
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t i = indices[begin + j];
      Session* s = static_cast<Session*>(items[i].key);
      // Per-item injection site, hit inside the attempt so the bisection
      // isolates down to the single poisoned item.
      FaultInjector::Global().OnSite("batch.item", s->id);
      requests[j] = core::ShadowBatchRequest{
          .pipeline = &s->pipeline,
          .mixed = &items[i].chunk,
          .ws = &s->proc.stft_workspace()};
    }
    std::vector<audio::Waveform> out = core::GenerateShadowBatch(requests);
    for (std::size_t j = 0; j < n; ++j) {
      shadows[indices[begin + j]] = std::move(out[j]);
    }
  } catch (...) {
    if (n == 1) {
      errors[indices[begin]] = ClassifyCurrentException();
      return;
    }
    // A poisoned batch: split and retry each half. The batched forward is
    // bit-identical per item regardless of batch composition (see
    // GenerateShadowBatch), so survivors' output is unchanged; cost is
    // O(log n) extra forwards for the poisoned item's neighborhood.
    stats_.AddBatchSplit();
    const std::size_t mid = begin + n / 2;
    GenerateShadowsBisect(items, indices, begin, mid, shadows, errors);
    GenerateShadowsBisect(items, indices, mid, end, shadows, errors);
  }
}

void SessionManager::HandleGenerationError(
    Session* s, audio::Waveform chunk, SessionError error,
    std::chrono::steady_clock::time_point ready) {
  if (options_.fault.on_error == FaultPolicy::kDegrade) {
    bool stepped = false;
    {
      std::lock_guard lock(s->mu);
      if (!s->error.has_value() && s->level < DegradeLevel::kSilence) {
        StepDownLocked(s);
        stepped = true;
      }
    }
    if (stepped) {
      // Regenerate this very chunk at the lower rung — the stream loses
      // no samples on a degrade transition.
      ProcessOneChunk(s, chunk, ready);
      return;
    }
  }
  FaultSession(s, std::move(error), /*ends_strand=*/false);
}

void SessionManager::FaultSession(Session* s, SessionError error,
                                  bool ends_strand) {
  const SessionId id = s->id;
  const ErrorCategory category = error.category;
  std::size_t shed = 0;
  if (batcher_ != nullptr) {
    // Pending chunks of the dead session must not land in (or stall) a
    // later batch; items already dispatched are shed by RunBatch's
    // disposition pass. Purged before `running` can drop below: once it
    // does, the owner may release the session and a new one may reuse
    // its address as a lane key.
    shed += batcher_->Purge(s) * chunk_samples_;
  }
  {
    std::lock_guard lock(s->mu);
    if (!s->error.has_value()) s->error = std::move(error);  // first wins
    ++s->fault_count;
    shed += s->inbox.size();
    s->inbox.clear();
    // A dispatcher leaves `running` to the strand (if any), which ends
    // itself when it next sees the recorded error.
    if (ends_strand) s->running = false;
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
  if (batcher_ != nullptr) {
    // The session's already-popped chunks waiting in its batcher lane are
    // part of the evicted backlog: purge them so none lands in a later
    // batch (in-flight batch items complete normally). Done while
    // `running` still holds the session, so its address is never used
    // after it can be released (and reused by a new session).
    discarded += batcher_->Purge(s) * chunk_samples_;
  }
  {
    std::lock_guard lock(s->mu);
    discarded += s->inbox.size();
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
  {
    std::unique_lock lock(drain_mu_);
    drain_cv_.wait(lock, [&] { return in_flight_ == 0; });
  }
  // Once no strand is in flight (and the caller guarantees no concurrent
  // Submit), nothing can Enqueue — wait out the batcher's backlog too.
  if (batcher_ != nullptr) batcher_->Drain();
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
  if (batcher_ != nullptr) batcher_->Purge(s);
  // Quiescent by contract, so the strand-owned processor is safe to touch
  // from here: fresh stream — empty buffer, modulation latch re-latches.
  s->proc.Reset();
  stats_.AddSessionReset();
}

bool SessionManager::SessionQuiescent(SessionId id) const {
  Session* s = GetSession(id);
  {
    std::lock_guard lock(s->mu);
    if (s->running || !s->inbox.empty()) return false;
  }
  // Batched mode: the strand parks while popped chunks still sit in the
  // session's batcher lane (or ride a running batch) — those mutate the
  // processor when they complete, so the session is not quiescent yet.
  return batcher_ == nullptr || batcher_->idle_for(s);
}

std::optional<SessionSnapshot> SessionManager::ExportSession(SessionId id) {
  Session* s = GetSession(id);
  {
    std::lock_guard lock(s->mu);
    if (s->error.has_value()) return std::nullopt;
    NEC_CHECK_MSG(!s->running && s->inbox.empty(),
                  "ExportSession requires a quiescent session");
  }
  NEC_CHECK_MSG(batcher_ == nullptr || batcher_->idle_for(s),
                "ExportSession with chunks still in the batcher");
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
  if (batcher_ != nullptr) {
    std::size_t purged = 0;
    if (!batcher_->Forget(s, &purged)) return false;
    discarded += purged * chunk_samples_;
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
