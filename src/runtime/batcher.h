// Continuous-batching scheduler for the shared-selector inference hot path.
//
// N concurrent sessions each produce ready 1 s chunks; dispatching each
// chunk as its own Selector::Infer pays N full conv-stack launches over one
// shared weight set. The ContinuousBatcher admits ready chunks into the
// *next* batched forward as soon as a dispatch slot frees — there is no
// coalescing hold window at all. A lone ready chunk dispatches immediately
// as a batch of one; when the dispatcher is busy, chunks accumulate and the
// next forward takes up to `max_batch` of them. Amortization therefore
// emerges from load instead of from holding the oldest chunk hostage (the
// PR 4 MicroBatcher's fixed max-wait window inverted into a 0.94x slowdown
// with multi-second queue waits at 8 sessions — see DESIGN.md §5e).
//
// Scheduling: every key (session) owns a *lane* — a FIFO of its ready
// chunks. Admission is earliest-deadline-first across lane heads: each
// gather repeatedly takes the globally most-urgent head (deadline =
// enqueue + deadline_ms) until the batch is full or no lane is eligible.
// Within a lane, chunks only ever leave in FIFO order, so per-session
// stream order — and with it the modulation-reference latch — is exactly
// the sequential path's.
//
// Work stealing: `workers` dispatch threads run the callback concurrently.
// A lane is claimed exclusively while any of its chunks are in a running
// batch (`in_flight`), which keeps one session's chunks on one thread at a
// time; every *other* lane is up for grabs, so an idle dispatcher steals
// the next ready lanes — a hot session's backlog drains through whichever
// thread frees first instead of serializing behind a single coalescer.
// When several dispatchers are idle, a gather takes only its fair share of
// the ready items (ceil(ready / idle)) so the remainder dispatches in
// parallel rather than queueing behind one full batch.
//
// Determinism: admission order changes WHEN a chunk is processed, never
// WHAT it emits — the batched forward is bit-identical per item to the
// per-chunk path (see Selector::InferBatch), and per-lane FIFO + exclusive
// claim mean each session's stream completes in submission order.
//
// Threading: Enqueue and Purge may be called from any number of pool
// workers. Purge(key) removes every PENDING chunk of a key (drop-oldest
// eviction / session fault: an evicted session's queued chunks must never
// land in a later batch); chunks already in a running batch complete
// normally. Enqueue after Shutdown is a typed invariant violation
// (CheckError → ErrorCategory::kInvariant), not silent UB.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "audio/waveform.h"

namespace nec::runtime {

class ContinuousBatcher {
 public:
  struct Options {
    std::size_t max_batch = 4;   ///< cap on chunks per batched forward
    std::size_t workers = 1;     ///< concurrent dispatch threads
    double deadline_ms = 300.0;  ///< per-chunk end-to-end budget (EDF key)
  };

  struct Item {
    void* key = nullptr;  ///< session identity (opaque to the batcher)
    audio::Waveform chunk;
    std::chrono::steady_clock::time_point enqueued;
    /// EDF admission key: enqueued + deadline_ms. Earliest wins.
    std::chrono::steady_clock::time_point deadline;
    /// Trace flow id linking this chunk's enqueue to its completion in
    /// the batch that served it (0 when tracing is disabled).
    std::uint64_t flow_id = 0;
  };

  /// Processes one gathered batch (EDF order across lanes, FIFO within a
  /// lane). Runs on a dispatch thread; up to Options::workers callbacks
  /// run concurrently, never two for the same key.
  using BatchFn = std::function<void(std::vector<Item>&&)>;

  ContinuousBatcher(Options options, BatchFn fn);
  ~ContinuousBatcher();

  ContinuousBatcher(const ContinuousBatcher&) = delete;
  ContinuousBatcher& operator=(const ContinuousBatcher&) = delete;

  /// Adds a ready chunk (deadline = now + deadline_ms). Thread-safe.
  /// Calling after Shutdown throws a typed CheckError (kInvariant).
  ///
  /// `wire_flow` (optional) is a trace flow id minted by a REMOTE peer
  /// and carried over the wire (kTraceContext, DESIGN.md §5g): when
  /// nonzero it becomes the item's flow id verbatim — no local mint, no
  /// local flow-begin event, since the arrow's tail lives in the
  /// sender's trace — so the chunk's completion closes a cross-process
  /// flow.
  void Enqueue(void* key, audio::Waveform chunk,
               std::uint64_t wire_flow = 0);

  /// Test seam: Enqueue with an explicit deadline, so EDF ordering is
  /// deterministic under test without racing the clock.
  void EnqueueWithDeadline(void* key, audio::Waveform chunk,
                           std::chrono::steady_clock::time_point deadline,
                           std::uint64_t wire_flow = 0);

  /// Removes every pending (not yet dispatched) chunk of `key`; returns
  /// how many were removed. In-flight chunks are unaffected. Thread-safe.
  ///
  /// Used for both drop-oldest eviction AND session faulting: when a
  /// session faults while its chunks sit in its lane, the purge guarantees
  /// no dispatcher stalls on the dead session's chunks and none of them
  /// poisons a later batch — surviving lanes' FIFO order is untouched
  /// (tested in test_runtime_faults).
  std::size_t Purge(void* key);

  /// Drops `key`'s lane, pending chunks included, before the key's owner
  /// is freed, so the lane map does not grow with every session ever
  /// served. Returns false and changes nothing while a running batch
  /// holds the lane; otherwise `*purged` gets the number of pending
  /// chunks dropped. Thread-safe.
  bool Forget(void* key, std::size_t* purged);

  /// Pending (not yet dispatched) chunks of `key`. Thread-safe; a
  /// diagnostic snapshot — the count can change before the caller acts.
  std::size_t pending_for(void* key) const;

  /// True when `key` has no pending chunks AND none in a running batch
  /// (an absent lane is idle). Thread-safe; with no concurrent Enqueue
  /// for the key, idleness is stable once observed — the quiescence
  /// probe for session migration.
  bool idle_for(void* key) const;

  /// Blocks until every lane is empty and no batch is in flight. Callers
  /// must guarantee no concurrent Enqueue (same contract as
  /// SessionManager::Drain).
  void Drain();

  /// Dispatches remaining pending chunks, then joins the dispatch
  /// threads. Idempotent.
  void Shutdown();

  std::size_t pending() const;

 private:
  struct Lane {
    std::deque<Item> fifo;
    /// True while a dispatch thread owns chunks of this lane inside a
    /// running batch. An in-flight lane is ineligible for gathering, which
    /// serializes each session's chunks across concurrent dispatchers.
    bool in_flight = false;
  };

  void WorkerLoop(std::size_t worker_index);
  /// EDF gather under mu_: fills `batch` (≤ the fair-share cap) from
  /// eligible lane heads, marks the contributing lanes in flight and
  /// records them in `claimed`. Returns false when nothing is eligible.
  bool GatherLocked(std::vector<Item>& batch, std::vector<Lane*>& claimed);
  /// True iff some lane has a pending chunk and is not in flight.
  bool HasEligibleLocked() const;
  /// Empties `lane`'s pending FIFO and wakes whoever waits on the pending
  /// count; returns how many chunks were removed.
  std::size_t ClearPendingLocked(Lane& lane);

  const Options options_;
  const BatchFn fn_;

  mutable std::mutex mu_;
  std::condition_variable cv_;  ///< wakes idle dispatch threads
  std::condition_variable drained_cv_;
  std::unordered_map<void*, Lane> lanes_;  ///< guarded by mu_
  std::size_t pending_count_ = 0;   ///< chunks across all lanes; guarded by mu_
  std::size_t active_batches_ = 0;  ///< callbacks running; guarded by mu_
  std::size_t idle_workers_ = 0;    ///< dispatchers waiting; guarded by mu_
  bool shutdown_ = false;           ///< guarded by mu_

  std::vector<std::thread> threads_;  ///< last member: started in the ctor
};

}  // namespace nec::runtime
