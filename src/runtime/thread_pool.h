// Fixed-size worker pool over the bounded WorkQueue.
//
// nec::runtime dispatches per-chunk shadow generation onto this pool; each
// worker is a std::jthread looping over WorkQueue::Pop. Shutdown is
// *graceful*: the queue closes (no new work admitted) but every task that
// was already admitted runs to completion before the workers join — an
// in-flight protection chunk is never abandoned half-modulated.
//
// Fault isolation: a task whose exception escapes would otherwise
// std::terminate the process (the exception unwinds a jthread). Workers
// therefore catch at the task boundary as a LAST RESORT — the exception is
// counted (task_exceptions()) and the worker keeps serving other sessions.
// This is a backstop, not the containment layer: SessionManager catches at
// the session boundary first and records a typed SessionError; anything
// reaching the worker catch is a containment bug worth alerting on.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "runtime/work_queue.h"

namespace nec::runtime {

class ThreadPool {
 public:
  struct Options {
    std::size_t workers = 4;
    std::size_t queue_capacity = 256;
    OverflowPolicy policy = OverflowPolicy::kBlock;
  };

  // No `= {}` default: GCC rejects a braced default argument of a nested
  // aggregate with member initializers (bug 88165).
  explicit ThreadPool(Options options);

  /// Joins after draining (see Shutdown).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; returns false if the pool is shut down or the queue
  /// bounced it (kReject). Under kDropOldest a full queue evicts its
  /// oldest queued task to admit this one; the victim's `on_drop` (if any)
  /// runs synchronously on the submitting thread before Submit returns, so
  /// the victim's owner can unwind state that assumed the task would run.
  /// A task's `run` and `on_drop` are mutually exclusive: exactly one of
  /// them fires for every admitted task (drained tasks still run after
  /// Shutdown — see below).
  ///
  /// Thread-safety: safe from any thread under kReject/kDropOldest. Under
  /// kBlock a *worker* submitting to a full queue parks inside Push while
  /// also being a consumer — if every worker does this the pool deadlocks —
  /// so worker-thread Submit with kBlock is only safe when the queue is
  /// guaranteed non-full.
  bool Submit(std::function<void()> task,
              std::function<void()> on_drop = nullptr);

  /// Submit that never blocks and never evicts, whatever the policy:
  /// returns false, running nothing, when the queue is full or shut down.
  /// Safe from a worker thread under every policy. An admitted task can
  /// still be evicted later by a kDropOldest Submit (`on_drop` fires).
  bool TrySubmit(std::function<void()> task,
                 std::function<void()> on_drop = nullptr);

  /// Closes the queue, lets the workers drain every admitted task, and
  /// joins them. Idempotent; implicitly called by the destructor.
  void Shutdown();

  std::size_t workers() const { return threads_.size(); }
  std::size_t queue_depth() const { return queue_.size(); }
  std::size_t queue_peak_depth() const { return queue_.peak_depth(); }
  std::uint64_t submitted() const { return queue_.pushed(); }
  std::uint64_t rejected() const { return queue_.rejected(); }
  std::uint64_t dropped() const { return queue_.dropped(); }
  std::uint64_t executed() const {
    return executed_.load(std::memory_order_relaxed);
  }
  /// Tasks whose exception escaped into the worker loop (see header).
  std::uint64_t task_exceptions() const {
    return task_exceptions_.load(std::memory_order_relaxed);
  }

 private:
  struct Task {
    std::function<void()> run;
    std::function<void()> on_drop;  ///< fired instead of run on eviction
  };

  void WorkerLoop();

  WorkQueue<Task> queue_;
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> task_exceptions_{0};
  std::vector<std::jthread> threads_;
};

}  // namespace nec::runtime
