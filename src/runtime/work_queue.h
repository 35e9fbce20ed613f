// Bounded MPMC work queue with configurable backpressure.
//
// The runtime's ingestion problem: N live sessions produce chunk jobs at
// audio rate while a fixed worker pool drains them. When producers outrun
// the pool the queue must do *something* principled — the three classic
// policies are all useful here:
//
//   * kBlock      — producer waits for space. Lossless; couples the
//                   producer's pace to the pool (the default for necd,
//                   where dropping protection chunks means leaking the
//                   target's voice).
//   * kReject     — Push returns false immediately. The caller keeps the
//                   samples buffered and retries later (load shedding with
//                   client-side queueing).
//   * kDropOldest — evict the front to admit the newest. For monitoring
//                   feeds where stale chunks are worthless once their
//                   300 ms overshadowing deadline (§IV-C2) has passed.
//
// All counters are plain integers guarded by the queue mutex; the queue is
// safe for any number of producer and consumer threads.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "common/check.h"

namespace nec::runtime {

/// What Push does when the queue is at capacity.
enum class OverflowPolicy { kBlock, kReject, kDropOldest };

template <typename T>
class WorkQueue {
 public:
  explicit WorkQueue(std::size_t capacity,
                     OverflowPolicy policy = OverflowPolicy::kBlock)
      : capacity_(capacity), policy_(policy) {
    NEC_CHECK_MSG(capacity_ >= 1, "WorkQueue capacity must be >= 1");
  }

  WorkQueue(const WorkQueue&) = delete;
  WorkQueue& operator=(const WorkQueue&) = delete;

  /// Enqueues an item subject to the overflow policy. Returns false if the
  /// item was not admitted (queue closed, kReject overflow, or kBlock
  /// interrupted by Close).
  ///
  /// Under kDropOldest an admission at capacity evicts the front item; if
  /// `evicted` is non-null the victim is moved into it so the caller can
  /// unwind whatever state the victim represents (a dropped task is not
  /// the same as a finished one — see ThreadPool's drop callback).
  /// Otherwise the victim is destroyed.
  bool Push(T item, std::optional<T>* evicted = nullptr) {
    std::unique_lock lock(mu_);
    if (closed_) return false;
    if (items_.size() >= capacity_) {
      switch (policy_) {
        case OverflowPolicy::kBlock:
          not_full_.wait(lock, [&] {
            return items_.size() < capacity_ || closed_;
          });
          if (closed_) return false;
          break;
        case OverflowPolicy::kReject:
          ++rejected_;
          return false;
        case OverflowPolicy::kDropOldest:
          if (evicted != nullptr) *evicted = std::move(items_.front());
          items_.pop_front();
          ++dropped_;
          break;
      }
    }
    items_.push_back(std::move(item));
    ++pushed_;
    if (items_.size() > peak_) peak_ = items_.size();
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Enqueues an item only if there is room right now: never blocks and
  /// never evicts, whatever the policy. Returns false (item dropped) when
  /// the queue is full or closed; a full-queue refusal is not counted as
  /// a rejection — the caller has a fallback, nothing was shed.
  bool TryPush(T item) {
    {
      std::lock_guard lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
      ++pushed_;
      if (items_.size() > peak_) peak_ = items_.size();
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed *and*
  /// drained; nullopt only in the latter case, so consumers process every
  /// admitted item before shutting down (graceful drain).
  std::optional<T> Pop() {
    std::unique_lock lock(mu_);
    not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Non-blocking Pop; nullopt when the queue is currently empty.
  std::optional<T> TryPop() {
    std::unique_lock lock(mu_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Stops admitting new items and wakes all waiters. Idempotent. Items
  /// already queued remain poppable.
  void Close() {
    {
      std::lock_guard lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard lock(mu_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard lock(mu_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }
  OverflowPolicy policy() const { return policy_; }

  /// High-watermark of size() over the queue's lifetime — how close the
  /// backlog has come to saturating the bound (overload forensics).
  std::size_t peak_depth() const { std::lock_guard l(mu_); return peak_; }

  /// Items admitted / bounced by kReject / evicted by kDropOldest.
  std::uint64_t pushed() const { std::lock_guard l(mu_); return pushed_; }
  std::uint64_t rejected() const { std::lock_guard l(mu_); return rejected_; }
  std::uint64_t dropped() const { std::lock_guard l(mu_); return dropped_; }

 private:
  const std::size_t capacity_;
  const OverflowPolicy policy_;

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
  std::size_t peak_ = 0;
  std::uint64_t pushed_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace nec::runtime
