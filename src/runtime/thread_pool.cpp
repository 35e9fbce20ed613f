#include "runtime/thread_pool.h"

#include <utility>

#include "common/check.h"
#include "obs/trace.h"

namespace nec::runtime {

ThreadPool::ThreadPool(Options options)
    : queue_(options.queue_capacity, options.policy) {
  NEC_CHECK_MSG(options.workers >= 1, "ThreadPool needs >= 1 worker");
  threads_.reserve(options.workers);
  for (std::size_t i = 0; i < options.workers; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::Submit(std::function<void()> task,
                        std::function<void()> on_drop) {
  NEC_CHECK(task != nullptr);
  std::optional<Task> evicted;
  const bool admitted =
      queue_.Push(Task{std::move(task), std::move(on_drop)}, &evicted);
  // The victim's unwind hook runs on this (producer) thread, outside the
  // queue lock; the victim can no longer be popped by a worker.
  if (evicted.has_value() && evicted->on_drop) evicted->on_drop();
  return admitted;
}

bool ThreadPool::TrySubmit(std::function<void()> task,
                           std::function<void()> on_drop) {
  NEC_CHECK(task != nullptr);
  return queue_.TryPush(Task{std::move(task), std::move(on_drop)});
}

void ThreadPool::Shutdown() {
  queue_.Close();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void ThreadPool::WorkerLoop() {
  obs::TraceRecorder::SetThreadName("pool-worker");
  // Pop keeps yielding admitted tasks after Close until the queue is dry,
  // so shutdown never strands in-flight work.
  while (auto task = queue_.Pop()) {
    try {
      task->run();
    } catch (...) {
      // Last-resort containment: an escaping exception would unwind the
      // jthread and std::terminate the whole service. Count it and keep
      // the worker alive for every other session (see header).
      task_exceptions_.fetch_add(1, std::memory_order_relaxed);
    }
    executed_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace nec::runtime
