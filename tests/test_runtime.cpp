// Tests for the nec::runtime concurrency layer: bounded queue backpressure,
// graceful pool shutdown, stats, and — the load-bearing property — N
// concurrent sessions producing output bit-identical to the sequential
// StreamingProcessor path while sharing one trained weight set.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "core/streaming.h"
#include "runtime/fault.h"
#include "runtime/session_manager.h"
#include "runtime/stats.h"
#include "runtime/stats_export.h"
#include "runtime/thread_pool.h"
#include "runtime/work_queue.h"
#include "synth/dataset.h"

namespace nec::runtime {
namespace {

// ------------------------------------------------------------- WorkQueue

TEST(WorkQueue, FifoWithinCapacity) {
  WorkQueue<int> q(4, OverflowPolicy::kReject);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  EXPECT_TRUE(q.Push(3));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.Pop(), std::optional<int>(1));
  EXPECT_EQ(q.Pop(), std::optional<int>(2));
  EXPECT_EQ(q.Pop(), std::optional<int>(3));
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(WorkQueue, RejectPolicyBouncesWhenFull) {
  WorkQueue<int> q(2, OverflowPolicy::kReject);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  EXPECT_FALSE(q.Push(3));
  EXPECT_FALSE(q.Push(4));
  EXPECT_EQ(q.rejected(), 2u);
  EXPECT_EQ(q.pushed(), 2u);
  // Popping frees capacity again.
  EXPECT_EQ(q.Pop(), std::optional<int>(1));
  EXPECT_TRUE(q.Push(5));
  EXPECT_EQ(q.Pop(), std::optional<int>(2));
  EXPECT_EQ(q.Pop(), std::optional<int>(5));
}

TEST(WorkQueue, DropOldestEvictsFront) {
  WorkQueue<int> q(3, OverflowPolicy::kDropOldest);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  EXPECT_TRUE(q.Push(3));
  EXPECT_TRUE(q.Push(4));  // evicts 1
  EXPECT_TRUE(q.Push(5));  // evicts 2
  EXPECT_EQ(q.dropped(), 2u);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.Pop(), std::optional<int>(3));
  EXPECT_EQ(q.Pop(), std::optional<int>(4));
  EXPECT_EQ(q.Pop(), std::optional<int>(5));
}

TEST(WorkQueue, DropOldestHandsBackEvictedItem) {
  WorkQueue<int> q(2, OverflowPolicy::kDropOldest);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  std::optional<int> evicted;
  EXPECT_TRUE(q.Push(3, &evicted));  // evicts 1 into the out-param
  EXPECT_EQ(evicted, std::optional<int>(1));
  // Below capacity nothing is evicted and the out-param stays empty.
  EXPECT_EQ(q.Pop(), std::optional<int>(2));
  evicted.reset();
  EXPECT_TRUE(q.Push(4, &evicted));
  EXPECT_FALSE(evicted.has_value());
  EXPECT_EQ(q.dropped(), 1u);
}

TEST(WorkQueue, BlockPolicyWaitsForSpace) {
  WorkQueue<int> q(1, OverflowPolicy::kBlock);
  EXPECT_TRUE(q.Push(1));

  std::atomic<bool> second_admitted{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.Push(2));  // must wait until the consumer pops 1
    second_admitted.store(true);
  });

  // Give the producer a chance to park on the full queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_admitted.load());

  EXPECT_EQ(q.Pop(), std::optional<int>(1));
  producer.join();
  EXPECT_TRUE(second_admitted.load());
  EXPECT_EQ(q.Pop(), std::optional<int>(2));
}

TEST(WorkQueue, CloseWakesBlockedProducerAndConsumer) {
  WorkQueue<int> full(1, OverflowPolicy::kBlock);
  ASSERT_TRUE(full.Push(1));
  std::thread producer([&] { EXPECT_FALSE(full.Push(2)); });
  WorkQueue<int> empty(1, OverflowPolicy::kBlock);
  std::thread consumer([&] { EXPECT_FALSE(empty.Pop().has_value()); });

  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  full.Close();
  empty.Close();
  producer.join();
  consumer.join();

  // Items admitted before Close stay poppable (graceful drain).
  EXPECT_EQ(full.Pop(), std::optional<int>(1));
  EXPECT_FALSE(full.Pop().has_value());
  EXPECT_FALSE(full.Push(3));
}

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPool, ExecutesSubmittedTasks) {
  ThreadPool pool({.workers = 4, .queue_capacity = 64});
  std::atomic<int> sum{0};
  for (int i = 1; i <= 100; ++i) {
    EXPECT_TRUE(pool.Submit([&sum, i] { sum.fetch_add(i); }));
  }
  pool.Shutdown();
  EXPECT_EQ(sum.load(), 5050);
  EXPECT_EQ(pool.executed(), 100u);
}

TEST(ThreadPool, ShutdownDrainsInFlightAndQueuedWork) {
  // Slow tasks + a deep queue: Shutdown must not drop the queued backlog.
  ThreadPool pool({.workers = 2, .queue_capacity = 64});
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(pool.Submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      done.fetch_add(1);
    }));
  }
  pool.Shutdown();  // graceful: every admitted task runs
  EXPECT_EQ(done.load(), 16);
  // After shutdown, new work is refused.
  EXPECT_FALSE(pool.Submit([] {}));
}

TEST(ThreadPool, RejectPolicyShedsLoadWhenSaturated) {
  ThreadPool pool(
      {.workers = 1, .queue_capacity = 1, .policy = OverflowPolicy::kReject});
  std::atomic<bool> release{false};
  // Occupy the single worker...
  ASSERT_TRUE(pool.Submit([&release] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }));
  // ...fill the queue, then overflow it.
  bool saw_reject = false;
  for (int i = 0; i < 8; ++i) saw_reject |= !pool.Submit([] {});
  EXPECT_TRUE(saw_reject);
  EXPECT_GT(pool.rejected(), 0u);
  release.store(true);
  pool.Shutdown();
}

TEST(ThreadPool, DropOldestFiresDropCallbackForEvictedTask) {
  ThreadPool pool({.workers = 1,
                   .queue_capacity = 1,
                   .policy = OverflowPolicy::kDropOldest});
  std::atomic<bool> release{false};
  // Occupy the single worker, then wait until it has actually popped the
  // gate task so the queue is empty and the eviction order is fixed.
  ASSERT_TRUE(pool.Submit([&release] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }));
  while (pool.queue_depth() != 0) std::this_thread::yield();

  std::atomic<int> ran{0};
  std::atomic<int> dropped{0};
  const auto task = [&ran] { ran.fetch_add(1); };
  const auto on_drop = [&dropped] { dropped.fetch_add(1); };
  ASSERT_TRUE(pool.Submit(task, on_drop));  // fills the queue
  ASSERT_TRUE(pool.Submit(task, on_drop));  // evicts the first task
  // The victim's on_drop ran synchronously inside the second Submit.
  EXPECT_EQ(dropped.load(), 1);
  EXPECT_EQ(pool.dropped(), 1u);

  release.store(true);
  pool.Shutdown();
  // Exactly one of {run, on_drop} fired for each task.
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(dropped.load(), 1);
}

// ----------------------------------------------------------------- Stats

TEST(LatencyHistogram, QuantilesAreOrderedAndBracketed) {
  LatencyHistogram hist;
  for (int i = 1; i <= 1000; ++i) hist.Record(static_cast<double>(i) * 0.1);
  const LatencyQuantiles q = hist.Quantiles();
  EXPECT_EQ(q.count, 1000u);
  EXPECT_LE(q.p50_ms, q.p95_ms);
  EXPECT_LE(q.p95_ms, q.p99_ms);
  EXPECT_LE(q.p99_ms, q.max_ms);
  // True p50 is 50 ms; the log-bucket estimate must be within one growth
  // factor of it.
  EXPECT_GT(q.p50_ms, 50.0 / LatencyHistogram::kGrowth / LatencyHistogram::kGrowth);
  EXPECT_LT(q.p50_ms, 50.0 * LatencyHistogram::kGrowth * LatencyHistogram::kGrowth);
  EXPECT_NEAR(q.max_ms, 100.0, 0.2);
}

TEST(LatencyHistogram, EmptyIsAllZero) {
  LatencyHistogram hist;
  const LatencyQuantiles q = hist.Quantiles();
  EXPECT_EQ(q.count, 0u);
  EXPECT_EQ(q.p50_ms, 0.0);
  EXPECT_EQ(q.p99_ms, 0.0);
  EXPECT_EQ(q.max_ms, 0.0);
}

// -------------------------------------------------------- SessionManager

core::NecConfig SmallConfig() {
  core::NecConfig cfg = core::NecConfig::Fast();
  cfg.conv_channels = 6;
  cfg.fc_hidden = 32;
  return cfg;
}

class SessionManagerTest : public ::testing::Test {
 protected:
  SessionManagerTest()
      : cfg_(SmallConfig()),
        selector_(std::make_shared<const core::Selector>(cfg_, 7)),
        encoder_(std::make_shared<encoder::LasEncoder>(cfg_.embedding_dim)),
        builder_({.duration_s = 2.5}) {}

  core::NecConfig cfg_;
  std::shared_ptr<const core::Selector> selector_;
  std::shared_ptr<const encoder::SpeakerEncoder> encoder_;
  synth::DatasetBuilder builder_;
};

TEST_F(SessionManagerTest, ConcurrentSessionsMatchSequentialBitExact) {
  constexpr std::size_t kSessions = 4;
  SessionManager manager(selector_, encoder_, {},
                         {.workers = 3,
                          .queue_capacity = 64,
                          .chunk_s = 1.0,
                          .kind = core::SelectorKind::kNeural});

  std::vector<synth::SpeakerProfile> speakers;
  std::vector<SessionManager::SessionId> ids;
  std::vector<audio::Waveform> streams;
  for (std::size_t i = 0; i < kSessions; ++i) {
    speakers.push_back(synth::SpeakerProfile::FromSeed(100 + i));
    const auto refs = builder_.MakeReferenceAudios(speakers[i], 3, 40 + i);
    ids.push_back(manager.CreateSession(refs));
    streams.push_back(builder_.MakeUtterance(speakers[i], 7 + i).wave);
  }

  // Interleave submissions across sessions in capture-callback-sized
  // pieces so strands genuinely overlap on the pool.
  const std::size_t piece = 3700;
  std::size_t pos = 0;
  bool any_left = true;
  while (any_left) {
    any_left = false;
    for (std::size_t i = 0; i < kSessions; ++i) {
      if (pos >= streams[i].size()) continue;
      const std::size_t n = std::min(piece, streams[i].size() - pos);
      EXPECT_TRUE(
          manager.Submit(ids[i], streams[i].samples().subspan(pos, n))
              .ok());
      any_left = true;
    }
    pos += piece;
  }
  manager.Drain();

  for (std::size_t i = 0; i < kSessions; ++i) {
    audio::Waveform parallel_out = manager.TakeOutput(ids[i]);
    if (auto tail = manager.Flush(ids[i])) parallel_out.Append(*tail);

    // Reference: the sequential single-threaded path over a pipeline that
    // shares the very same weights.
    core::NecPipeline seq_pipeline(selector_, encoder_, {});
    seq_pipeline.Enroll(builder_.MakeReferenceAudios(speakers[i], 3, 40 + i));
    core::StreamingProcessor seq(seq_pipeline, 1.0,
                                 core::SelectorKind::kNeural);
    audio::Waveform seq_out;
    if (auto out = seq.Push(streams[i].samples())) seq_out = std::move(*out);
    if (auto tail = seq.Flush()) seq_out.Append(*tail);

    ASSERT_EQ(parallel_out.size(), seq_out.size()) << "session " << i;
    for (std::size_t k = 0; k < seq_out.size(); ++k) {
      ASSERT_EQ(parallel_out[k], seq_out[k])
          << "session " << i << " sample " << k;
    }
  }

  const RuntimeStatsSnapshot stats = manager.Stats();
  EXPECT_EQ(stats.sessions, kSessions);
  // 2.5 s per stream at 1 s chunks: 2 full chunks + 1 flush tail each.
  EXPECT_EQ(stats.chunks_processed, kSessions * 3u);
  EXPECT_EQ(stats.chunk_latency.count, kSessions * 3u);
  EXPECT_GT(stats.chunk_latency.p99_ms, 0.0);
  EXPECT_EQ(stats.samples_submitted,
            static_cast<std::uint64_t>(kSessions) * streams[0].size());
}

TEST_F(SessionManagerTest, FlushRequiresIdleSession) {
  SessionManager manager(selector_, encoder_, {},
                         {.workers = 2, .kind = core::SelectorKind::kLasMask});
  const auto spk = synth::SpeakerProfile::FromSeed(5);
  const auto id =
      manager.CreateSession(builder_.MakeReferenceAudios(spk, 3, 9));
  // Nothing submitted: Flush is legal and empty.
  manager.Drain();
  EXPECT_FALSE(manager.Flush(id).has_value());
}

TEST_F(SessionManagerTest, SharedWeightsAreActuallyShared) {
  SessionManager manager(selector_, encoder_, {}, {.workers = 2});
  const auto spk = synth::SpeakerProfile::FromSeed(6);
  manager.CreateSession(builder_.MakeReferenceAudios(spk, 3, 11));
  manager.CreateSession(builder_.MakeReferenceAudios(spk, 3, 12));
  // 1 test-local ref + 1 manager ref + 0 copies inside sessions: sessions
  // must alias the manager's selector, not clone the weights.
  EXPECT_GE(selector_.use_count(), 2);
  EXPECT_EQ(manager.num_sessions(), 2u);
}

TEST_F(SessionManagerTest, ReleasedSessionsAreFreedAndTombstoned) {
  // 200 open/close cycles on one manager leave no live session behind;
  // every 25th session streams a chunk and a flush tail before closing.
  const auto spk = synth::SpeakerProfile::FromSeed(21);
  const auto refs = builder_.MakeReferenceAudios(spk, 3, 22);
  const audio::Waveform stream = builder_.MakeUtterance(spk, 23).wave;
  SessionManager manager(selector_, encoder_, {}, {.workers = 2});
  SessionManager::SessionId last = 0;
  for (std::size_t cycle = 0; cycle < 200; ++cycle) {
    const auto id = manager.CreateSession(refs);
    if (cycle > 0) {
      EXPECT_EQ(id, last + 1);  // ids are never reused
    }
    last = id;
    EXPECT_EQ(manager.num_sessions(), 1u);
    if (cycle % 25 == 0) {
      ASSERT_TRUE(manager.Submit(id, stream.samples()).ok());
      manager.Drain();
      const auto tail = manager.Flush(id);
      EXPECT_TRUE(tail.has_value());
      EXPECT_GT(manager.TakeOutput(id).size(), 0u);
    }
    ASSERT_TRUE(manager.SessionQuiescent(id));
    ASSERT_TRUE(manager.ReleaseSession(id));
    EXPECT_EQ(manager.num_sessions(), 0u);
    EXPECT_TRUE(manager.SessionStatuses().empty());
  }
  EXPECT_EQ(SessionsJson(manager), "{\"sessions\":[]}");
  // A released id is a typed error on every call, never freed memory.
  EXPECT_THROW(manager.Submit(last, stream.samples()), nec::CheckError);
  EXPECT_THROW(manager.SessionStatus(last), nec::CheckError);
  EXPECT_THROW(manager.TakeOutput(last), nec::CheckError);
  EXPECT_THROW(static_cast<void>(manager.ReleaseSession(last)),
               nec::CheckError);

  const auto live = manager.CreateSession(refs);
  const auto statuses = manager.SessionStatuses();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].first, live);
  EXPECT_NE(SessionsJson(manager).find("\"id\":" + std::to_string(live)),
            std::string::npos);
}

TEST_F(SessionManagerTest, ReleaseDiscardsInputNotYetProcessed) {
  // A bounced dispatch leaves the samples buffered with no strand. The
  // release frees the session without computing them: they count as
  // dropped, and no chunk is produced for a client that is gone.
  SessionManager manager(selector_, encoder_, {},
                         {.workers = 1, .kind = core::SelectorKind::kLasMask});
  const auto spk = synth::SpeakerProfile::FromSeed(24);
  const auto id =
      manager.CreateSession(builder_.MakeReferenceAudios(spk, 3, 25));
  const audio::Waveform stream = builder_.MakeUtterance(spk, 26).wave;
  FaultInjector::Global().Arm(
      "pool.submit",
      {.kind = FaultInjector::Kind::kSaturate, .key = id, .limit = 1});
  const SubmitResult r = manager.Submit(id, stream.samples());
  FaultInjector::Global().DisarmAll();
  ASSERT_FALSE(r.ok());
  EXPECT_FALSE(manager.SessionQuiescent(id));
  ASSERT_TRUE(manager.ReleaseSession(id));
  manager.Drain();
  const RuntimeStatsSnapshot stats = manager.Stats();
  EXPECT_EQ(stats.samples_dropped, stream.size());
  EXPECT_EQ(stats.chunks_processed, 0u);
  EXPECT_EQ(manager.num_sessions(), 0u);
}

TEST_F(SessionManagerTest, SessionsJsonIsSafeWhileSessionsAreReleased) {
  // A monitoring thread renders /sessions while the owning thread opens,
  // streams and releases sessions without draining first, so releases
  // meet strands still in flight. Every render must see only live
  // sessions and never read a freed one (ASan and TSan run this).
  const auto spk = synth::SpeakerProfile::FromSeed(27);
  const auto refs = builder_.MakeReferenceAudios(spk, 3, 28);
  const audio::Waveform stream = builder_.MakeUtterance(spk, 29).wave;
  SessionManager manager(selector_, encoder_, {}, {.workers = 2});
  std::atomic<std::size_t> renders{0};
  // Joined on scope exit, before the manager it reads.
  std::jthread monitor([&](std::stop_token stop) {
    while (!stop.stop_requested()) {
      const std::string json = SessionsJson(manager);
      EXPECT_EQ(json.rfind("{\"sessions\":[", 0), 0u);
      renders.fetch_add(1);
    }
  });
  std::vector<SessionManager::SessionId> open;
  for (std::size_t cycle = 0; cycle < 12; ++cycle) {
    const auto id = manager.CreateSession(refs);
    ASSERT_TRUE(manager.Submit(id, stream.samples()).ok());
    open.push_back(id);
    // Release the session before last while this one streams.
    if (open.size() == 2) {
      while (!manager.ReleaseSession(open.front())) {
        std::this_thread::yield();
      }
      open.erase(open.begin());
    }
  }
  while (!manager.ReleaseSession(open.front())) std::this_thread::yield();
  while (renders.load() == 0) std::this_thread::yield();
  monitor.request_stop();
  monitor.join();
  EXPECT_EQ(manager.num_sessions(), 0u);
  EXPECT_EQ(SessionsJson(manager), "{\"sessions\":[]}");
}

TEST_F(SessionManagerTest, RejectBackpressureLeavesSamplesBuffered) {
  // One worker, capacity-1 queue, kReject: hammer one session from two
  // producers; rejected dispatches must not lose samples — after a final
  // successful Submit+Drain every sample is accounted for.
  SessionManager manager(selector_, encoder_, {},
                         {.workers = 1,
                          .queue_capacity = 1,
                          .policy = OverflowPolicy::kReject,
                          .chunk_s = 1.0,
                          .kind = core::SelectorKind::kLasMask});
  const auto spk = synth::SpeakerProfile::FromSeed(8);
  const auto id =
      manager.CreateSession(builder_.MakeReferenceAudios(spk, 3, 21));
  const audio::Waveform stream = builder_.MakeUtterance(spk, 3).wave;

  const std::size_t piece = 2000;
  for (std::size_t pos = 0; pos < stream.size(); pos += piece) {
    const std::size_t n = std::min(piece, stream.size() - pos);
    // Result intentionally ignored: kReject may bounce the dispatch but
    // must keep the samples buffered for a later strand.
    manager.Submit(id, stream.samples().subspan(pos, n));
  }
  // Keep nudging until a dispatch lands, then drain.
  while (!manager.Submit(id, {})) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  manager.Drain();

  audio::Waveform out = manager.TakeOutput(id);
  if (auto tail = manager.Flush(id)) out.Append(*tail);
  // 2.5 s at 1 s chunks → 3 chunks of modulated output, none lost.
  const RuntimeStatsSnapshot stats = manager.Stats();
  EXPECT_EQ(stats.chunks_processed, 3u);
  EXPECT_GT(out.size(), 0u);
}

TEST_F(SessionManagerTest, DropOldestEvictionUnwedgesSession) {
  // Regression: an evicted queued strand used to leave its session's
  // `running` flag true and in_flight_ non-zero forever — the session was
  // wedged (audio never processed, Flush CHECK-failed) and Drain
  // deadlocked. Now the eviction unwinds the session: stale audio is
  // discarded, the session returns to idle, and the loss is counted.
  SessionManager manager(selector_, encoder_, {},
                         {.workers = 1,
                          .queue_capacity = 1,
                          .policy = OverflowPolicy::kDropOldest,
                          .chunk_s = 1.0,
                          .kind = core::SelectorKind::kNeural});
  const auto spk_a = synth::SpeakerProfile::FromSeed(31);
  const auto spk_b = synth::SpeakerProfile::FromSeed(32);
  const auto spk_c = synth::SpeakerProfile::FromSeed(33);
  const auto a =
      manager.CreateSession(builder_.MakeReferenceAudios(spk_a, 3, 61));
  const auto b =
      manager.CreateSession(builder_.MakeReferenceAudios(spk_b, 3, 62));
  const auto c =
      manager.CreateSession(builder_.MakeReferenceAudios(spk_c, 3, 63));
  const audio::Waveform sa = builder_.MakeUtterance(spk_a, 71).wave;
  const audio::Waveform sb = builder_.MakeUtterance(spk_b, 72).wave;
  const audio::Waveform sc = builder_.MakeUtterance(spk_c, 73).wave;

  // A's strand occupies the single worker (2.5 s of neural-selector work;
  // wait until the worker has popped it so the queue is empty), B's strand
  // sits in the capacity-1 queue, and C's dispatch evicts B's.
  EXPECT_TRUE(manager.Submit(a, sa.samples()).ok());
  while (manager.Stats().queue_depth != 0) std::this_thread::yield();
  EXPECT_TRUE(manager.Submit(b, sb.samples()).ok());
  EXPECT_TRUE(manager.Submit(c, sc.samples()).ok());

  manager.Drain();  // deadlocked here before the fix
  const RuntimeStatsSnapshot stats = manager.Stats();
  EXPECT_EQ(stats.dispatch_drops, 1u);
  EXPECT_EQ(stats.samples_dropped, sb.size());

  // The evicted session is idle: Flush passes its idle check (its
  // processor never saw the dropped audio) and a fresh Submit runs
  // normally.
  EXPECT_FALSE(manager.Flush(b).has_value());
  EXPECT_TRUE(manager.Submit(b, sb.samples()).ok());
  manager.Drain();
  audio::Waveform out = manager.TakeOutput(b);
  if (auto tail = manager.Flush(b)) out.Append(*tail);
  EXPECT_GT(out.size(), 0u);

  // The sessions that were not evicted processed their full streams.
  EXPECT_GT(manager.TakeOutput(a).size(), 0u);
  EXPECT_GT(manager.TakeOutput(c).size(), 0u);
}

TEST_F(SessionManagerTest, StrandsYieldSoEverySessionIsServed) {
  // Twice as many sessions as workers, each fed as fast as it is served
  // (kept 2 chunks deep). A strand that drained its inbox until empty
  // would never let go of its worker, and half the sessions would
  // complete nothing; a strand that re-posts itself after each take lets
  // every session in. Checked once 48 chunks have completed in total.
  constexpr std::size_t kSessions = 8;
  constexpr std::size_t kDepth = 2;
  constexpr std::uint64_t kTotal = 48;
  SessionManager manager(selector_, encoder_, {},
                         {.workers = 4,
                          .chunk_s = 1.0,
                          .kind = core::SelectorKind::kNeural});
  std::vector<SessionManager::SessionId> ids;
  std::vector<audio::Waveform> chunks;
  for (std::size_t i = 0; i < kSessions; ++i) {
    const auto spk = synth::SpeakerProfile::FromSeed(600 + i);
    ids.push_back(
        manager.CreateSession(builder_.MakeReferenceAudios(spk, 3, 70 + i)));
    chunks.push_back(builder_.MakeUtterance(spk, 80 + i)
                         .wave.Slice(0, manager.chunk_samples()));
  }
  std::vector<std::uint64_t> submitted(kSessions, 0), emitted(kSessions, 0);
  for (;;) {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kSessions; ++i) {
      emitted[i] = manager.SessionStatus(ids[i]).chunks_emitted;
      total += emitted[i];
    }
    if (total >= kTotal) break;
    for (std::size_t i = 0; i < kSessions; ++i) {
      manager.TakeOutput(ids[i]);
      while (submitted[i] - emitted[i] < kDepth) {
        ASSERT_TRUE(manager.Submit(ids[i], chunks[i].samples()).ok());
        ++submitted[i];
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  for (std::size_t i = 0; i < kSessions; ++i) {
    EXPECT_GE(emitted[i], 2u) << "session " << i << " was starved";
  }
  manager.Drain();
}

TEST_F(SessionManagerTest, DropOldestEvictionStress) {
  // TSan-oriented stress of drop-oldest eviction: producers' Submits
  // evict queued strands (AbandonStrand on the submitter threads) while
  // running strands take, process and re-post themselves. The invariants:
  // no deadlock, no evicted backlog processed after its eviction (a
  // violation shows up as a torn StreamingProcessor under TSan), and the
  // stats stay self-consistent.
  constexpr std::size_t kSessions = 3;
  SessionManager manager(selector_, encoder_, {},
                         {.workers = 1,
                          .queue_capacity = 1,
                          .policy = OverflowPolicy::kDropOldest,
                          .chunk_s = 1.0,
                          .kind = core::SelectorKind::kNeural});
  std::vector<SessionManager::SessionId> ids;
  std::vector<audio::Waveform> streams;
  for (std::size_t i = 0; i < kSessions; ++i) {
    const auto spk = synth::SpeakerProfile::FromSeed(300 + i);
    ids.push_back(manager.CreateSession(
        builder_.MakeReferenceAudios(spk, 3, 90 + i)));
    streams.push_back(builder_.MakeUtterance(spk, 27 + i).wave);
  }

  std::vector<std::thread> producers;
  for (std::size_t i = 0; i < kSessions; ++i) {
    producers.emplace_back([&, i] {
      const std::size_t piece = 2000;
      for (std::size_t pos = 0; pos < streams[i].size(); pos += piece) {
        const std::size_t n = std::min(piece, streams[i].size() - pos);
        manager.Submit(ids[i], streams[i].samples().subspan(pos, n));
      }
    });
  }
  for (auto& t : producers) t.join();
  manager.Drain();

  const RuntimeStatsSnapshot stats = manager.Stats();
  EXPECT_LE(stats.samples_dropped, stats.samples_submitted);
  EXPECT_LE(stats.chunks_processed * manager.chunk_samples(),
            stats.samples_submitted - stats.samples_dropped);
  // Every session is idle after Drain: Flush's idle check must pass even
  // for sessions whose strands were evicted mid-stream.
  for (std::size_t i = 0; i < kSessions; ++i) {
    manager.Flush(ids[i]);
    manager.TakeOutput(ids[i]);
  }
}

TEST_F(SessionManagerTest, EndToEndLatencyRecordedForEveryChunk) {
  // Honest-accounting satellite: the runtime must expose end-to-end
  // latency (ready -> complete, queue wait included) next to the
  // compute-only chunk latency. Every chunk records both, and because the
  // e2e window starts at readiness — before any queue wait — its maximum
  // can never undercut the compute maximum.
  constexpr std::size_t kSessions = 3;
  SessionManager manager(selector_, encoder_, {},
                         {.workers = 2,
                          .queue_capacity = 64,
                          .chunk_s = 1.0,
                          .kind = core::SelectorKind::kNeural});
  std::vector<SessionManager::SessionId> ids;
  for (std::size_t i = 0; i < kSessions; ++i) {
    const auto spk = synth::SpeakerProfile::FromSeed(400 + i);
    ids.push_back(
        manager.CreateSession(builder_.MakeReferenceAudios(spk, 3, 95 + i)));
    ASSERT_TRUE(
        manager.Submit(ids[i], builder_.MakeUtterance(spk, 37 + i).wave.samples())
            .ok());
  }
  manager.Drain();
  for (std::size_t i = 0; i < kSessions; ++i) manager.Flush(ids[i]);

  const RuntimeStatsSnapshot stats = manager.Stats();
  EXPECT_EQ(stats.chunks_processed, kSessions * 3u);
  EXPECT_EQ(stats.e2e_latency.count, stats.chunk_latency.count);
  EXPECT_GT(stats.e2e_latency.p99_ms, 0.0);
  EXPECT_GE(stats.e2e_latency.max_ms + 1e-6, stats.chunk_latency.max_ms);
}

}  // namespace
}  // namespace nec::runtime
