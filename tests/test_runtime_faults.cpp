// Fault-tolerance stress suite for nec::runtime (DESIGN.md §5f).
//
// Drives every containment path with the deterministic FaultInjector:
// per-session error containment (one poisoned session, seven bit-exact
// survivors), typed Submit errors (overload / bad input), and the
// deadline-watchdog degradation ladder with recovery probes. Runs under
// TSan in tools/check.sh — the containment machinery must be race-free,
// not just correct.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "common/check.h"
#include "core/streaming.h"
#include "runtime/fault.h"
#include "runtime/session_manager.h"
#include "runtime/stats.h"
#include "synth/dataset.h"

namespace nec::runtime {
namespace {

// ---------------------------------------------------------- FaultInjector

TEST(FaultInjector, DisarmedIsCompletelyInert) {
  FaultInjector injector;
  EXPECT_FALSE(injector.armed());
  for (int i = 0; i < 100; ++i) {
    EXPECT_NO_THROW(injector.OnSite("strand.chunk", 7));
    EXPECT_FALSE(injector.SaturateAt("pool.submit", 7));
  }
  EXPECT_EQ(injector.injections("strand.chunk"), 0u);
}

TEST(FaultInjector, ThrowCarriesCategoryAndHonorsSkipAndLimit) {
  FaultInjector injector;
  injector.Arm("site", {.kind = FaultInjector::Kind::kThrow,
                        .category = ErrorCategory::kDeadlineMiss,
                        .skip_first = 2,
                        .limit = 3});
  int thrown = 0;
  for (int hit = 0; hit < 10; ++hit) {
    try {
      injector.OnSite("site");
    } catch (const InjectedFault& f) {
      ++thrown;
      EXPECT_EQ(f.category(), ErrorCategory::kDeadlineMiss);
      // skip_first lets hits 0 and 1 pass; limit stops after 3 throws.
      EXPECT_GE(hit, 2);
      EXPECT_LT(hit, 5);
    }
  }
  EXPECT_EQ(thrown, 3);
  EXPECT_EQ(injector.injections("site"), 3u);
  injector.DisarmAll();
  EXPECT_FALSE(injector.armed());
  EXPECT_NO_THROW(injector.OnSite("site"));
}

TEST(FaultInjector, KeyFilterTargetsOneSessionOnly) {
  FaultInjector injector;
  injector.Arm("site", {.kind = FaultInjector::Kind::kThrow, .key = 3});
  for (std::uint64_t key = 0; key < 8; ++key) {
    if (key == 3) {
      EXPECT_THROW(injector.OnSite("site", key), InjectedFault);
    } else {
      EXPECT_NO_THROW(injector.OnSite("site", key));
    }
  }
  EXPECT_EQ(injector.injections("site"), 1u);  // only the key-3 hit fired
}

TEST(FaultInjector, SeededProbabilityIsReproducible) {
  const auto pattern = [](std::uint64_t seed) {
    FaultInjector injector;
    injector.Arm("site",
                 {.kind = FaultInjector::Kind::kThrow, .probability = 0.3},
                 seed);
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) {
      try {
        injector.OnSite("site");
        fired.push_back(false);
      } catch (const InjectedFault&) {
        fired.push_back(true);
      }
    }
    return fired;
  };
  const std::vector<bool> a = pattern(42);
  const std::vector<bool> b = pattern(42);
  EXPECT_EQ(a, b);
  // Some hits fired and some passed — the probability gate is real.
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), false), 0);
}

TEST(FaultInjector, SaturateFiresOnlyForSaturateSpecs) {
  FaultInjector injector;
  injector.Arm("q", {.kind = FaultInjector::Kind::kSaturate, .limit = 2});
  EXPECT_TRUE(injector.SaturateAt("q"));
  EXPECT_TRUE(injector.SaturateAt("q"));
  EXPECT_FALSE(injector.SaturateAt("q"));  // limit exhausted
  // A saturate spec never throws from OnSite.
  EXPECT_NO_THROW(injector.OnSite("q"));
}

// --------------------------------------------------------- input hygiene

TEST(SampleHygiene, ScanCountsWithoutModifying) {
  std::vector<float> samples = {0.5f,
                                std::numeric_limits<float>::quiet_NaN(),
                                -0.25f,
                                std::numeric_limits<float>::infinity(),
                                100.0f,
                                -3.9f};
  const std::vector<float> before = samples;
  const SampleScan scan = ScanSamples(samples);
  EXPECT_EQ(scan.nonfinite, 2u);
  EXPECT_EQ(scan.wild, 1u);  // -3.9 is within kWildSampleLimit
  EXPECT_FALSE(scan.clean());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    // Bitwise unchanged (NaN != NaN, so compare representations by scan).
    EXPECT_EQ(std::isnan(samples[i]), std::isnan(before[i]));
    if (!std::isnan(before[i])) {
      EXPECT_EQ(samples[i], before[i]);
    }
  }
}

TEST(SampleHygiene, SanitizeRepairsOnlyCorruptSamples) {
  std::vector<float> samples = {0.5f,
                                std::numeric_limits<float>::quiet_NaN(),
                                -0.25f,
                                -std::numeric_limits<float>::infinity(),
                                100.0f,
                                -77.0f};
  const SampleScan scan = SanitizeSamples(samples);
  EXPECT_EQ(scan.nonfinite, 2u);
  EXPECT_EQ(scan.wild, 2u);
  const std::vector<float> expected = {0.5f, 0.0f, -0.25f,
                                       0.0f, 1.0f, -1.0f};
  EXPECT_EQ(samples, expected);
  // A second pass finds nothing: sanitization is idempotent.
  std::vector<float> again = samples;
  EXPECT_TRUE(SanitizeSamples(again).clean());
  EXPECT_EQ(again, samples);
}

// -------------------------------------------------- SessionManager faults

core::NecConfig SmallConfig() {
  core::NecConfig cfg = core::NecConfig::Fast();
  cfg.conv_channels = 6;
  cfg.fc_hidden = 32;
  return cfg;
}

class RuntimeFaultTest : public ::testing::Test {
 protected:
  RuntimeFaultTest()
      : cfg_(SmallConfig()),
        selector_(std::make_shared<const core::Selector>(cfg_, 7)),
        encoder_(std::make_shared<encoder::LasEncoder>(cfg_.embedding_dim)),
        builder_({.duration_s = 2.5}) {
    // The injector is process-global: never let one test's armed sites
    // leak into the next.
    FaultInjector::Global().DisarmAll();
  }
  ~RuntimeFaultTest() override { FaultInjector::Global().DisarmAll(); }

  /// Sequential single-threaded reference over the same shared weights.
  audio::Waveform SequentialReference(const synth::SpeakerProfile& spk,
                                      std::uint64_t ref_seed,
                                      const audio::Waveform& stream,
                                      core::SelectorKind kind) {
    core::NecPipeline pipeline(selector_, encoder_, {});
    pipeline.Enroll(builder_.MakeReferenceAudios(spk, 3, ref_seed));
    core::StreamingProcessor seq(pipeline, 1.0, kind);
    audio::Waveform out;
    if (auto o = seq.Push(stream.samples())) out = std::move(*o);
    if (auto tail = seq.Flush()) out.Append(*tail);
    return out;
  }

  static void ExpectBitIdentical(const audio::Waveform& got,
                                 const audio::Waveform& want,
                                 const char* label) {
    ASSERT_EQ(got.size(), want.size()) << label;
    for (std::size_t k = 0; k < want.size(); ++k) {
      ASSERT_EQ(got[k], want[k]) << label << " sample " << k;
    }
  }

  core::NecConfig cfg_;
  std::shared_ptr<const core::Selector> selector_;
  std::shared_ptr<const encoder::SpeakerEncoder> encoder_;
  synth::DatasetBuilder builder_;
};

TEST_F(RuntimeFaultTest, BadInputRejectReturnsTypedErrorWithoutBuffering) {
  SessionManager manager(
      selector_, encoder_, {},
      {.workers = 1,
       .chunk_s = 1.0,
       .kind = core::SelectorKind::kLasMask,
       .fault = {.bad_input = BadInputPolicy::kReject}});
  const auto spk = synth::SpeakerProfile::FromSeed(201);
  const auto id =
      manager.CreateSession(builder_.MakeReferenceAudios(spk, 3, 211));
  audio::Waveform poisoned = builder_.MakeUtterance(spk, 221).wave;
  poisoned.data()[100] = std::numeric_limits<float>::quiet_NaN();

  const SubmitResult r = manager.Submit(id, poisoned.samples());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error->category, ErrorCategory::kBadInput);
  // The rejection is a Submit verdict, not a session fault: the session
  // stays serviceable and the rejected samples were never buffered.
  EXPECT_EQ(manager.SessionStatus(id).state, SessionState::kIdle);
  manager.Drain();
  EXPECT_EQ(manager.Stats().chunks_processed, 0u);
  EXPECT_EQ(manager.Stats().bad_input_rejections, 1u);

  const audio::Waveform clean = builder_.MakeUtterance(spk, 221).wave;
  EXPECT_TRUE(manager.Submit(id, clean.samples()).ok());
  manager.Drain();
  EXPECT_EQ(manager.Stats().chunks_processed, 2u);  // 2.5 s at 1 s chunks
}

TEST_F(RuntimeFaultTest, SanitizedStreamMatchesManuallyRepairedStream) {
  SessionManager manager(selector_, encoder_, {},
                         {.workers = 2,
                          .chunk_s = 1.0,
                          .kind = core::SelectorKind::kLasMask});
  const auto spk = synth::SpeakerProfile::FromSeed(202);
  const auto refs = builder_.MakeReferenceAudios(spk, 3, 212);
  const auto a = manager.CreateSession(refs);
  const auto b = manager.CreateSession(refs);

  audio::Waveform corrupt = builder_.MakeUtterance(spk, 222).wave;
  audio::Waveform repaired = corrupt;
  corrupt.data()[10] = std::numeric_limits<float>::quiet_NaN();
  repaired.data()[10] = 0.0f;
  corrupt.data()[5000] = -std::numeric_limits<float>::infinity();
  repaired.data()[5000] = 0.0f;
  corrupt.data()[9000] = 250.0f;
  repaired.data()[9000] = 1.0f;

  EXPECT_TRUE(manager.Submit(a, corrupt.samples()).ok());
  EXPECT_TRUE(manager.Submit(b, repaired.samples()).ok());
  manager.Drain();
  EXPECT_EQ(manager.Stats().samples_sanitized, 3u);

  audio::Waveform out_a = manager.TakeOutput(a);
  if (auto tail = manager.Flush(a)) out_a.Append(*tail);
  audio::Waveform out_b = manager.TakeOutput(b);
  if (auto tail = manager.Flush(b)) out_b.Append(*tail);
  // kSanitize repaired exactly the corrupt samples, so the two streams are
  // identical by the time they reach the DSP — and so is the output.
  ExpectBitIdentical(out_a, out_b, "sanitized-vs-repaired");
}

TEST_F(RuntimeFaultTest, InjectedSaturationSurfacesTypedOverloadError) {
  SessionManager manager(selector_, encoder_, {},
                         {.workers = 1,
                          .chunk_s = 1.0,
                          .kind = core::SelectorKind::kLasMask});
  const auto spk = synth::SpeakerProfile::FromSeed(203);
  const auto id =
      manager.CreateSession(builder_.MakeReferenceAudios(spk, 3, 213));
  const audio::Waveform stream = builder_.MakeUtterance(spk, 223).wave;

  FaultInjector::Global().Arm(
      "pool.submit",
      {.kind = FaultInjector::Kind::kSaturate, .key = id, .limit = 1});
  const SubmitResult r = manager.Submit(id, stream.samples());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error->category, ErrorCategory::kOverload);
  EXPECT_EQ(manager.Stats().dispatch_rejections, 1u);

  // kOverload's contract: the samples ARE buffered; an empty nudge
  // redispatches and nothing is lost.
  EXPECT_TRUE(manager.Submit(id, {}).ok());
  manager.Drain();
  const RuntimeStatsSnapshot stats = manager.Stats();
  EXPECT_EQ(stats.chunks_processed, 2u);
  EXPECT_EQ(stats.samples_dropped, 0u);
  EXPECT_EQ(stats.faults, 0u);
}

// The acceptance scenario: 8 concurrent sessions, faults injected into
// exactly one, the other 7 bit-identical to an uninjected run; the faulted
// session reports the right category and ResetSession restores service.
TEST_F(RuntimeFaultTest, FaultIsContainedToThePoisonedSession) {
  constexpr std::size_t kSessions = 8;
  SessionManager manager(selector_, encoder_, {},
                         {.workers = 3,
                          .queue_capacity = 64,
                          .chunk_s = 1.0,
                          .kind = core::SelectorKind::kLasMask});

  std::vector<synth::SpeakerProfile> speakers;
  std::vector<SessionManager::SessionId> ids;
  std::vector<audio::Waveform> streams;
  for (std::size_t i = 0; i < kSessions; ++i) {
    speakers.push_back(synth::SpeakerProfile::FromSeed(300 + i));
    ids.push_back(manager.CreateSession(
        builder_.MakeReferenceAudios(speakers[i], 3, 310 + i)));
    streams.push_back(builder_.MakeUtterance(speakers[i], 320 + i).wave);
  }
  const SessionManager::SessionId victim = ids[3];
  FaultInjector::Global().Arm("strand.chunk",
                              {.kind = FaultInjector::Kind::kThrow,
                               .category = ErrorCategory::kInvariant,
                               .key = victim});

  // Interleave pieces so all strands overlap while the victim faults.
  const std::size_t piece = 3700;
  std::size_t pos = 0;
  bool any_left = true;
  while (any_left) {
    any_left = false;
    for (std::size_t i = 0; i < kSessions; ++i) {
      if (pos >= streams[i].size()) continue;
      // Victim submits start failing once the fault lands; survivors
      // must keep succeeding.
      const SubmitResult r =
          manager.Submit(ids[i], streams[i].samples().subspan(
                                     pos, std::min(piece, streams[i].size() -
                                                              pos)));
      if (ids[i] != victim) {
        EXPECT_TRUE(r.ok());
      }
      any_left = true;
    }
    pos += piece;
  }
  manager.Drain();

  // Survivors: bit-identical to the uninjected sequential path.
  for (std::size_t i = 0; i < kSessions; ++i) {
    if (ids[i] == victim) continue;
    audio::Waveform out = manager.TakeOutput(ids[i]);
    if (auto tail = manager.Flush(ids[i])) out.Append(*tail);
    ExpectBitIdentical(out,
                       SequentialReference(speakers[i], 310 + i, streams[i],
                                           core::SelectorKind::kLasMask),
                       "survivor");
  }

  // Victim: faulted with the injected category, no output, Flush sheds.
  const SessionStatus faulted = manager.SessionStatus(victim);
  EXPECT_EQ(faulted.state, SessionState::kFaulted);
  ASSERT_TRUE(faulted.error.has_value());
  EXPECT_EQ(faulted.error->category, ErrorCategory::kInvariant);
  EXPECT_EQ(faulted.chunks_emitted, 0u);
  EXPECT_EQ(faulted.faults, 1u);
  EXPECT_FALSE(manager.Flush(victim).has_value());
  EXPECT_FALSE(manager.Submit(victim, streams[3].samples()).ok());

  RuntimeStatsSnapshot stats = manager.Stats();
  EXPECT_EQ(stats.faults, 1u);
  EXPECT_EQ(stats.faults_by_category[static_cast<std::size_t>(
                ErrorCategory::kInvariant)],
            1u);
  EXPECT_GT(stats.samples_dropped, 0u);
  // Containment held at the session boundary — nothing escaped to the
  // pool's last-resort catch.
  EXPECT_EQ(stats.worker_exceptions, 0u);

  // Recovery: disarm, reset, and the victim serves a fresh stream with
  // output bit-identical to a from-scratch sequential run.
  FaultInjector::Global().DisarmAll();
  manager.TakeOutput(victim);
  manager.ResetSession(victim);
  EXPECT_EQ(manager.SessionStatus(victim).state, SessionState::kIdle);
  EXPECT_TRUE(manager.Submit(victim, streams[3].samples()).ok());
  manager.Drain();
  audio::Waveform out = manager.TakeOutput(victim);
  if (auto tail = manager.Flush(victim)) out.Append(*tail);
  ExpectBitIdentical(out,
                     SequentialReference(speakers[3], 313, streams[3],
                                         core::SelectorKind::kLasMask),
                     "reset victim");
  EXPECT_EQ(manager.Stats().session_resets, 1u);
}

TEST_F(RuntimeFaultTest, ErrorPolicyDegradeStepsDownAndProbesBackUp) {
  SessionManager manager(selector_, encoder_, {},
                         {.workers = 1,
                          .chunk_s = 1.0,
                          .kind = core::SelectorKind::kNeural,
                          // A probe chunk that misses the deadline does not
                          // promote; this test is about error-driven
                          // degradation, so park the deadline far above what
                          // a sanitizer-slowed neural chunk can hit.
                          .deadline_ms = 600000.0,
                          .fault = {.on_error = FaultPolicy::kDegrade,
                                    .recovery_probe_chunks = 1,
                                    .max_retries = 1}});
  const auto spk = synth::SpeakerProfile::FromSeed(204);
  const auto id =
      manager.CreateSession(builder_.MakeReferenceAudios(spk, 3, 214));
  synth::DatasetBuilder long_builder({.duration_s = 4.5});
  const audio::Waveform stream = long_builder.MakeUtterance(spk, 224).wave;

  // Chunk 1: two injected throws burn the retry then force a step down to
  // the LAS rung, where the (exhausted) injector lets it emit — one clean
  // LAS chunk, which already satisfies the probe threshold of 1. Chunk 2
  // probes the neural rung, succeeds, and promotes. Chunks 3-4 are normal
  // neural.
  FaultInjector::Global().Arm(
      "strand.chunk",
      {.kind = FaultInjector::Kind::kThrow, .key = id, .limit = 2});
  EXPECT_TRUE(manager.Submit(id, stream.samples()).ok());
  manager.Drain();

  const RuntimeStatsSnapshot stats = manager.Stats();
  EXPECT_EQ(stats.faults, 0u);
  EXPECT_EQ(stats.chunk_retries, 1u);
  EXPECT_EQ(stats.degrade_steps_down, 1u);
  EXPECT_EQ(stats.degrade_steps_up, 1u);
  EXPECT_EQ(stats.chunks_processed, 4u);
  const SessionStatus status = manager.SessionStatus(id);
  EXPECT_EQ(status.state, SessionState::kIdle);
  EXPECT_EQ(status.level, DegradeLevel::kNeural);
  EXPECT_EQ(status.chunks_emitted, 4u);
  EXPECT_GT(manager.TakeOutput(id).size(), 0u);
}

TEST_F(RuntimeFaultTest, DeadlineWatchdogWalksTheLadderAndRecovers) {
  // LAS-kind session so the clean-chunk compute is far under the budget
  // even with sanitizers on: every deadline miss below is injector-driven
  // and the schedule is deterministic. Sanitizer instrumentation slows
  // the LAS probe chunk ~2-10x, so widen the budget there (same idiom as
  // StreamingTest.LatencySanity); the injected latency below must stay
  // well above the widened budget for the miss schedule to hold.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  constexpr double kBudgetMs = 1000.0;
#else
  constexpr double kBudgetMs = 150.0;
#endif
  SessionManager manager(selector_, encoder_, {},
                         {.workers = 1,
                          .chunk_s = 1.0,
                          .kind = core::SelectorKind::kLasMask,
                          .deadline_ms = kBudgetMs,
                          .fault = {.degrade_on_deadline = true,
                                    .deadline_miss_threshold = 2,
                                    .recovery_probe_chunks = 2}});
  const auto spk = synth::SpeakerProfile::FromSeed(205);
  const auto id =
      manager.CreateSession(builder_.MakeReferenceAudios(spk, 3, 215));
  synth::DatasetBuilder long_builder({.duration_s = 8.0});
  const audio::Waveform stream = long_builder.MakeUtterance(spk, 225).wave;

  // Chunks 1-4 each sleep past the budget: misses 1 and 2 demote
  // LAS → silence (threshold 2); 3 and 4 miss at the floor. Chunks 5-6
  // are clean silence chunks (2 successes), so chunk 7 probes the LAS
  // rung — the injector is exhausted, the probe lands in budget, and the
  // session promotes back to its top rung for chunk 8.
  FaultInjector::Global().Arm("strand.chunk",
                              {.kind = FaultInjector::Kind::kLatency,
                               .latency_ms = kBudgetMs * 3.0,
                               .key = id,
                               .limit = 4});
  EXPECT_TRUE(manager.Submit(id, stream.samples()).ok());
  manager.Drain();

  const RuntimeStatsSnapshot stats = manager.Stats();
  EXPECT_EQ(stats.faults, 0u);
  EXPECT_GE(stats.deadline_misses, 4u);
  EXPECT_EQ(stats.degrade_steps_down, 1u);
  EXPECT_EQ(stats.degrade_steps_up, 1u);
  EXPECT_EQ(stats.chunks_processed, 8u);  // cadence survives degradation
  const SessionStatus status = manager.SessionStatus(id);
  EXPECT_EQ(status.state, SessionState::kIdle);
  EXPECT_EQ(status.level, DegradeLevel::kLasFallback);  // = top for LAS
  EXPECT_GE(status.deadline_misses, 4u);
  EXPECT_EQ(status.chunks_emitted, 8u);
}

}  // namespace
}  // namespace nec::runtime
