// nec::obs: trace ring semantics (wraparound, concurrency, Chrome JSON
// well-formedness), leveled/rate-limited logging, Prometheus exposition
// round-trip + lint, LatencyHistogram bucket export, and the metrics HTTP
// endpoint. The concurrent-recording tests are in the TSan regex of
// tools/check.sh on purpose: the per-thread rings claim wait-freedom and
// this is where that claim is checked.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "audio/waveform.h"
#include "channel/modulation.h"
#include "dsp/resample.h"
#include "net/fleet.h"
#include "obs/http.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/stats.h"
#include "runtime/stats_export.h"

namespace nec {
namespace {

using obs::TraceEventKind;
using obs::TraceRecorder;

// ------------------------------------------------------------- helpers

/// Minimal JSON syntax check: balanced braces/brackets outside strings,
/// valid escapes, non-empty. Not a full parser — enough to catch the
/// classic exporter bugs (trailing comma handled by scan, unterminated
/// string, unbalanced scope).
bool JsonWellFormed(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': ++depth; break;
      case '}': case ']':
        if (--depth < 0) return false;
        break;
      default: break;
    }
  }
  return depth == 0 && !in_string && !s.empty();
}

/// Scoped trace reset: tests own the process-global recorder.
struct TraceReset {
  TraceReset() { Reset(); }
  ~TraceReset() { Reset(); }
  static void Reset() {
    TraceRecorder::Global().Disable();
    TraceRecorder::Global().Clear();
  }
};

/// Scoped logger reset to defaults + capture.
struct LogCapture {
  std::vector<obs::LogRecord> records;
  LogCapture() {
    obs::SetLogLevel(obs::LogLevel::kInfo);
    obs::ClearComponentLogLevels();
    obs::SetLogCapture([this](const obs::LogRecord& r) {
      records.push_back(r);
    });
  }
  ~LogCapture() {
    obs::SetLogCapture(nullptr);
    obs::SetLogFormat(obs::LogFormat::kText);
    obs::SetLogLevel(obs::LogLevel::kInfo);
    obs::ClearComponentLogLevels();
  }
};

// --------------------------------------------------------------- trace

TEST(Trace, DisabledSiteRecordsNothing) {
  TraceReset reset;
  {
    obs::TraceSpan span("never");
    EXPECT_FALSE(span.armed());
  }
  obs::TraceInstant("never.instant");
  EXPECT_EQ(TraceRecorder::Global().events_recorded(), 0u);
  EXPECT_EQ(TraceRecorder::Global().events_dropped(), 0u);
}

TEST(Trace, RecordsSpansInstantsAndFlows) {
  TraceReset reset;
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Enable(/*ring_capacity=*/256);
  TraceRecorder::SetThreadName("gtest-main");

  const std::uint64_t flow = rec.NextFlowId();
  EXPECT_NE(flow, 0u);
  EXPECT_NE(rec.NextFlowId(), flow);
  {
    obs::TraceSpan span("unit.work", "nec", /*arg=*/42);
    EXPECT_TRUE(span.armed());
    span.SetFlow(flow);
  }
  rec.RecordFlow(TraceEventKind::kFlowBegin, "unit.flow", flow);
  rec.RecordFlow(TraceEventKind::kFlowEnd, "unit.flow", flow);
  obs::TraceInstant("unit.fault", 7);
  EXPECT_EQ(rec.events_recorded(), 4u);

  const std::string json = rec.ChromeTraceJson();
  EXPECT_TRUE(JsonWellFormed(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"unit.work\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  // Thread-name metadata + the span's numeric arg survive the export.
  EXPECT_NE(json.find("\"gtest-main\""), std::string::npos);
  EXPECT_NE(json.find("42"), std::string::npos);
}

TEST(Trace, RingWraparoundKeepsNewestEvents) {
  TraceReset reset;
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Enable(/*ring_capacity=*/8);
  for (int i = 0; i < 12; ++i) {
    rec.RecordSpan("early.span", "nec", obs::TraceNowNs(), 10);
  }
  for (int i = 0; i < 8; ++i) {
    rec.RecordSpan("late.span", "nec", obs::TraceNowNs(), 10);
  }
  EXPECT_EQ(rec.events_recorded(), 8u);
  EXPECT_EQ(rec.events_dropped(), 12u);
  const std::string json = rec.ChromeTraceJson();
  EXPECT_TRUE(JsonWellFormed(json)) << json;
  EXPECT_NE(json.find("late.span"), std::string::npos);
  EXPECT_EQ(json.find("early.span"), std::string::npos);

  rec.Clear();
  EXPECT_EQ(rec.events_recorded(), 0u);
  EXPECT_EQ(rec.events_dropped(), 0u);
}

TEST(Trace, ConcurrentRecordingIsRaceFree) {
  TraceReset reset;
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Enable(/*ring_capacity=*/1024);

  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 200;
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ready] {
      TraceRecorder::SetThreadName("recorder");
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kSpansPerThread; ++i) {
        obs::TraceSpan span("mt.span");
        obs::TraceInstant("mt.instant",
                          static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(rec.events_recorded(),
            static_cast<std::uint64_t>(kThreads * kSpansPerThread * 2));
  EXPECT_EQ(rec.events_dropped(), 0u);
  EXPECT_TRUE(JsonWellFormed(rec.ChromeTraceJson()));
}

TEST(Trace, UntracedThreadHoldsNoEventStorage) {
  TraceReset reset;
  TraceRecorder& rec = TraceRecorder::Global();
  const std::size_t before = rec.event_storage_bytes();

  // A thread named while tracing is off registers a ring with no event
  // storage. It then records without pause while the main thread turns
  // tracing on under it: records that race Enable are dropped or land
  // in the sized ring, never in an empty one.
  std::atomic<bool> named{false};
  std::atomic<bool> stop{false};
  std::thread worker([&] {
    TraceRecorder::SetThreadName("late-traced");
    named.store(true);
    while (!stop.load()) {
      rec.RecordSpan("late.span", "nec", obs::TraceNowNs(), 1);
    }
  });
  while (!named.load()) std::this_thread::yield();
  EXPECT_EQ(rec.event_storage_bytes(), before);
  EXPECT_EQ(rec.events_recorded(), 0u);

  rec.Enable(/*ring_capacity=*/64);
  while (rec.events_recorded() == 0) std::this_thread::yield();
  stop.store(true);
  worker.join();

  EXPECT_GT(rec.events_recorded(), 0u);
  EXPECT_LE(rec.events_recorded(), 64u);
  const std::string json = rec.ChromeTraceJson();
  EXPECT_TRUE(JsonWellFormed(json));
  EXPECT_NE(json.find("\"late-traced\""), std::string::npos);
  EXPECT_NE(json.find("\"late.span\""), std::string::npos);
}

// ----------------------------------------------------------------- log

TEST(Log, ParseLevelRoundTrip) {
  obs::LogLevel lvl = obs::LogLevel::kOff;
  EXPECT_TRUE(obs::ParseLogLevel("debug", &lvl));
  EXPECT_EQ(lvl, obs::LogLevel::kDebug);
  EXPECT_TRUE(obs::ParseLogLevel("off", &lvl));
  EXPECT_EQ(lvl, obs::LogLevel::kOff);
  EXPECT_FALSE(obs::ParseLogLevel("loud", &lvl));
  EXPECT_STREQ(obs::LogLevelName(obs::LogLevel::kWarn), "warn");
}

TEST(Log, LevelGateAndComponentOverride) {
  LogCapture capture;
  obs::SetLogLevel(obs::LogLevel::kWarn);
  EXPECT_FALSE(obs::LogEnabled("trainer", obs::LogLevel::kInfo));
  NEC_LOG_INFO("trainer", "dropped %d", 1);
  NEC_LOG_WARN("trainer", "kept %d", 2);
  ASSERT_EQ(capture.records.size(), 1u);
  EXPECT_EQ(capture.records[0].component, "trainer");
  EXPECT_EQ(capture.records[0].message, "kept 2");

  // An override wins in both directions: opens trainer debug while the
  // global level still drops other components' info.
  obs::SetComponentLogLevel("trainer", obs::LogLevel::kDebug);
  EXPECT_TRUE(obs::LogEnabled("trainer", obs::LogLevel::kDebug));
  EXPECT_FALSE(obs::LogEnabled("necd", obs::LogLevel::kInfo));
  NEC_LOG_DEBUG("trainer", "verbose %d", 3);
  ASSERT_EQ(capture.records.size(), 2u);
  EXPECT_EQ(capture.records[1].message, "verbose 3");
}

TEST(Log, RateLimitSuppressesAndReportsCount) {
  obs::LogRateLimit limit(/*per_second=*/1.0, /*burst=*/2.0);
  std::uint64_t suppressed = 0;
  EXPECT_TRUE(limit.Allow(&suppressed));
  EXPECT_EQ(suppressed, 0u);
  EXPECT_TRUE(limit.Allow(&suppressed));
  // Bucket empty: the flood is swallowed and counted.
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(limit.Allow(&suppressed));
  }
  limit.AdvanceForTest(1.0);  // refills one token
  EXPECT_TRUE(limit.Allow(&suppressed));
  EXPECT_EQ(suppressed, 10u);
  EXPECT_FALSE(limit.Allow(&suppressed));
}

TEST(Log, JsonLinesAreWellFormed) {
  LogCapture capture;
  obs::SetLogCapture(nullptr);  // write to a file instead
  obs::SetLogFormat(obs::LogFormat::kJson);
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  obs::SetLogFile(tmp);
  NEC_LOG_INFO("necd", "quoted \"payload\" %d", 5);
  obs::SetLogFile(stderr);
  obs::SetLogFormat(obs::LogFormat::kText);

  std::rewind(tmp);
  char buf[512] = {};
  ASSERT_NE(std::fgets(buf, sizeof buf, tmp), nullptr);
  std::fclose(tmp);
  const std::string line(buf);
  EXPECT_TRUE(JsonWellFormed(line)) << line;
  EXPECT_NE(line.find("\"level\":\"info\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"component\":\"necd\""), std::string::npos) << line;
  EXPECT_NE(line.find("\\\"payload\\\""), std::string::npos) << line;
}

// ------------------------------------------------------------- metrics

obs::MetricFamily MakeTestHistogram() {
  obs::MetricFamily f;
  f.name = "nec_test_seconds";
  f.help = "test latency";
  f.type = obs::MetricType::kHistogram;
  obs::Metric m;
  m.histogram.upper_bounds = {0.01, 0.1, 1.0};
  m.histogram.cumulative = {2, 5, 9};
  m.histogram.count = 10;  // one observation above the last bound
  m.histogram.sum = 3.5;
  f.metrics.push_back(m);
  return f;
}

TEST(Metrics, PrometheusRenderParsesCleanly) {
  std::vector<obs::MetricFamily> families;
  families.push_back(obs::MakeCounter("nec_chunks_total", "chunks", 42));
  families.push_back(obs::MakeGauge("nec_queue_depth", "depth", 3));
  families.push_back(MakeTestHistogram());

  const std::string text = obs::RenderPrometheusText(families);
  EXPECT_NE(text.find("# TYPE nec_chunks_total counter"), std::string::npos);
  EXPECT_NE(text.find("nec_test_seconds_bucket{le=\"+Inf\"} 10"),
            std::string::npos);
  EXPECT_NE(text.find("nec_test_seconds_count 10"), std::string::npos);

  std::vector<obs::MetricFamily> parsed;
  std::string error;
  ASSERT_TRUE(obs::ParsePrometheusText(text, &parsed, &error)) << error;
  ASSERT_EQ(parsed.size(), families.size());
  EXPECT_DOUBLE_EQ(parsed[0].metrics[0].value, 42.0);
  const obs::HistogramData& h = parsed[2].metrics[0].histogram;
  ASSERT_EQ(h.upper_bounds.size(), 3u);  // +Inf folded into count
  EXPECT_EQ(h.cumulative, (std::vector<std::uint64_t>{2, 5, 9}));
  EXPECT_EQ(h.count, 10u);
  EXPECT_DOUBLE_EQ(h.sum, 3.5);
}

TEST(Metrics, LintRejectsBrokenExposition) {
  std::vector<obs::MetricFamily> parsed;
  std::string error;

  // Buckets must be cumulative.
  EXPECT_FALSE(obs::ParsePrometheusText(
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n"
      "h_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
      &parsed, &error));
  EXPECT_NE(error.find("cumulative"), std::string::npos) << error;

  // The +Inf bucket must equal _count.
  parsed.clear();
  EXPECT_FALSE(obs::ParsePrometheusText(
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\n"
      "h_sum 1\nh_count 3\n",
      &parsed, &error));

  // TYPE after the family's samples is a spec violation.
  parsed.clear();
  EXPECT_FALSE(obs::ParsePrometheusText(
      "c_total 1\n# TYPE c_total counter\n", &parsed, &error));
}

TEST(Metrics, HistogramQuantileCrossesCdf) {
  obs::HistogramData h;
  h.upper_bounds = {1.0, 2.0, 4.0};
  h.cumulative = {10, 50, 100};
  h.count = 100;
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(h, 0.05), 1.0);
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(h, 0.50), 2.0);
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(h, 0.99), 4.0);
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(obs::HistogramData{}, 0.5), 0.0);
}

// ------------------------------------------------- runtime stats export

TEST(StatsExport, LatencyHistogramBucketsMatchQuantiles) {
  runtime::LatencyHistogram hist;
  for (int i = 1; i <= 100; ++i) hist.Record(static_cast<double>(i));

  const runtime::HistogramSnapshot snap = hist.Buckets();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_NEAR(snap.sum_ms, 5050.0, 0.5);
  EXPECT_NEAR(snap.max_ms, 100.0, 1e-6);
  ASSERT_FALSE(snap.cumulative.empty());
  EXPECT_EQ(snap.cumulative.back(), 100u);
  for (std::size_t i = 1; i < snap.cumulative.size(); ++i) {
    EXPECT_GE(snap.cumulative[i], snap.cumulative[i - 1]);
  }

  // The bucketed CDF must reproduce the pre-existing Quantiles() numbers
  // exactly — same buckets, same crossing rule (the bit-identical
  // contract for this refactor).
  const runtime::LatencyQuantiles q = hist.Quantiles();
  obs::HistogramData h;
  for (std::size_t i = 0; i < snap.cumulative.size(); ++i) {
    h.upper_bounds.push_back(runtime::LatencyHistogram::BucketUpperMs(i));
    h.cumulative.push_back(snap.cumulative[i]);
  }
  h.count = snap.count;
  // Quantiles() clamps tail quantiles to the true max (bucket ceilings
  // overshoot); apply the same clamp to the bucketed CDF result.
  const auto clamped = [&](double p) {
    return std::min(obs::HistogramQuantile(h, p), snap.max_ms);
  };
  EXPECT_DOUBLE_EQ(clamped(0.50), q.p50_ms);
  EXPECT_DOUBLE_EQ(clamped(0.95), q.p95_ms);
  EXPECT_DOUBLE_EQ(clamped(0.99), q.p99_ms);
}

TEST(StatsExport, SnapshotRendersLintCleanPrometheus) {
  runtime::LatencyHistogram hist;
  hist.Record(12.0);
  hist.Record(40.0);

  runtime::RuntimeStatsSnapshot snap;
  snap.sessions = 2;
  snap.chunks_processed = 17;
  snap.queue_depth = 3;
  snap.chunk_latency = hist.Quantiles();
  snap.chunk_latency_hist = hist.Buckets();

  const auto families = runtime::SnapshotToMetricFamilies(snap);
  const std::string text = obs::RenderPrometheusText(families);

  std::vector<obs::MetricFamily> parsed;
  std::string error;
  ASSERT_TRUE(obs::ParsePrometheusText(text, &parsed, &error))
      << error << "\n" << text;
  EXPECT_NE(text.find("nec_chunks_processed_total 17"), std::string::npos);
  EXPECT_NE(text.find("nec_chunk_latency_seconds_count 2"),
            std::string::npos);
  // Fault categories come out as labeled samples of one family.
  EXPECT_NE(text.find("nec_faults_total{category=\"overload\"} 0"),
            std::string::npos);
  EXPECT_TRUE(JsonWellFormed(obs::RenderMetricsJson(families)));
}

// ---------------------------------------------------------------- http

TEST(Http, ParseUrlForms) {
  std::string host, path;
  int port = 0;
  EXPECT_TRUE(obs::ParseHttpUrl("http://127.0.0.1:9000/metrics", &host,
                                &port, &path));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 9000);
  EXPECT_EQ(path, "/metrics");
  EXPECT_TRUE(obs::ParseHttpUrl("localhost", &host, &port, &path));
  EXPECT_EQ(port, 9464);
  EXPECT_EQ(path, "/");
  EXPECT_FALSE(obs::ParseHttpUrl("https://x", &host, &port, &path));
  EXPECT_FALSE(obs::ParseHttpUrl("", &host, &port, &path));
}

TEST(Http, ServesHandlersOnEphemeralPort) {
  obs::MetricsServer server;
  std::atomic<int> hits{0};
  server.Handle("/metrics", [&hits](const std::string&,
                                    const std::string& query) {
    ++hits;
    return obs::HttpResponse{200, "text/plain; version=0.0.4",
                             "nec_up 1\nquery=" + query + "\n"};
  });
  std::string error;
  ASSERT_TRUE(server.Start({.host = "127.0.0.1", .port = 0}, &error))
      << error;
  ASSERT_GT(server.port(), 0);

  std::string body;
  int status = 0;
  ASSERT_TRUE(obs::HttpGet("127.0.0.1", server.port(), "/metrics?x=1",
                           &body, &status, &error))
      << error;
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("nec_up 1"), std::string::npos);
  EXPECT_NE(body.find("query=x=1"), std::string::npos);

  ASSERT_TRUE(obs::HttpGet("127.0.0.1", server.port(), "/missing", &body,
                           &status, &error))
      << error;
  EXPECT_EQ(status, 404);

  EXPECT_EQ(hits.load(), 1);
  EXPECT_GE(server.requests_served(), 2u);
  server.Stop();
  server.Stop();  // idempotent
  EXPECT_FALSE(obs::HttpGet("127.0.0.1", server.port(), "/metrics", &body,
                            &status, &error));
}

// --------------------------------------------- parser fleet edge cases

TEST(Metrics, LabelValueEscapingRoundTrips) {
  obs::MetricFamily f = obs::MakeCounter("nec_odd_total", "odd labels", 7);
  f.metrics[0].labels.emplace_back("path", "a\"b}c\\d\ne");
  f.metrics[0].labels.emplace_back("plain", "ok");
  std::vector<obs::MetricFamily> families{f};

  const std::string text = obs::RenderPrometheusText(families);
  std::vector<obs::MetricFamily> parsed;
  std::string error;
  ASSERT_TRUE(obs::ParsePrometheusText(text, &parsed, &error))
      << error << "\n" << text;
  ASSERT_EQ(parsed.size(), 1u);
  ASSERT_EQ(parsed[0].metrics.size(), 1u);
  EXPECT_EQ(parsed[0].metrics[0].labels, f.metrics[0].labels);
  EXPECT_DOUBLE_EQ(parsed[0].metrics[0].value, 7.0);
}

TEST(Metrics, ZeroSampleFamilyParsesAsEmpty) {
  // A TYPE header with no samples yet is legal exposition — a process
  // that has not observed anything still declares its families, and the
  // fleet fold must accept such a member.
  std::vector<obs::MetricFamily> parsed;
  std::string error;
  ASSERT_TRUE(obs::ParsePrometheusText(
      "# HELP nec_idle_total not yet incremented\n"
      "# TYPE nec_idle_total counter\n"
      "# TYPE nec_busy_total counter\n"
      "nec_busy_total 1\n",
      &parsed, &error))
      << error;
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].name, "nec_idle_total");
  EXPECT_TRUE(parsed[0].metrics.empty());
  ASSERT_EQ(parsed[1].metrics.size(), 1u);
}

TEST(Metrics, MultiLabelHistogramKeepsLabelSetsApart) {
  // One histogram family, two label sets (the shape of
  // nec_hop_latency_seconds): each non-le label combination must come
  // back as its own Metric with its own bucket surface.
  std::vector<obs::MetricFamily> parsed;
  std::string error;
  ASSERT_TRUE(obs::ParsePrometheusText(
      "# TYPE h histogram\n"
      "h_bucket{hop=\"reply\",le=\"1\"} 2\n"
      "h_bucket{hop=\"reply\",le=\"+Inf\"} 3\n"
      "h_sum{hop=\"reply\"} 1.5\n"
      "h_count{hop=\"reply\"} 3\n"
      "h_bucket{hop=\"shard_queue\",le=\"1\"} 5\n"
      "h_bucket{hop=\"shard_queue\",le=\"+Inf\"} 5\n"
      "h_sum{hop=\"shard_queue\"} 2.5\n"
      "h_count{hop=\"shard_queue\"} 5\n",
      &parsed, &error))
      << error;
  ASSERT_EQ(parsed.size(), 1u);
  ASSERT_EQ(parsed[0].metrics.size(), 2u);
  EXPECT_EQ(parsed[0].metrics[0].histogram.count, 3u);
  EXPECT_EQ(parsed[0].metrics[1].histogram.count, 5u);
  // ... and the le="+Inf" == count lint applies per label set.
  EXPECT_FALSE(obs::ParsePrometheusText(
      "# TYPE h histogram\n"
      "h_bucket{hop=\"reply\",le=\"+Inf\"} 3\n"
      "h_sum{hop=\"reply\"} 1.5\n"
      "h_count{hop=\"reply\"} 4\n",
      &parsed, &error));
}

// ------------------------------------------------------ fleet merging

TEST(HistogramMerge, CommutativeWithEmptyIdentity) {
  runtime::LatencyHistogram ha, hb;
  for (int i = 1; i <= 40; ++i) ha.Record(i * 3.0);
  for (int i = 1; i <= 25; ++i) hb.Record(i * 7.0);
  const runtime::HistogramSnapshot a = ha.Buckets();
  const runtime::HistogramSnapshot b = hb.Buckets();

  const runtime::HistogramSnapshot ab = runtime::LatencyHistogram::Merge(a, b);
  const runtime::HistogramSnapshot ba = runtime::LatencyHistogram::Merge(b, a);
  EXPECT_EQ(ab.cumulative, ba.cumulative);
  EXPECT_EQ(ab.count, ba.count);
  EXPECT_DOUBLE_EQ(ab.sum_ms, ba.sum_ms);
  EXPECT_DOUBLE_EQ(ab.max_ms, ba.max_ms);
  EXPECT_EQ(ab.count, a.count + b.count);

  const runtime::HistogramSnapshot id =
      runtime::LatencyHistogram::Merge(a, runtime::HistogramSnapshot{});
  EXPECT_EQ(id.cumulative, a.cumulative);
  EXPECT_EQ(id.count, a.count);
  EXPECT_DOUBLE_EQ(id.sum_ms, a.sum_ms);
  EXPECT_DOUBLE_EQ(id.max_ms, a.max_ms);
}

TEST(HistogramMerge, MergedCdfEqualsPooledSamples) {
  // Recording A∪B into one histogram must equal Merge(A-hist, B-hist)
  // bucket-for-bucket: same deterministic bucketing, so any quantile of
  // the merged CDF is a true pooled quantile, not an average of
  // per-shard quantiles.
  runtime::LatencyHistogram ha, hb, pooled;
  for (int i = 1; i <= 60; ++i) {
    const double ms = 0.5 + i * 1.7;
    ha.Record(ms);
    pooled.Record(ms);
  }
  for (int i = 1; i <= 90; ++i) {
    const double ms = 20.0 + i * 4.3;
    hb.Record(ms);
    pooled.Record(ms);
  }
  const runtime::HistogramSnapshot merged =
      runtime::LatencyHistogram::Merge(ha.Buckets(), hb.Buckets());
  const runtime::HistogramSnapshot want = pooled.Buckets();
  EXPECT_EQ(merged.cumulative, want.cumulative);
  EXPECT_EQ(merged.count, want.count);
  EXPECT_NEAR(merged.sum_ms, want.sum_ms, 1e-6 * want.sum_ms);
  EXPECT_DOUBLE_EQ(merged.max_ms, want.max_ms);
}

/// HistogramData on the canonical grid from a LatencyHistogram snapshot
/// (what a member's /metrics scrape reconstitutes to), change-compressed
/// the way the renderer emits it: only bounds where the CDF moves.
obs::HistogramData CompressedSurface(const runtime::HistogramSnapshot& snap) {
  obs::HistogramData h;
  std::uint64_t last = 0;
  for (std::size_t i = 0; i < snap.cumulative.size(); ++i) {
    if (snap.cumulative[i] == last && i + 1 != snap.cumulative.size()) {
      continue;
    }
    h.upper_bounds.push_back(runtime::LatencyHistogram::BucketUpperMs(i) /
                             1000.0);
    h.cumulative.push_back(snap.cumulative[i]);
    last = snap.cumulative[i];
  }
  h.count = snap.count;
  h.sum = snap.sum_ms / 1000.0;
  return h;
}

TEST(StatsExport, MergeHistogramDataAddsCompressedSurfaces) {
  runtime::LatencyHistogram ha, hb, pooled;
  for (int i = 1; i <= 30; ++i) {
    ha.Record(i * 2.0);
    pooled.Record(i * 2.0);
  }
  for (int i = 1; i <= 50; ++i) {
    hb.Record(i * 11.0);
    pooled.Record(i * 11.0);
  }
  // Two members legitimately expose DIFFERENT bound subsets of the same
  // grid (change compression); the merge must reconstitute both.
  obs::HistogramData acc;  // empty accumulator = identity
  std::string error;
  ASSERT_EQ(runtime::MergeHistogramData(CompressedSurface(ha.Buckets()), &acc,
                                        &error),
            runtime::HistogramMergeStatus::kOk)
      << error;
  ASSERT_EQ(runtime::MergeHistogramData(CompressedSurface(hb.Buckets()), &acc,
                                        &error),
            runtime::HistogramMergeStatus::kOk)
      << error;

  const runtime::HistogramSnapshot want = pooled.Buckets();
  ASSERT_EQ(acc.cumulative.size(), want.cumulative.size());
  for (std::size_t i = 0; i < want.cumulative.size(); ++i) {
    EXPECT_EQ(acc.cumulative[i], want.cumulative[i]) << "bucket " << i;
  }
  EXPECT_EQ(acc.count, want.count);
}

TEST(StatsExport, MergeHistogramDataRejectsOffGridBounds) {
  obs::HistogramData acc;
  std::string error;
  // Seed the accumulator with a real surface first.
  runtime::LatencyHistogram h;
  h.Record(5.0);
  ASSERT_EQ(runtime::MergeHistogramData(CompressedSurface(h.Buckets()), &acc,
                                        &error),
            runtime::HistogramMergeStatus::kOk);
  const std::uint64_t count_before = acc.count;

  obs::HistogramData alien;
  alien.upper_bounds = {0.005, 0.05, 0.5};  // a different bucket layout
  alien.cumulative = {1, 2, 3};
  alien.count = 3;
  EXPECT_EQ(runtime::MergeHistogramData(alien, &acc, &error),
            runtime::HistogramMergeStatus::kBoundaryMismatch);
  EXPECT_NE(error.find("canonical grid"), std::string::npos) << error;

  // The typed error left the accumulator usable: the bad source was not
  // folded and a good one still merges.
  EXPECT_EQ(acc.count, count_before);
  runtime::LatencyHistogram more;
  more.Record(9.0);
  EXPECT_EQ(runtime::MergeHistogramData(CompressedSurface(more.Buckets()),
                                        &acc, &error),
            runtime::HistogramMergeStatus::kOk);
  EXPECT_EQ(acc.count, count_before + 1);
}

TEST(StatsExport, SharedMemoryGaugesReadTheSharedTables) {
  TraceReset reset;
  TraceRecorder::Global().Enable(/*ring_capacity=*/64);
  TraceRecorder::SetThreadName("memory-gauges");
  audio::Waveform out;
  dsp::ResamplerPlan plan;
  channel::ModulateAmInto(
      audio::Waveform(16000, std::vector<float>(1600, 0.25f)), {}, plan, out);

  const auto families = runtime::SharedMemoryFamilies();
  ASSERT_EQ(families.size(), 2u);
  EXPECT_EQ(families[0].name, "nec_carrier_table_bytes");
  EXPECT_EQ(families[0].type, obs::MetricType::kGauge);
  EXPECT_EQ(families[0].metrics[0].value,
            static_cast<double>(channel::CarrierCacheBytes()));
  EXPECT_GE(families[0].metrics[0].value, 1600.0 * 12.0 * sizeof(double));
  EXPECT_EQ(families[1].name, "nec_trace_ring_bytes");
  EXPECT_EQ(families[1].metrics[0].value,
            static_cast<double>(TraceRecorder::Global().event_storage_bytes()));
  EXPECT_GT(families[1].metrics[0].value, 0.0);

  std::vector<obs::MetricFamily> parsed;
  std::string error;
  EXPECT_TRUE(obs::ParsePrometheusText(obs::RenderPrometheusText(families),
                                       &parsed, &error))
      << error;
}

TEST(StatsExport, HopLatencyFamilyOmitsZeroHops) {
  runtime::HopStats::Global().Reset();
  runtime::HopStats::Global().Record(runtime::Hop::kShardQueue, 1.5);
  runtime::HopStats::Global().Record(runtime::Hop::kShardCompute, 12.0);
  runtime::HopStats::Global().Record(runtime::Hop::kShardCompute, 14.0);

  const obs::MetricFamily family = runtime::HopLatencyFamily();
  EXPECT_EQ(family.name, "nec_hop_latency_seconds");
  ASSERT_EQ(family.metrics.size(), 2u);  // recorded hops only
  EXPECT_EQ(family.metrics[0].labels[0].second, "shard_queue");
  EXPECT_EQ(family.metrics[1].labels[0].second, "shard_compute");
  EXPECT_EQ(family.metrics[1].histogram.count, 2u);

  // The family renders lint-clean alongside the rest of a scrape.
  std::vector<obs::MetricFamily> families{family};
  std::vector<obs::MetricFamily> parsed;
  std::string error;
  EXPECT_TRUE(obs::ParsePrometheusText(obs::RenderPrometheusText(families),
                                       &parsed, &error))
      << error;
  runtime::HopStats::Global().Reset();
}

TEST(Fleet, FoldSumsCountersAndMergesHistograms) {
  const auto member_text = [](double chunks, double queue,
                              const runtime::HistogramSnapshot& e2e) {
    runtime::RuntimeStatsSnapshot snap;
    snap.chunks_processed = static_cast<std::uint64_t>(chunks);
    snap.queue_depth = static_cast<std::size_t>(queue);
    snap.e2e_latency_hist = e2e;
    return obs::RenderPrometheusText(runtime::SnapshotToMetricFamilies(snap));
  };
  runtime::LatencyHistogram ha, hb;
  for (int i = 1; i <= 10; ++i) ha.Record(i * 5.0);
  for (int i = 1; i <= 30; ++i) hb.Record(i * 9.0);

  net::FleetView view;
  ASSERT_TRUE(
      net::FoldMemberMetrics("s1", member_text(100, 3, ha.Buckets()), &view));
  ASSERT_TRUE(
      net::FoldMemberMetrics("s2", member_text(40, 2, hb.Buckets()), &view));
  EXPECT_EQ(view.folded, 2u);
  ASSERT_EQ(view.rows.size(), 2u);
  EXPECT_EQ(view.rows[0].label, "s1");
  EXPECT_DOUBLE_EQ(view.rows[0].chunks_total, 100.0);
  EXPECT_EQ(view.rows[0].e2e_count, 10u);
  EXPECT_DOUBLE_EQ(view.rows[1].chunks_total, 40.0);

  // Merged families: counters summed, histogram counts added.
  double chunks = -1.0;
  std::uint64_t e2e_count = 0;
  for (const obs::MetricFamily& f : view.merged) {
    if (f.name == "nec_chunks_processed_total") chunks = f.metrics[0].value;
    if (f.name == "nec_chunk_e2e_latency_seconds") {
      e2e_count = f.metrics[0].histogram.count;
    }
  }
  EXPECT_DOUBLE_EQ(chunks, 140.0);
  EXPECT_EQ(e2e_count, 40u);

  const std::string json = net::RenderFleetJson(view, {});
  EXPECT_TRUE(JsonWellFormed(json)) << json;
  EXPECT_NE(json.find("\"folded\":2"), std::string::npos);
  EXPECT_NE(json.find("\"chunks_total\":140"), std::string::npos);
}

TEST(Fleet, BrokenMemberIsReportedNotFolded) {
  net::FleetView view;
  EXPECT_FALSE(net::FoldMemberMetrics(
      "bad", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n",
      &view));
  EXPECT_EQ(view.folded, 0u);
  ASSERT_EQ(view.rows.size(), 1u);
  EXPECT_FALSE(view.rows[0].folded);
  EXPECT_TRUE(view.rows[0].reachable);
  EXPECT_NE(view.rows[0].error.find("exposition lint"), std::string::npos);

  // A good member after a bad one still folds; JSON carries both rows.
  ASSERT_TRUE(net::FoldMemberMetrics(
      "good", "# TYPE nec_chunks_processed_total counter\n"
              "nec_chunks_processed_total 9\n",
      &view));
  EXPECT_EQ(view.folded, 1u);
  const std::string json = net::RenderFleetJson(view, {});
  EXPECT_TRUE(JsonWellFormed(json)) << json;
  EXPECT_NE(json.find("\"reachable\":true,\"folded\":false"),
            std::string::npos);
}

}  // namespace
}  // namespace nec
