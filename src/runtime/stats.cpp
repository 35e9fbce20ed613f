#include "runtime/stats.h"

#include <algorithm>
#include <cmath>

namespace nec::runtime {

std::size_t LatencyHistogram::BucketIndex(double ms) {
  if (!(ms > kMinMs)) return 0;
  const double idx = std::log(ms / kMinMs) / std::log(kGrowth);
  return std::min(kBuckets - 1,
                  static_cast<std::size_t>(std::floor(idx)) + 1);
}

double LatencyHistogram::BucketUpperMs(std::size_t index) {
  return kMinMs * std::pow(kGrowth, static_cast<double>(index));
}

void LatencyHistogram::Record(double ms) {
  buckets_[BucketIndex(ms)].fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t us =
      static_cast<std::uint64_t>(std::max(0.0, ms) * 1000.0);
  sum_us_.fetch_add(us, std::memory_order_relaxed);
  std::uint64_t seen = max_us_.load(std::memory_order_relaxed);
  while (us > seen &&
         !max_us_.compare_exchange_weak(seen, us,
                                        std::memory_order_relaxed)) {
  }
}

LatencyQuantiles LatencyHistogram::Quantiles() const {
  std::array<std::uint64_t, kBuckets> counts;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  LatencyQuantiles q;
  q.count = total;
  q.max_ms =
      static_cast<double>(max_us_.load(std::memory_order_relaxed)) / 1000.0;
  if (total == 0) return q;

  const auto quantile = [&](double p) {
    const std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(p * static_cast<double>(total)));
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      cum += counts[i];
      if (cum >= rank) return BucketUpperMs(i);
    }
    return BucketUpperMs(kBuckets - 1);
  };
  q.p50_ms = quantile(0.50);
  q.p95_ms = quantile(0.95);
  q.p99_ms = quantile(0.99);
  // The histogram's bucket ceiling can overshoot the true maximum; clamp
  // the tail quantiles so p99 <= max always holds in reports.
  q.p50_ms = std::min(q.p50_ms, q.max_ms);
  q.p95_ms = std::min(q.p95_ms, q.max_ms);
  q.p99_ms = std::min(q.p99_ms, q.max_ms);
  return q;
}

HistogramSnapshot LatencyHistogram::Buckets() const {
  HistogramSnapshot snap;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    cum += buckets_[i].load(std::memory_order_relaxed);
    snap.cumulative[i] = cum;
  }
  snap.count = cum;
  snap.sum_ms =
      static_cast<double>(sum_us_.load(std::memory_order_relaxed)) / 1000.0;
  snap.max_ms =
      static_cast<double>(max_us_.load(std::memory_order_relaxed)) / 1000.0;
  return snap;
}

HistogramSnapshot LatencyHistogram::Merge(const HistogramSnapshot& a,
                                          const HistogramSnapshot& b) {
  HistogramSnapshot out;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    out.cumulative[i] = a.cumulative[i] + b.cumulative[i];
  }
  out.count = a.count + b.count;
  out.sum_ms = a.sum_ms + b.sum_ms;
  out.max_ms = std::max(a.max_ms, b.max_ms);
  return out;
}

const char* HopName(Hop hop) {
  switch (hop) {
    case Hop::kRouterQueue: return "router_queue";
    case Hop::kUpstreamWrite: return "upstream_write";
    case Hop::kShardQueue: return "shard_queue";
    case Hop::kShardCompute: return "shard_compute";
    case Hop::kReply: return "reply";
  }
  return "?";
}

HopStats& HopStats::Global() {
  static HopStats* stats = new HopStats;
  return *stats;
}

void LatencyHistogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  max_us_.store(0, std::memory_order_relaxed);
  sum_us_.store(0, std::memory_order_relaxed);
}

RuntimeStatsSnapshot RuntimeStats::Snapshot(const PoolSample& pool) const {
  RuntimeStatsSnapshot s;
  s.sessions = sessions_.load(kRelaxed);
  s.chunks_processed = chunks_.load(kRelaxed);
  s.dispatches = dispatches_.load(kRelaxed);
  s.dispatch_rejections = rejections_.load(kRelaxed);
  s.dispatch_drops = pool.dispatch_drops;
  s.samples_submitted = samples_.load(kRelaxed);
  s.samples_dropped = samples_dropped_.load(kRelaxed);
  s.queue_depth = pool.queue_depth;
  s.queue_peak_depth = pool.queue_peak_depth;
  s.worker_exceptions = pool.worker_exceptions;
  s.chunk_latency = latency_.Quantiles();
  s.chunk_latency_hist = latency_.Buckets();
  s.e2e_latency = e2e_latency_.Quantiles();
  s.e2e_latency_hist = e2e_latency_.Buckets();

  for (std::size_t i = 0; i < kNumErrorCategories; ++i) {
    s.faults_by_category[i] = faults_[i].load(kRelaxed);
    s.faults += s.faults_by_category[i];
  }
  s.deadline_misses = deadline_misses_.load(kRelaxed);
  s.degrade_steps_down = degrade_down_.load(kRelaxed);
  s.degrade_steps_up = degrade_up_.load(kRelaxed);
  s.chunk_retries = retries_.load(kRelaxed);
  s.samples_sanitized = sanitized_.load(kRelaxed);
  s.bad_input_rejections = bad_input_.load(kRelaxed);
  s.session_resets = resets_.load(kRelaxed);

  return s;
}

}  // namespace nec::runtime
