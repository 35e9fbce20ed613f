// RuntimeStatsSnapshot → nec::obs metric families.
//
// Lives in nec_runtime (not nec_obs) on purpose: obs sits below the
// pipeline libraries so they can emit trace spans, which means obs cannot
// know runtime types. The conversion — naming every counter, labelling
// fault categories, unrolling the latency histograms into Prometheus
// bucket surfaces — happens here, where both sides are visible.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "runtime/session_manager.h"
#include "runtime/stats.h"

namespace nec::runtime {

/// Converts one snapshot into Prometheus-shaped families (all prefixed
/// `nec_`). Counters carry lifetime totals; histograms carry the full
/// cumulative bucket surface of the underlying LatencyHistogram.
std::vector<obs::MetricFamily> SnapshotToMetricFamilies(
    const RuntimeStatsSnapshot& snapshot);

/// The process-global per-hop latency decomposition as ONE histogram
/// family `nec_hop_latency_seconds` with a `hop` label per recorded
/// boundary (DESIGN.md §5g). Hops with zero observations are omitted —
/// a shard never emits router hops and vice versa.
obs::MetricFamily HopLatencyFamily();

/// Process-wide memory shared by every session, as gauges: the carrier
/// tables of the AM modulator (`nec_carrier_table_bytes`, see
/// channel::ModulateAmInto) and the event storage of the trace rings
/// (`nec_trace_ring_bytes`, zero until tracing is first enabled).
std::vector<obs::MetricFamily> SharedMemoryFamilies();

/// Outcome of folding one scraped histogram surface into a fleet
/// accumulator.
enum class HistogramMergeStatus {
  kOk = 0,
  /// A bucket bound of the source does not lie on the canonical
  /// LatencyHistogram grid — the surfaces describe different bucket
  /// layouts and adding their counts would fabricate a CDF.
  kBoundaryMismatch,
};

/// Adds a scraped histogram surface `src` (bounds in seconds, as parsed
/// from a member's /metrics) into `*acc`. Both are reconstituted onto
/// the canonical 112-bucket LatencyHistogram grid first: the renderer
/// change-compresses each scrape (emitting only bounds where the CDF
/// moves), so two shards legitimately expose different bound subsets of
/// the same grid, and the flat-between-emitted-bounds CDF makes the
/// reconstruction exact. A bound off the grid returns
/// kBoundaryMismatch with a message in *error and leaves *acc usable
/// (the offending source is simply not folded in). An empty `*acc`
/// (default HistogramData) is a valid identity accumulator.
HistogramMergeStatus MergeHistogramData(const obs::HistogramData& src,
                                        obs::HistogramData* acc,
                                        std::string* error);

/// One session's status as a JSON object (used by necd's /sessions
/// endpoint): {"id":..,"state":..,"level":..,"chunks":..,"faults":..,
/// "deadline_misses":..,"error":..}.
std::string SessionStatusJson(std::size_t id, const SessionStatus& status);

/// Every live session of `manager` as a JSON array of SessionStatusJson
/// objects. Safe from any thread, also while sessions are being released
/// (built from SessionManager::SessionStatuses).
std::string SessionsJson(const SessionManager& manager);

}  // namespace nec::runtime
