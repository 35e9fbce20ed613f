// Closed-loop synthetic load generator for networked necd
// (`necctl loadgen`, DESIGN.md §5h).
//
// Drives N concurrent wire sessions across a pool of TCP connections
// (round-robin over one or more endpoints — shards directly, or a
// router). Each session enrolls by seed, then streams chunks closed-loop:
// submit one chunk, wait for that chunk's shadow burst, submit the next.
// One outstanding chunk per session keeps the latency sample
// well-defined (submit → first shadow byte of that chunk) without
// assuming anything about output/input sample-rate ratios, while N
// sessions in flight still keep every worker of the shard busy.
//
// Sessions share a small pool of pre-synthesized input streams
// (synthesis is expensive; serving is what's being measured). Two
// sessions with the same pool index use identical seeds and samples, so
// a verifier can compute the expected shadow once per pool index and
// compare every session bit-exactly — that is how the router fleet test
// proves shard placement does not change output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace nec::net {

struct LoadGenOptions {
  /// "host:port" targets; connections round-robin across them.
  std::vector<std::string> endpoints;
  std::size_t sessions = 64;
  std::size_t connections = 8;  ///< clamped to `sessions`
  std::size_t chunks_per_session = 4;
  /// Distinct (speaker_seed, ref_seed, input stream) tuples; sessions
  /// cycle through the pool.
  std::size_t stream_pool = 8;
  std::uint64_t seed = 1;            ///< base for all derived seeds
  std::uint64_t first_wire_sid = 1;  ///< sids are first..first+sessions-1
  int connect_timeout_ms = 5000;
  int io_timeout_ms = 10000;
  /// Hard wall-clock cap; sessions still pending when it expires are
  /// reported as faulted ("load generator deadline").
  double max_seconds = 120.0;
  /// Retain each session's full shadow stream in the report (verifiers
  /// only — hundreds of sessions at 192 kHz add up).
  bool keep_shadows = false;
  /// Shared secret for the v2 auth handshake; empty drives unauthed
  /// hellos (which an auth-requiring server answers with kAuthReject —
  /// reported as auth_rejected, distinct from refused/timeout).
  std::string secret;
};

/// Per-session outcome. speaker/ref seeds and stream_index let a
/// verifier regenerate the exact input and expected output.
struct LoadGenSessionOutcome {
  std::uint64_t wire_sid = 0;
  std::size_t stream_index = 0;
  std::uint64_t speaker_seed = 0;
  std::uint64_t ref_seed = 0;
  bool completed = false;  ///< orderly kClosed with all chunks acked
  std::string error;       ///< first failure, empty when completed
  std::size_t chunks_acked = 0;
  std::size_t shadow_samples = 0;
  std::vector<float> shadow;  ///< populated when keep_shadows
};

struct LoadGenReport {
  bool ok = false;    ///< harness-level success (not per-session)
  std::string error;  ///< harness-level failure reason
  /// A hello was answered with kAuthReject (bad or missing secret) —
  /// its own failure class, not a connect refusal or timeout.
  bool auth_rejected = false;
  std::size_t sessions_completed = 0;
  std::size_t sessions_faulted = 0;
  /// Subset of sessions_faulted whose failure was an auth rejection.
  std::size_t sessions_auth_rejected = 0;
  std::uint64_t chunks_acked = 0;
  double wall_s = 0.0;  ///< streaming phase only (opens excluded)
  double chunks_per_sec = 0.0;
  /// Submit → first shadow byte of that chunk, milliseconds.
  double latency_p50_ms = 0.0;
  double latency_p90_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_max_ms = 0.0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint32_t chunk_samples = 0;  ///< from the server's kHelloAck
  std::vector<LoadGenSessionOutcome> sessions;
};

/// Runs the load to completion (blocking). Harness-level failures
/// (connect/hello failed, wall-clock cap) set ok=false; individual
/// session faults do not.
LoadGenReport RunLoadGen(const LoadGenOptions& options);

/// One line per report field, for `necctl loadgen` output.
std::string FormatLoadGenReport(const LoadGenReport& report);

}  // namespace nec::net
