// Fault taxonomy, degradation ladder, and deterministic fault injection
// for the nec::runtime serving layer (DESIGN.md §5f).
//
// The paper's physical deployment degrades gracefully — a late or weak
// shadow just cancels less of Bob — but a serving process is brittle by
// default: one thrown nec::CheckError inside a session strand would kill
// a pool worker or wedge a session. This header defines the
// vocabulary the runtime uses to contain faults at the session boundary:
//
//   * ErrorCategory / SessionError — what went wrong, as a small closed
//     taxonomy so callers and counters can react per class.
//   * SessionState — the session lifecycle (idle → running → faulted →
//     reset); a faulted session sheds input until ResetSession().
//   * DegradeLevel — the graceful-degradation ladder: neural selector →
//     LAS mask fallback → passthrough silence-shadow. Stepping down keeps
//     the stream alive (output cadence preserved) at reduced cancellation
//     quality, mirroring how the physics fails soft.
//   * FaultInjector — a seeded, deterministic injector compiled in
//     always (a single relaxed atomic load when disarmed) that can throw,
//     add latency, or simulate queue saturation at named sites, so the
//     stress suite can drive every containment path on demand.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>

#include "common/rng.h"

namespace nec::runtime {

/// Closed taxonomy of session-level failures.
enum class ErrorCategory {
  kBadInput = 0,      ///< NaN/Inf/absurd audio rejected at Submit
  kInvariant = 1,     ///< an NEC_CHECK (or equivalent) fired mid-chunk
  kDeadlineMiss = 2,  ///< chunk blew the overshadowing budget (§IV-C2)
  kOverload = 3,      ///< queue saturation bounced the caller (kReject)
  kAuthRejected = 4,  ///< wire auth handshake failed (bad/replayed tag)
};
inline constexpr std::size_t kNumErrorCategories = 5;

const char* ErrorCategoryName(ErrorCategory category);

/// The recorded cause of a session fault (or a typed Submit rejection).
struct SessionError {
  ErrorCategory category = ErrorCategory::kInvariant;
  std::string message;
};

/// Session lifecycle. kFaulted is absorbing until ResetSession().
enum class SessionState { kIdle, kRunning, kFaulted };

const char* SessionStateName(SessionState state);

/// Graceful-degradation ladder, best to worst. Values order the ladder:
/// stepping "down" increments the level.
enum class DegradeLevel {
  kNeural = 0,       ///< full paper system (selector DNN)
  kLasFallback = 1,  ///< LAS-mask ablation selector (cheap DSP)
  kSilence = 2,      ///< passthrough silence-shadow (no cancellation)
};
inline constexpr int kNumDegradeLevels = 3;

const char* DegradeLevelName(DegradeLevel level);

// ------------------------------------------------------- input hygiene

/// What a scan/sanitize pass over submitted audio found. `nonfinite`
/// counts NaN/Inf samples; `wild` counts finite samples with |x| beyond
/// the corrupt-amplitude limit (legit processing can exceed [-1, 1], so
/// the limit is deliberately generous — see kWildSampleLimit).
struct SampleScan {
  std::size_t nonfinite = 0;
  std::size_t wild = 0;
  bool clean() const { return nonfinite == 0 && wild == 0; }
  std::size_t total() const { return nonfinite + wild; }
};

/// Finite samples above this magnitude are treated as corrupt (a real
/// capture path never produces them; intermediate DSP stays well below).
inline constexpr float kWildSampleLimit = 4.0f;

/// Counts corrupt samples without modifying anything.
SampleScan ScanSamples(std::span<const float> samples);

/// Repairs corrupt samples in place — NaN/Inf become 0, wild amplitudes
/// clamp to ±1 — and reports what was repaired. Clean samples are never
/// touched, so sanitization preserves bit-exactness for healthy streams.
SampleScan SanitizeSamples(std::span<float> samples);

// ------------------------------------------------------ fault injection

/// Thrown by FaultInjector at an armed site; carries the category the
/// containment layer should record for the faulted session.
class InjectedFault : public std::runtime_error {
 public:
  InjectedFault(ErrorCategory category, const std::string& what)
      : std::runtime_error(what), category_(category) {}
  ErrorCategory category() const { return category_; }

 private:
  ErrorCategory category_;
};

/// Deterministic, seeded fault injector. Compiled in always; every site
/// costs one relaxed atomic load while disarmed. Sites are named strings
/// (e.g. "strand.chunk", "pool.submit") hit by runtime code
/// via OnSite()/SaturateAt(); a site only fires for hits whose key
/// matches its armed Spec, so tests can target exactly one session.
///
/// Determinism: each armed site owns a seeded Rng consumed only by
/// matching hits. A key-filtered site is hit from a single thread at a
/// time (one strand per session), so given the same seed
/// and stream the injection schedule is reproducible.
class FaultInjector {
 public:
  static constexpr std::uint64_t kAnyKey = ~std::uint64_t{0};

  enum class Kind {
    kThrow,     ///< OnSite throws InjectedFault(spec.category)
    kLatency,   ///< OnSite sleeps spec.latency_ms
    kSaturate,  ///< SaturateAt returns true (simulated full queue)
  };

  struct Spec {
    Kind kind = Kind::kThrow;
    /// Category an injected throw models (and records on the session).
    ErrorCategory category = ErrorCategory::kInvariant;
    /// Fire on each matching hit with this probability (seeded Rng).
    double probability = 1.0;
    double latency_ms = 0.0;  ///< kLatency sleep per fired hit
    /// Only hits with this key fire (kAnyKey matches every hit). The
    /// runtime passes the SessionId as the key.
    std::uint64_t key = kAnyKey;
    std::uint64_t skip_first = 0;  ///< let this many matching hits pass
    /// Stop firing after this many injections.
    std::uint64_t limit = ~std::uint64_t{0};
  };

  /// Arms (or re-arms) a site. Thread-safe.
  void Arm(const std::string& site, Spec spec, std::uint64_t seed = 1);

  void Disarm(const std::string& site);
  void DisarmAll();

  /// True iff any site is armed — the only cost on the disarmed hot path.
  bool armed() const {
    return armed_sites_.load(std::memory_order_relaxed) != 0;
  }

  /// Reports a hit at `site`. May throw InjectedFault (kThrow) or sleep
  /// (kLatency). No-op while disarmed or when the site/key doesn't match.
  void OnSite(const char* site, std::uint64_t key = kAnyKey) {
    if (!armed()) return;
    OnSiteSlow(site, key);
  }

  /// True when an armed kSaturate spec fires for this hit: the caller
  /// should behave as if its queue were full. No-op (false) otherwise.
  bool SaturateAt(const char* site, std::uint64_t key = kAnyKey);

  /// How many times `site` actually injected (threw / slept / saturated).
  std::uint64_t injections(const std::string& site) const;

  /// Process-wide injector the runtime's sites report to.
  static FaultInjector& Global();

 private:
  struct SiteState {
    Spec spec;
    Rng rng{1};
    std::uint64_t matched = 0;   ///< key-matching hits seen
    std::uint64_t injected = 0;  ///< hits that actually fired
  };

  void OnSiteSlow(const char* site, std::uint64_t key);
  /// Decides whether this hit fires; updates counters. Caller holds mu_.
  bool ShouldFire(SiteState& state, std::uint64_t key);

  mutable std::mutex mu_;
  std::map<std::string, SiteState> sites_;           ///< guarded by mu_
  std::atomic<std::uint64_t> armed_sites_{0};
};

}  // namespace nec::runtime
