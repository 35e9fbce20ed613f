// Small shared pieces of the serving benchmark: clocks, seeds, the
// served model, order statistics, chunk digests, the benchmark's own span
// log, and the result line.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/selector.h"
#include "encoder/encoder.h"

namespace servebench {

using Clock = std::chrono::steady_clock;

inline double NowS() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// SplitMix64 finalizer: every derived seed is a pure function of the
/// workload seed and a role/index pair, so the same --seed gives the same
/// inputs.
inline std::uint64_t Mix(std::uint64_t seed, std::uint64_t role,
                         std::uint64_t index) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + role * 0xD1B54A32D192ED03ull +
                    index * 0x8CB92BA72F3D8DD7ull + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) & 0x000FFFFFFFFFFFFFull;  // keep seeds < 2^52
}

/// The model `necd --model tiny` serves: the untrained Fast() selector
/// with the same seed and widths, and the LAS encoder. Built the same way
/// here so in-process runs and references match the shards bit for bit.
struct Model {
  nec::core::NecConfig config;
  std::shared_ptr<const nec::core::Selector> selector;
  std::shared_ptr<const nec::encoder::SpeakerEncoder> encoder;
};

inline Model TinyModel() {
  Model model;
  model.config = nec::core::NecConfig::Fast();
  model.config.conv_channels = 6;
  model.config.fc_hidden = 32;
  model.selector =
      std::make_shared<const nec::core::Selector>(model.config, 7);
  model.encoder = std::make_shared<const nec::encoder::LasEncoder>(
      model.config.embedding_dim);
  return model;
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double Max(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/// The tail: the highest order statistic with at least ten samples above
/// it. With n samples that is the (n-10)/n quantile; *percentile receives
/// it. Below 40 samples (runs of a second or so) that percentile would be
/// no tail, and the median is returned instead.
inline double Tail(std::vector<double> v, double* percentile) {
  const std::size_t n = v.size();
  if (n < 40) {
    if (percentile != nullptr) *percentile = 50.0;
    return Median(std::move(v));
  }
  std::sort(v.begin(), v.end());
  if (percentile != nullptr) {
    *percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  }
  return v[n - 11];
}

/// 128-bit digest of one chunk's bytes: two independent multiply-rotate
/// chains over 32-bit words. Served and reference chunks are compared by
/// digest so a run never holds whole streams in memory.
struct Digest {
  std::uint64_t a = 0, b = 0;
  bool operator==(const Digest&) const = default;
};

inline Digest DigestOf(const float* data, std::size_t n) {
  std::uint64_t a = 0x243F6A8885A308D3ull ^ n;
  std::uint64_t b = 0x13198A2E03707344ull + n;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t w = 0;
    std::memcpy(&w, data + i, sizeof(w));
    a = (a ^ w) * 0x100000001B3ull;
    a = (a << 29) | (a >> 35);
    b = (b + w) * 0x9E3779B97F4A7C15ull;
    b ^= b >> 31;
  }
  return {a, b};
}

/// The benchmark's own spans: name, start, end and parent, kept in memory
/// and written as a Chrome trace when the run ends. Timed sections of the
/// layer walk are spans; their durations are the per-layer metrics.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;  ///< index of the enclosing span, -1 at top level
  };

  class Scope {
   public:
    Scope(SpanLog& log, const char* name) : log_(log) {
      index_ = static_cast<int>(log_.spans_.size());
      log_.spans_.push_back({name, 0, 0, log_.open_});
      log_.open_ = index_;
      log_.spans_[index_].start_ns = NowNs();
    }
    ~Scope() {
      log_.spans_[index_].end_ns = NowNs();
      log_.open_ = log_.spans_[index_].parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int index_ = 0;
  };

  SpanLog() { spans_.reserve(1 << 16); }

  /// Durations in milliseconds of every span named `name`.
  std::vector<double> DurationsMs(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(1e-6 * double(s.end_ns - s.start_ns));
    }
    return out;
  }

  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d}}\n",
                   i == 0 ? "" : ",", s.name, 1e-3 * double(s.start_ns),
                   1e-3 * double(s.end_ns - s.start_ns), i, s.parent);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

/// Operation accounting every run reports (stdout detail line); the
/// result line's `attempted`/`failed` are derived from it.
struct Accounting {
  std::uint64_t chunks_submitted = 0;
  std::uint64_t chunks_acked = 0;
  std::uint64_t opens_attempted = 0;
  std::uint64_t opens_acked = 0;
  std::uint64_t sessions_completed = 0;
  std::uint64_t sessions_faulted = 0;
  std::uint64_t checks_run = 0;
  std::uint64_t checks_failed = 0;
  std::uint64_t chunks_check_failed = 0;  ///< chunks with >= 1 failed check
  std::uint64_t walk_ops = 0;             ///< layer-walk calls timed
  std::uint64_t walk_ops_failed = 0;

  std::uint64_t attempted() const {
    return chunks_submitted + opens_attempted + walk_ops;
  }
  std::uint64_t failed() const {
    return (chunks_submitted - std::min(chunks_submitted, chunks_acked)) +
           chunks_check_failed +
           (opens_attempted - std::min(opens_attempted, opens_acked)) +
           sessions_faulted + walk_ops_failed;
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints the run's result as the last line of stdout.
inline void PrintResult(bool correct, const Accounting& acct,
                        const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(acct.attempted()),
              static_cast<unsigned long long>(acct.failed()));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Human- and machine-readable accounting line printed before the result.
inline void PrintDetail(const std::string& workload, const Accounting& a,
                        const std::map<std::string, double>& extra) {
  std::printf(
      "servebench-detail {\"workload\": \"%s\", \"chunks_submitted\": %llu, "
      "\"chunks_acked\": %llu, \"opens_attempted\": %llu, "
      "\"opens_acked\": %llu, \"sessions_completed\": %llu, "
      "\"sessions_faulted\": %llu, \"checks_run\": %llu, "
      "\"checks_failed\": %llu, \"walk_ops\": %llu, \"walk_ops_failed\": %llu",
      workload.c_str(), static_cast<unsigned long long>(a.chunks_submitted),
      static_cast<unsigned long long>(a.chunks_acked),
      static_cast<unsigned long long>(a.opens_attempted),
      static_cast<unsigned long long>(a.opens_acked),
      static_cast<unsigned long long>(a.sessions_completed),
      static_cast<unsigned long long>(a.sessions_faulted),
      static_cast<unsigned long long>(a.checks_run),
      static_cast<unsigned long long>(a.checks_failed),
      static_cast<unsigned long long>(a.walk_ops),
      static_cast<unsigned long long>(a.walk_ops_failed));
  for (const auto& [key, value] : extra) {
    std::printf(", \"%s\": %.6g", key.c_str(), value);
  }
  std::printf("}\n");
  std::fflush(stdout);
}

}  // namespace servebench
