#include "obs/trace.h"

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <vector>

namespace nec::obs {
namespace {

/// splitmix64 finalizer, for the per-process flow-id salt.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// High-32-bit salt mixed from the pid and the process start instant, so
/// two shards booted on the same host (or the same shard restarted) mint
/// disjoint flow-id spaces. Bit 32 is forced on: a salted id is never 0
/// and never collides with a pre-salt id of another process whose low
/// counter happens to match.
std::uint64_t FlowSalt() {
  static const std::uint64_t salt = [] {
    std::uint64_t x = static_cast<std::uint64_t>(::getpid());
    x ^= static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
    x ^= static_cast<std::uint64_t>(
             std::chrono::system_clock::now().time_since_epoch().count())
         << 17;
    return (Mix64(x) | 1ull) << 32;
  }();
  return salt;
}

/// Registry of every thread's ring. Rings are owned here, not by the
/// threads, so events of an exited worker survive until export. A ring
/// registered while tracing is off holds only its tid and name; Enable
/// sizes it, so a process that never traces pays no event storage.
struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<internal::ThreadRing>> rings;
  std::size_t ring_capacity = TraceRecorder::kDefaultRingCapacity;
  std::uint32_t next_tid = 0;
};

Registry& GetRegistry() {
  static Registry* r = new Registry;  // leaked: outlives exiting threads
  return *r;
}

}  // namespace

std::uint64_t TraceNowNs() {
  static const std::chrono::steady_clock::time_point anchor =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - anchor)
          .count());
}

namespace internal {

struct ThreadRing {
  /// Empty until tracing is enabled, then fixed capacity; resized only
  /// by Enable, under the snapshot lock.
  std::vector<TraceEvent> events;
  std::size_t head = 0;            ///< next write index
  std::uint64_t recorded = 0;      ///< lifetime writes (drops = rec - held)
  std::uint32_t tid = 0;
  const char* thread_name = nullptr;
  /// Snapshot lock: taken by the OWNER per event write and by an exporter
  /// per ring copy. Owner/exporter is the only possible contention —
  /// recording threads never touch each other's rings — so the exchange
  /// is uncontended in steady state and recording stays effectively
  /// wait-free; an exporter holds it only for one memcpy-sized copy.
  mutable std::atomic<bool> busy{false};

  void Lock() const {
    while (busy.exchange(true, std::memory_order_acquire)) {
      // Spin: the holder is mid-copy or mid-write, both short.
    }
  }
  void Unlock() const { busy.store(false, std::memory_order_release); }

  void Write(const TraceEvent& ev) {
    Lock();
    if (events.empty()) {
      // A record that raced Enable before Enable reached this ring: drop
      // it (the trace starts at Enable) rather than index an empty ring.
      Unlock();
      return;
    }
    events[head] = ev;
    head = head + 1 == events.size() ? 0 : head + 1;
    ++recorded;
    Unlock();
  }
  /// Caller holds the snapshot lock.
  std::uint64_t held() const {
    return recorded < events.size() ? recorded : events.size();
  }
};

}  // namespace internal

using internal::ThreadRing;

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* recorder = new TraceRecorder;
  return *recorder;
}

std::uint64_t TraceRecorder::NextFlowId() {
  const std::uint64_t seq =
      next_flow_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  return FlowSalt() | (seq & 0xFFFFFFFFull);
}

internal::ThreadRing* TraceRecorder::RingForThisThread() {
  thread_local ThreadRing* ring = nullptr;
  if (ring == nullptr) {
    Registry& reg = GetRegistry();
    std::lock_guard lock(reg.mu);
    auto owned = std::make_unique<ThreadRing>();
    owned->tid = reg.next_tid++;
    // enabled_ flips under reg.mu in Enable, so a ring registered after
    // that sees it; one registered before is sized by Enable's loop.
    if (enabled()) owned->events.resize(reg.ring_capacity);
    ring = owned.get();
    reg.rings.push_back(std::move(owned));
  }
  return ring;
}

void TraceRecorder::Enable(std::size_t ring_capacity) {
  Registry& reg = GetRegistry();
  {
    std::lock_guard lock(reg.mu);
    if (ring_capacity == 0) ring_capacity = 1;
    reg.ring_capacity = ring_capacity;
    enabled_.store(true, std::memory_order_relaxed);
    for (auto& ring : reg.rings) {
      ring->Lock();
      ring->events.assign(ring_capacity, TraceEvent{});
      ring->head = 0;
      ring->recorded = 0;
      ring->Unlock();
    }
  }
}

void TraceRecorder::Disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

void TraceRecorder::RecordSpan(const char* name, const char* category,
                               std::uint64_t start_ns, std::uint64_t dur_ns,
                               std::uint64_t flow_id, std::uint64_t arg) {
  if (!enabled()) return;
  ThreadRing* ring = RingForThisThread();
  TraceEvent ev;
  ev.name = name;
  ev.category = category;
  ev.start_ns = start_ns;
  ev.dur_ns = dur_ns;
  ev.flow_id = flow_id;
  ev.arg = arg;
  ev.tid = ring->tid;
  ev.kind = TraceEventKind::kSpan;
  ring->Write(ev);
}

void TraceRecorder::RecordInstant(const char* name, const char* category,
                                  std::uint64_t arg) {
  if (!enabled()) return;
  ThreadRing* ring = RingForThisThread();
  TraceEvent ev;
  ev.name = name;
  ev.category = category;
  ev.start_ns = TraceNowNs();
  ev.arg = arg;
  ev.tid = ring->tid;
  ev.kind = TraceEventKind::kInstant;
  ring->Write(ev);
}

void TraceRecorder::RecordFlow(TraceEventKind kind, const char* name,
                               std::uint64_t flow_id) {
  if (!enabled() || flow_id == 0) return;
  ThreadRing* ring = RingForThisThread();
  TraceEvent ev;
  ev.name = name;
  ev.category = "flow";
  ev.start_ns = TraceNowNs();
  ev.flow_id = flow_id;
  ev.tid = ring->tid;
  ev.kind = kind;
  ring->Write(ev);
}

void TraceRecorder::SetThreadName(const char* name) {
  Global().RingForThisThread()->thread_name = name;
}

void TraceRecorder::Clear() {
  Registry& reg = GetRegistry();
  std::lock_guard lock(reg.mu);
  for (auto& ring : reg.rings) {
    ring->Lock();
    ring->head = 0;
    ring->recorded = 0;
    ring->Unlock();
  }
}

std::uint64_t TraceRecorder::events_recorded() const {
  Registry& reg = GetRegistry();
  std::lock_guard lock(reg.mu);
  std::uint64_t held = 0;
  for (const auto& ring : reg.rings) {
    ring->Lock();
    held += ring->held();
    ring->Unlock();
  }
  return held;
}

std::size_t TraceRecorder::event_storage_bytes() const {
  Registry& reg = GetRegistry();
  std::lock_guard lock(reg.mu);
  std::size_t bytes = 0;
  for (const auto& ring : reg.rings) {
    ring->Lock();
    bytes += ring->events.capacity() * sizeof(TraceEvent);
    ring->Unlock();
  }
  return bytes;
}

std::uint64_t TraceRecorder::events_dropped() const {
  Registry& reg = GetRegistry();
  std::lock_guard lock(reg.mu);
  std::uint64_t dropped = 0;
  for (const auto& ring : reg.rings) {
    ring->Lock();
    dropped += ring->recorded - ring->held();
    ring->Unlock();
  }
  return dropped;
}

namespace {

/// JSON string escaping for the few dynamic strings a trace contains
/// (thread names are literals today, but escaping is cheap insurance).
void AppendJsonEscaped(std::ostream& os, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

void WriteEventJson(std::ostream& os, const TraceEvent& ev, bool* first) {
  if (!*first) os << ",\n";
  *first = false;
  const double ts_us = static_cast<double>(ev.start_ns) / 1000.0;
  os << "{\"name\":\"";
  AppendJsonEscaped(os, ev.name != nullptr ? ev.name : "?");
  os << "\",\"cat\":\"";
  AppendJsonEscaped(os, ev.category != nullptr ? ev.category : "nec");
  os << "\",\"pid\":1,\"tid\":" << ev.tid;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", ts_us);
  os << ",\"ts\":" << buf;
  switch (ev.kind) {
    case TraceEventKind::kSpan: {
      std::snprintf(buf, sizeof buf, "%.3f",
                    static_cast<double>(ev.dur_ns) / 1000.0);
      os << ",\"ph\":\"X\",\"dur\":" << buf;
      break;
    }
    case TraceEventKind::kInstant:
      os << ",\"ph\":\"i\",\"s\":\"t\"";
      break;
    case TraceEventKind::kFlowBegin:
      os << ",\"ph\":\"s\",\"id\":" << ev.flow_id;
      break;
    case TraceEventKind::kFlowEnd:
      os << ",\"ph\":\"f\",\"bp\":\"e\",\"id\":" << ev.flow_id;
      break;
  }
  if (ev.kind == TraceEventKind::kSpan && ev.flow_id != 0) {
    // Also emit the span's flow id as an arg so the linkage survives
    // viewers that collapse flow arrows.
    os << ",\"id\":" << ev.flow_id;
  }
  if (ev.arg != TraceEvent::kNoArg) {
    os << ",\"args\":{\"v\":" << ev.arg << "}";
  }
  os << "}";
}

}  // namespace

void TraceRecorder::WriteChromeTrace(std::ostream& os) const {
  Registry& reg = GetRegistry();
  std::lock_guard lock(reg.mu);
  os << "{\"traceEvents\":[\n";
  bool first = true;
  for (const auto& ring : reg.rings) {
    if (ring->thread_name == nullptr) continue;
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
       << ring->tid << ",\"args\":{\"name\":\"";
    AppendJsonEscaped(os, ring->thread_name);
    os << "\"}}";
  }
  // Copy each ring under its snapshot lock (bounded hold: one vector
  // copy), then serialize outside it so a recording owner never spins
  // behind JSON formatting.
  std::vector<TraceEvent> snapshot;
  for (const auto& ring : reg.rings) {
    snapshot.clear();
    ring->Lock();
    const std::uint64_t held = ring->held();
    // Oldest-first: a wrapped ring starts at head (the next overwrite
    // victim is the oldest event).
    const std::size_t cap = ring->events.size();
    const std::size_t start = ring->recorded <= cap ? 0 : ring->head;
    snapshot.reserve(held);
    for (std::uint64_t k = 0; k < held; ++k) {
      snapshot.push_back(ring->events[(start + k) % cap]);
    }
    ring->Unlock();
    for (const TraceEvent& ev : snapshot) {
      WriteEventJson(os, ev, &first);
    }
  }
  os << "\n]}\n";
}

std::string TraceRecorder::ChromeTraceJson() const {
  std::ostringstream os;
  WriteChromeTrace(os);
  return os.str();
}

}  // namespace nec::obs
