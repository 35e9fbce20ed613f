// The networked side of the benchmark: necd child processes (two shards
// behind one router, ephemeral ports parsed from their startup lines),
// their CPU and peak RSS read from /proc/<pid>, and a single-threaded
// open-loop client that drives wire sessions on a schedule.
#pragma once

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "net/client.h"

namespace servebench {

/// User+system CPU seconds, peak RSS (VmHWM) and current RSS (VmRSS) of
/// one process.
struct ProcUsage {
  double cpu_s = 0.0;
  double hwm_mb = 0.0;
  double rss_mb = 0.0;
};
bool ReadProcUsage(pid_t pid, ProcUsage* out);

/// Machine-wide CPU time from /proc/stat, in clock ticks: all of it, and
/// the part the hypervisor ran something else on our CPUs (steal). The
/// steal share over a run says how much of its noise came from the host.
struct MachineTicks {
  unsigned long long total = 0;
  unsigned long long steal = 0;
};
MachineTicks ReadMachineTicks();
inline double StealPct(const MachineTicks& a, const MachineTicks& b) {
  return b.total > a.total
             ? 100.0 * double(b.steal - a.steal) / double(b.total - a.total)
             : 0.0;
}

/// Keeps every CPU busy at the lowest scheduling class while alive, so no
/// vCPU halts between the fleet's short bursts of work. On a shared VM a
/// halted vCPU that is woken waits for the host to run it again; that wait
/// is counted as steal, follows the host's load, and moved the fleet
/// latencies more than anything the program did. The spinners are
/// SCHED_IDLE threads of a helper process of their own: they run only
/// when no other thread wants the CPU, any waking thread preempts them,
/// and the load generator stays one thread.
class KeepAwake {
 public:
  explicit KeepAwake(std::size_t threads);
  /// Kills the helper and waits for it.
  ~KeepAwake();
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

 private:
  pid_t pid_ = -1;
};

/// One spawned necd. Its stdout is a pipe the startup lines are read
/// from; stderr goes to a log file. The child is killed if the benchmark
/// dies, and Stop() (also run by the destructor) terminates and reaps it.
class Child {
 public:
  Child() = default;
  ~Child() { Stop(); }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  bool Start(const std::vector<std::string>& argv, const std::string& log,
             std::string* error);
  /// Reads stdout until a line starting with `prefix`; *rest gets the
  /// remainder of that line.
  bool WaitLine(const std::string& prefix, double timeout_s, std::string* rest,
                std::string* error);
  /// Sends SIGTERM and returns; Stop() then reaps.
  void Terminate();
  /// SIGTERM, up to 5 s for a clean exit, then SIGKILL; always reaps.
  void Stop();
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string buffer_;
};

/// The fleet's shape: two shards of two workers (four workers, matched to
/// four cores), auth on with this shared secret.
constexpr std::size_t kShards = 2;
constexpr std::size_t kWorkersPerShard = 2;
constexpr const char* kSecret = "servebench-fleet-secret";

struct FleetOptions {
  std::string necd;            ///< path of the necd binary
  std::string log_dir;         ///< child stderr logs go here
  std::size_t connections = 1;  ///< authed client connections to the router
};

/// Two `necd --listen` shards and one `necd --route` router with auth on,
/// plus the load generator's client connections to the router.
class Fleet {
 public:
  /// Launches everything and returns when the router reports every shard
  /// up and each client connection has passed hello/auth. *setup_s is the
  /// wall time of exactly that.
  bool Launch(const FleetOptions& options, double* setup_s,
              std::string* error);
  void Stop();

  std::vector<pid_t> pids() const;
  /// Sum over the fleet's processes.
  ProcUsage Usage() const;

  int router_port() const { return router_port_; }
  const std::vector<int>& shard_ports() const { return shard_ports_; }
  std::vector<std::unique_ptr<nec::net::NetClient>>& clients() {
    return clients_;
  }

 private:
  std::vector<std::unique_ptr<Child>> shards_;
  std::unique_ptr<Child> router_;
  std::vector<int> shard_ports_;
  int router_port_ = 0;
  int router_metrics_port_ = 0;
  std::vector<std::unique_ptr<nec::net::NetClient>> clients_;
};

/// Connects and runs the authed hello; retries while the router has not
/// yet cached a shard's hello (it answers kOverload until then).
bool ConnectAuthed(nec::net::NetClient* client, int port,
                   const std::string& secret, double timeout_s,
                   std::string* error);

/// One scheduled wire session.
struct WirePlan {
  SessionSpec spec;
  std::size_t conn = 0;
  std::uint64_t sid = 0;
  double open_at = -1.0;     ///< < 0: opened before the run (OpenBefore)
  std::vector<double> due;   ///< per chunk: when its last sample is due
  std::size_t warmup = 0;    ///< leading chunks left out of the figures
};

struct WireOutcome {
  bool open_acked = false;
  double open_ms = 0.0;
  bool closed = false;
  bool faulted = false;
  std::string error;
  std::size_t submitted = 0;
  std::vector<double> arrive;    ///< per received chunk (NowS)
  std::vector<Digest> digests;   ///< per received chunk
};

struct DriveReport {
  std::vector<WireOutcome> sessions;
  std::vector<double> lateness_ms;  ///< send time minus schedule, per send
};

/// Opens the plans with open_at < 0 one at a time (each waits for its
/// ack), recording the open latency of each.
void OpenBefore(Fleet& fleet, const std::vector<WirePlan>& plans,
                DriveReport* report);

/// Runs the schedule: opens at open_at, submits chunk k of each session
/// at due[k] (and closes it right after its last chunk), and receives
/// until every session is closed or faulted or `deadline_s` (NowS) passes.
void Drive(Fleet& fleet, const StreamPool& pool,
           const std::vector<WirePlan>& plans, double deadline_s,
           DriveReport* report);

}  // namespace servebench
