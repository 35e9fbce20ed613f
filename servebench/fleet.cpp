#include "fleet.h"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/http.h"

namespace servebench {

bool ReadProcUsage(pid_t pid, ProcUsage* out) {
  const std::string base = "/proc/" + std::to_string(pid);
  std::ifstream stat(base + "/stat");
  std::string line;
  if (!std::getline(stat, line)) return false;
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return false;
  std::istringstream fields(line.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
  out->cpu_s = static_cast<double>(utime + stime) / tick;

  std::ifstream status(base + "/status");
  out->hwm_mb = out->rss_mb = 0.0;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      out->hwm_mb = std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    } else if (line.rfind("VmRSS:", 0) == 0) {
      out->rss_mb = std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return true;
}

MachineTicks ReadMachineTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  MachineTicks ticks;
  stat >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  unsigned long long v = 0;
  for (int i = 0; i < 8 && stat >> v; ++i) {
    ticks.total += v;
    if (i == 7) ticks.steal = v;
  }
  return ticks;
}

KeepAwake::KeepAwake(std::size_t threads) {
  const pid_t parent = getpid();
  pid_ = fork();
  if (pid_ != 0) return;  // the parent; without a helper if fork failed
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (getppid() != parent) _exit(0);
  std::vector<std::thread> spinners;
  for (std::size_t i = 0; i < threads; ++i) {
    spinners.emplace_back([] {
      sched_param param{};
      sched_setscheduler(0, SCHED_IDLE, &param);
      for (;;) __builtin_ia32_pause();
    });
  }
  for (std::thread& t : spinners) t.join();  // never returns
  _exit(0);
}

KeepAwake::~KeepAwake() {
  if (pid_ <= 0) return;
  kill(pid_, SIGKILL);
  while (waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
  }
}

bool Child::Start(const std::vector<std::string>& argv, const std::string& log,
                  std::string* error) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) {
    *error = "pipe failed";
    return false;
  }
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    *error = "fork failed";
    return false;
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(fds[1], STDOUT_FILENO);
    const int err = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (err >= 0) dup2(err, STDERR_FILENO);
    execv(args[0], args.data());
    _exit(127);
  }
  close(fds[1]);
  pid_ = pid;
  out_fd_ = fds[0];
  return true;
}

bool Child::WaitLine(const std::string& prefix, double timeout_s,
                     std::string* rest, std::string* error) {
  const double deadline = NowS() + timeout_s;
  for (;;) {
    std::size_t eol;
    while ((eol = buffer_.find('\n')) != std::string::npos) {
      const std::string line = buffer_.substr(0, eol);
      buffer_.erase(0, eol + 1);
      if (line.rfind(prefix, 0) == 0) {
        *rest = line.substr(prefix.size());
        return true;
      }
    }
    const double left = deadline - NowS();
    if (left <= 0) {
      *error = "timed out waiting for '" + prefix + "'";
      return false;
    }
    pollfd p{out_fd_, POLLIN, 0};
    const int n = poll(&p, 1, static_cast<int>(left * 1000) + 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) continue;
    char buf[4096];
    const ssize_t got = read(out_fd_, buf, sizeof(buf));
    if (got <= 0) {
      *error = "necd exited before printing '" + prefix + "'";
      return false;
    }
    buffer_.append(buf, static_cast<std::size_t>(got));
  }
}

void Child::Terminate() {
  if (pid_ > 0) kill(pid_, SIGTERM);
}

void Child::Stop() {
  if (pid_ > 0) {
    Terminate();
    int status = 0;
    bool reaped = false;
    for (int i = 0; i < 500 && !reaped; ++i) {
      const pid_t r = waitpid(pid_, &status, WNOHANG);
      reaped = r == pid_ || (r < 0 && errno == ECHILD);
      if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!reaped) {
      kill(pid_, SIGKILL);
      while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
    }
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    close(out_fd_);
    out_fd_ = -1;
  }
}

bool ConnectAuthed(nec::net::NetClient* client, int port,
                   const std::string& secret, double timeout_s,
                   std::string* error) {
  const double deadline = NowS() + timeout_s;
  for (;;) {
    client->set_secret(secret);
    nec::net::HelloInfo info;
    if (client->Connect("127.0.0.1", port, 2000, error) &&
        client->Hello(&info, 2000, error)) {
      return true;
    }
    client->Close();
    if (NowS() > deadline || client->auth_rejected()) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

namespace {

bool ParsePort(const std::string& text, int* port) {
  // "127.0.0.1:PORT", "127.0.0.1:PORT (2 shards)" or "http://127.0.0.1:PORT"
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos) return false;
  *port = std::atoi(text.c_str() + colon + 1);
  return *port > 0;
}

}  // namespace

bool Fleet::Launch(const FleetOptions& options, double* setup_s,
                   std::string* error) {
  const double t0 = NowS();
  for (std::size_t i = 0; i < kShards; ++i) {
    auto child = std::make_unique<Child>();
    if (!child->Start({options.necd, "--listen", "0", "--workers",
                       std::to_string(kWorkersPerShard), "--model", "tiny",
                       "--secret", kSecret, "--metrics-port", "0"},
                      options.log_dir + "/shard" + std::to_string(i) + ".log",
                      error)) {
      return false;
    }
    shards_.push_back(std::move(child));
  }
  std::string route;
  for (auto& shard : shards_) {
    std::string rest;
    int port = 0, metrics = 0;
    if (!shard->WaitLine("necd: wire listening on ", 30, &rest, error) ||
        !ParsePort(rest, &port) ||
        !shard->WaitLine("necd: metrics listening on ", 30, &rest, error) ||
        !ParsePort(rest, &metrics)) {
      if (error->empty()) *error = "bad shard startup line";
      return false;
    }
    shard_ports_.push_back(port);
    route += (route.empty() ? "" : ",") + std::string("127.0.0.1:") +
             std::to_string(port) + ":" + std::to_string(metrics);
  }
  router_ = std::make_unique<Child>();
  std::string rest;
  if (!router_->Start({options.necd, "--route", route, "--secret", kSecret,
                       "--metrics-port", "0"},
                      options.log_dir + "/router.log", error) ||
      !router_->WaitLine("necd: routing on ", 30, &rest, error) ||
      !ParsePort(rest, &router_port_) ||
      !router_->WaitLine("necd: metrics listening on ", 30, &rest, error) ||
      !ParsePort(rest, &router_metrics_port_)) {
    if (error->empty()) *error = "bad router startup line";
    return false;
  }
  // Up means the router's own health view says so: every shard probed
  // healthy.
  const std::string want =
      "\"shards_up\":" + std::to_string(kShards) + ",";
  for (;;) {
    std::string body, err;
    int status = 0;
    if (nec::obs::HttpGet("127.0.0.1", router_metrics_port_, "/healthz",
                          &body, &status, &err) &&
        status == 200 && body.find(want) != std::string::npos) {
      break;
    }
    if (NowS() - t0 > 30) {
      *error = "router never reported every shard up";
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (std::size_t c = 0; c < options.connections; ++c) {
    clients_.push_back(std::make_unique<nec::net::NetClient>());
    if (!ConnectAuthed(clients_.back().get(), router_port_, kSecret,
                       10, error)) {
      *error = "client hello: " + *error;
      return false;
    }
  }
  *setup_s = NowS() - t0;
  return true;
}

void Fleet::Stop() {
  clients_.clear();
  // Signal all three before reaping any, so their drains overlap.
  if (router_) router_->Terminate();
  for (auto& shard : shards_) shard->Terminate();
  if (router_) router_->Stop();
  for (auto& shard : shards_) shard->Stop();
  router_.reset();
  shards_.clear();
  shard_ports_.clear();
}

std::vector<pid_t> Fleet::pids() const {
  std::vector<pid_t> out;
  for (const auto& shard : shards_) out.push_back(shard->pid());
  if (router_) out.push_back(router_->pid());
  return out;
}

ProcUsage Fleet::Usage() const {
  ProcUsage total;
  for (pid_t pid : pids()) {
    ProcUsage u;
    if (ReadProcUsage(pid, &u)) {
      total.cpu_s += u.cpu_s;
      total.hwm_mb += u.hwm_mb;
      total.rss_mb += u.rss_mb;
    }
  }
  return total;
}

void OpenBefore(Fleet& fleet, const std::vector<WirePlan>& plans,
                DriveReport* report) {
  report->sessions.resize(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const WirePlan& plan = plans[i];
    if (plan.open_at >= 0) continue;
    WireOutcome& out = report->sessions[i];
    std::string error;
    const double t = NowS();
    out.open_acked = fleet.clients()[plan.conn]->OpenSession(
        plan.sid, plan.spec.speaker_seed, plan.spec.ref_seed, 10000, &error);
    out.open_ms = 1000.0 * (NowS() - t);
    if (!out.open_acked) {
      out.faulted = true;
      out.error = error;
    }
  }
}

namespace {

enum class EventKind { kOpen, kChunk };

struct Event {
  double t;
  EventKind kind;
  std::size_t session;
  std::size_t chunk;
};

}  // namespace

void Drive(Fleet& fleet, const StreamPool& pool,
           const std::vector<WirePlan>& plans, double deadline_s,
           DriveReport* report) {
  auto& clients = fleet.clients();
  report->sessions.resize(plans.size());
  std::vector<Event> events;
  std::vector<std::vector<std::size_t>> by_conn(clients.size());
  std::vector<double> open_sent(plans.size(), 0.0);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const WirePlan& plan = plans[i];
    by_conn[plan.conn].push_back(i);
    if (plan.open_at >= 0) events.push_back({plan.open_at, EventKind::kOpen, i, 0});
    for (std::size_t k = 0; k < plan.due.size(); ++k) {
      events.push_back({plan.due[k], EventKind::kChunk, i, k});
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.t < b.t; });

  auto fail = [&](std::size_t i, const std::string& why) {
    WireOutcome& out = report->sessions[i];
    if (!out.faulted && !out.closed) {
      out.faulted = true;
      out.error = why;
    }
  };
  std::vector<bool> conn_dead(clients.size(), false);
  std::size_t next = 0;
  for (;;) {
    const double now = NowS();
    while (next < events.size() && events[next].t <= now) {
      const Event& e = events[next++];
      const WirePlan& plan = plans[e.session];
      WireOutcome& out = report->sessions[e.session];
      report->lateness_ms.push_back(1000.0 * (NowS() - e.t));
      if (conn_dead[plan.conn] || out.faulted) continue;
      std::string error;
      nec::net::NetClient& client = *clients[plan.conn];
      bool ok = true;
      if (e.kind == EventKind::kOpen) {
        open_sent[e.session] = NowS();
        ok = client.SendOpenSession(plan.sid, plan.spec.speaker_seed,
                                    plan.spec.ref_seed, &error);
      } else {
        ok = client.SubmitChunk(plan.sid, pool.Chunk(plan.spec.stream, e.chunk),
                                &error);
        out.submitted += ok ? 1 : 0;
        if (ok && e.chunk + 1 == plan.due.size()) {
          ok = client.SendCloseSession(plan.sid, &error);
        }
      }
      if (!ok) fail(e.session, error);
    }

    bool finished = next == events.size();
    for (std::size_t i = 0; i < plans.size() && finished; ++i) {
      finished = report->sessions[i].closed || report->sessions[i].faulted;
    }
    if (finished) return;
    if (NowS() > deadline_s) {
      for (std::size_t i = 0; i < plans.size(); ++i) {
        fail(i, "benchmark deadline");
      }
      return;
    }

    // Sleep until the next send is due or a reply arrives.
    std::vector<pollfd> fds;
    std::vector<std::size_t> fd_conn;
    for (std::size_t c = 0; c < clients.size(); ++c) {
      if (conn_dead[c]) continue;
      fds.push_back({clients[c]->fd(), POLLIN, 0});
      fd_conn.push_back(c);
    }
    double wait_s = next < events.size() ? events[next].t - NowS() : 0.005;
    wait_s = std::clamp(wait_s, 0.0, 0.005);
    timespec ts{0, static_cast<long>(wait_s * 1e9)};
    const int ready = ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready <= 0) continue;
    for (std::size_t f = 0; f < fds.size(); ++f) {
      if (fds[f].revents == 0) continue;
      const std::size_t c = fd_conn[f];
      nec::net::NetClient& client = *clients[c];
      std::string error;
      bool timed_out = false;
      const bool pumped = client.PumpOnce(0, &timed_out, &error);
      const double at = NowS();
      for (std::size_t i : by_conn[c]) {
        const WirePlan& plan = plans[i];
        WireOutcome& out = report->sessions[i];
        nec::net::WireSessionState* st = client.mutable_session(plan.sid);
        if (st->open_acked && !out.open_acked && plan.open_at >= 0) {
          out.open_acked = true;
          out.open_ms = 1000.0 * (at - open_sent[i]);
        }
        std::size_t taken = 0;
        while (st->shadow.size() - taken >= kOutSamples) {
          out.digests.push_back(DigestOf(st->shadow.data() + taken, kOutSamples));
          out.arrive.push_back(at);
          taken += kOutSamples;
        }
        if (taken > 0) {
          st->shadow.erase(st->shadow.begin(),
                           st->shadow.begin() + static_cast<std::ptrdiff_t>(taken));
        }
        if (st->error.has_value()) fail(i, st->error->message);
        if (st->closed && !out.faulted) {
          out.closed = true;
          if (!st->shadow.empty()) {
            out.closed = false;
            fail(i, "partial chunk after close");
          }
        }
      }
      if (!pumped) {
        conn_dead[c] = true;
        for (std::size_t i : by_conn[c]) fail(i, "connection: " + error);
      }
    }
  }
}

}  // namespace servebench
