#include "workloads.h"

#include <sys/resource.h>

#include <memory>
#include <thread>

#include "checks.h"
#include "fleet.h"
#include "runtime/session_manager.h"

namespace servebench {
namespace {

// Seed roles: each workload draws its inputs from its own seed stream.
constexpr std::uint64_t kRoleInproc = 1;
constexpr std::uint64_t kRolePaced = 2;
constexpr std::uint64_t kRoleChurn = 3;

std::size_t Nproc() {
  return std::max(1u, std::thread::hardware_concurrency());
}

double CpuSeconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

void WriteSamples(const RunArgs& args, const char* name,
                  const std::vector<double>& v) {
  if (std::FILE* f = std::fopen((args.out_dir + "/" + name).c_str(), "w")) {
    for (double x : v) std::fprintf(f, "%.6f\n", x);
    std::fclose(f);
  }
}

/// Fills the seven end-to-end metrics in BENCHMARK.json order, and keeps
/// the raw set-up and latency samples next to the run's logs.
void SetEndToEnd(const RunArgs& args, RunResult* r, std::vector<double> setups,
                 double chunks_per_s, double cpu_ms_per_chunk,
                 std::vector<double> latency_ms, std::vector<double> open_ms,
                 double rss_mb) {
  WriteSamples(args, "setup_s.txt", setups);
  WriteSamples(args, "latency_ms.txt", latency_ms);
  r->detail["setup_samples"] = double(setups.size());
  double tail_pct = 0;
  r->detail["latency_samples"] = double(latency_ms.size());
  r->detail["open_samples"] = double(open_ms.size());
  const double p50 = Median(latency_ms);
  const double tail = Tail(std::move(latency_ms), &tail_pct);
  r->detail["tail_percentile"] = tail_pct;
  r->metrics = {
      {"setup_s", Median(std::move(setups)), "s"},
      {"chunks_per_s", chunks_per_s, "1/s"},
      {"cpu_ms_per_chunk", cpu_ms_per_chunk, "ms"},
      {"chunk_latency_p50_ms", p50, "ms"},
      {"chunk_latency_tail_ms", tail, "ms"},
      {"session_open_p50_ms", Median(std::move(open_ms)), "ms"},
      {"peak_rss_mb", rss_mb, "MiB"},
  };
}

ProcUsage SelfUsage() {
  ProcUsage u;
  ReadProcUsage(getpid(), &u);
  return u;
}

}  // namespace

// ---------------------------------------------------------------- inproc

RunResult RunInprocSaturated(const RunArgs& args) {
  using nec::runtime::SessionManager;
  RunResult result;
  Accounting& acct = result.acct;
  const std::size_t nproc = Nproc();
  const std::size_t sessions = 2 * nproc;
  const std::size_t outstanding = 2;  // chunks in flight per session
  constexpr std::size_t kSetupsPerGroup = 5;
  constexpr double kWarmupS = 1.0;
  constexpr std::size_t kIdleOpens = 40;  // after the run
  constexpr double kOpenSpacingS = 0.1;

  // Inputs (never part of set-up): one stream and one enrollment per
  // session.
  const StreamPool pool =
      MakePool(args.seed, kRoleInproc, sessions, 8, nproc);
  std::vector<SessionSpec> specs;
  std::vector<std::vector<nec::audio::Waveform>> refs;
  for (std::size_t i = 0; i < sessions; ++i) {
    specs.push_back(MakeSession(args.seed, kRoleInproc, i, pool));
    refs.push_back(EnrollmentRefs(specs.back()));
  }
  // peak_rss_mb is this process's VmHWM, so it includes the inputs above;
  // the detail line reports what synthesis left resident and its own peak,
  // so a reader can see the serving peak lies above it.
  const ProcUsage inputs = SelfUsage();

  SessionManager::Options options;
  options.workers = nproc;

  // Set-up: model + manager (serving defaults, workers = nproc) + every
  // session. The set-up that serves the run is the first sample; the
  // rest are repeated in groups after the window (after its peak RSS is
  // read, so discarded managers never count there): right after it, after
  // the opens, and after the checks. The set-up figure is their median,
  // sampled across the whole run rather than in one burst.
  std::vector<double> setups;
  auto set_up = [&] {
    const double t0 = NowS();
    const Model model = TinyModel();
    auto manager = std::make_unique<SessionManager>(
        model.selector, model.encoder, nec::core::PipelineOptions{}, options);
    std::vector<SessionManager::SessionId> ids;
    for (std::size_t i = 0; i < sessions; ++i) {
      ids.push_back(manager->CreateSession(refs[i]));
    }
    setups.push_back(NowS() - t0);
    acct.opens_attempted += sessions;
    acct.opens_acked += sessions;
    return std::make_pair(std::move(manager), std::move(ids));
  };
  auto set_up_group = [&] {
    for (std::size_t r = 0; r < kSetupsPerGroup; ++r) set_up();
  };
  auto [manager, ids] = set_up();

  // Offline replay: each session keeps `outstanding` chunks submitted;
  // the next goes in as soon as one completes.
  struct Feed {
    std::size_t submitted = 0;
    std::vector<float> pending;
    std::vector<double> submit_at, arrive;
    std::vector<Digest> digests;
  };


  // The first second warms the strands up and fills the queues; the
  // figures come from the `seconds` after it. Worker CPU is the process
  // total less this (load-generating) thread.
  std::vector<Feed> feeds(sessions);
  const double t0 = NowS() + kWarmupS;
  const double end = t0 + args.seconds;
  auto worker_cpu = [] {
    return CpuSeconds(RUSAGE_SELF) - CpuSeconds(RUSAGE_THREAD);
  };
  double cpu0 = -1.0, cpu_window = -1.0;
  double rss_mb = 0.0;
  MachineTicks ticks0, ticks1;
  for (;;) {
    const double now = NowS();
    if (now >= t0 && cpu0 < 0) {
      cpu0 = worker_cpu();
      ticks0 = ReadMachineTicks();
    }
    if (now >= end && cpu_window < 0) {
      cpu_window = worker_cpu() - cpu0;
      ticks1 = ReadMachineTicks();
      rss_mb = SelfUsage().hwm_mb;
    }
    bool idle = true;
    for (std::size_t i = 0; i < sessions; ++i) {
      Feed& f = feeds[i];
      nec::audio::Waveform out = manager->TakeOutput(ids[i]);
      if (!out.empty()) {
        const double at = NowS();
        f.pending.insert(f.pending.end(), out.samples().begin(),
                         out.samples().end());
        std::size_t taken = 0;
        while (f.pending.size() - taken >= kOutSamples) {
          f.digests.push_back(DigestOf(f.pending.data() + taken, kOutSamples));
          f.arrive.push_back(at);
          taken += kOutSamples;
        }
        f.pending.erase(f.pending.begin(),
                        f.pending.begin() + static_cast<std::ptrdiff_t>(taken));
      }
      while (now < end && f.submitted - f.digests.size() < outstanding) {
        const auto r =
            manager->Submit(ids[i], pool.Chunk(specs[i].stream, f.submitted));
        if (!r.ok()) break;
        f.submit_at.push_back(NowS());
        ++f.submitted;
      }
      if (f.submitted != f.digests.size()) idle = false;
    }
    if (now >= end && idle) break;
    if (now > end + 60) break;  // a wedged manager; counted below
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  // Per-session service in the window: a session fed as fast as it is
  // served keeps its strand, and so its worker, for as long as its inbox
  // never runs dry, so sessions beyond `workers` can get none (see the
  // README); the detail line reports how many did, and the longest any
  // chunk waited, drain after the window included.
  std::size_t window_chunks = 0, starved = 0;
  std::size_t min_session = ~std::size_t{0}, max_session = 0;
  double last_in_window = t0, wait_max_ms = 0;
  std::vector<double> latency_ms;
  std::vector<std::vector<Digest>> served;
  for (std::size_t i = 0; i < sessions; ++i) {
    const Feed& f = feeds[i];
    acct.chunks_submitted += f.submitted;
    acct.chunks_acked += f.digests.size();
    std::size_t session_chunks = 0;
    for (std::size_t k = 0; k < f.arrive.size(); ++k) {
      wait_max_ms =
          std::max(wait_max_ms, 1000.0 * (f.arrive[k] - f.submit_at[k]));
      if (f.arrive[k] < t0 || f.arrive[k] > end) continue;
      ++session_chunks;
      ++window_chunks;
      last_in_window = std::max(last_in_window, f.arrive[k]);
      if (f.submit_at[k] >= t0) {
        latency_ms.push_back(1000.0 * (f.arrive[k] - f.submit_at[k]));
      }
    }
    starved += session_chunks == 0 ? 1 : 0;
    min_session = std::min(min_session, session_chunks);
    max_session = std::max(max_session, session_chunks);
    served.push_back(f.digests);
    const auto status = manager->SessionStatus(ids[i]);
    if (status.state == nec::runtime::SessionState::kFaulted) {
      ++acct.sessions_faulted;
    } else {
      ++acct.sessions_completed;
    }
  }

  set_up_group();

  // Opens are timed one at a time on the idle manager after the run,
  // spaced out over a few seconds so the figure samples the machine over
  // time rather than in one burst. (Timed before the run, they made the
  // guest scheduler more likely to leave two busy workers on one vCPU for
  // seconds; see the README.)
  std::vector<double> open_ms;
  const double opens_start = NowS();
  for (std::size_t j = 0; j < kIdleOpens; ++j) {
    std::this_thread::sleep_for(std::chrono::duration<double>(
        opens_start + kOpenSpacingS * double(j) - NowS()));
    const double t = NowS();
    manager->CreateSession(refs[j % sessions]);
    open_ms.push_back(1000.0 * (NowS() - t));
  }
  acct.opens_attempted += kIdleOpens;
  acct.opens_acked += kIdleOpens;
  manager.reset();
  set_up_group();

  const Model model = TinyModel();
  const CheckSummary checks =
      VerifySessions(model, specs, pool, served, nproc, &acct);
  set_up_group();
  result.detail["min_in_band_share"] = checks.min_in_band_share;
  result.detail["max_audible_share"] = checks.max_audible_share;
  result.detail["host_steal_pct"] = StealPct(ticks0, ticks1);
  result.detail["inputs_rss_mb"] = inputs.rss_mb;
  result.detail["inputs_hwm_mb"] = inputs.hwm_mb;
  result.detail["sessions"] = double(sessions);
  result.detail["sessions_starved"] = double(starved);
  result.detail["session_chunks_min"] = double(min_session);
  result.detail["session_chunks_max"] = double(max_session);
  result.detail["chunk_wait_max_ms"] = wait_max_ms;
  result.detail["workers"] = double(nproc);
  SetEndToEnd(args, &result, std::move(setups),
              last_in_window > t0 ? double(window_chunks) / (last_in_window - t0)
                                  : 0,
              window_chunks ? 1000.0 * cpu_window / double(window_chunks) : 0,
              std::move(latency_ms), std::move(open_ms), rss_mb);
  result.correct = acct.checks_failed == 0;
  return result;
}

// ----------------------------------------------------------------- fleet

namespace {

struct FleetRun {
  std::size_t steady = 0;           ///< sessions streaming the whole run
  double churn_rate = 0.0;          ///< short sessions opened per second
  std::uint64_t role = 0;
};

constexpr std::size_t kChurnChunks = 2;  ///< chunks per short session
// A launch takes about 15 ms, so a single host stall moves it; set-up is
// the median of many launches, spaced out before and after the run.
constexpr std::size_t kFleetSetupsEachSide = 16;
constexpr double kFleetSetupSpacingS = 0.1;

RunResult RunFleet(const RunArgs& args, const FleetRun& run) {
  RunResult result;
  Accounting& acct = result.acct;
  const std::size_t nproc = Nproc();
  const std::size_t connections = std::min<std::size_t>(nproc, 4);
  const std::size_t window = static_cast<std::size_t>(args.seconds + 0.5);
  const std::size_t churn =
      static_cast<std::size_t>(run.churn_rate * double(window) + 0.5);

  const StreamPool pool = MakePool(args.seed, run.role, 8, 8, nproc);
  std::vector<WirePlan> plans;
  for (std::size_t i = 0; i < run.steady + churn; ++i) {
    WirePlan plan;
    plan.spec = MakeSession(args.seed, run.role, i, pool);
    plan.conn = i % connections;
    plan.sid = i + 1;
    plans.push_back(std::move(plan));
  }

  FleetOptions options;
  options.necd = args.necd;
  options.log_dir = args.out_dir;
  options.connections = connections;
  // No vCPU halts from the first launch to the last (see KeepAwake).
  auto awake = std::make_unique<KeepAwake>(nproc);
  Fleet fleet;
  std::vector<double> setups;
  // Launches kFleetSetupsEachSide fleets kFleetSetupSpacingS apart,
  // stopping each before the next; the last one stays up.
  auto launch_series = [&] {
    const double series_start = NowS();
    for (std::size_t r = 0; r < kFleetSetupsEachSide; ++r) {
      fleet.Stop();
      std::this_thread::sleep_for(std::chrono::duration<double>(
          series_start + kFleetSetupSpacingS * double(r) - NowS()));
      double setup_s = 0;
      std::string error;
      if (!fleet.Launch(options, &setup_s, &error)) {
        throw std::runtime_error("fleet launch: " + error);
      }
      setups.push_back(setup_s);
    }
  };
  launch_series();

  // The steady population opens one at a time before the run; its first
  // chunk is a warm-up left out of the figures. Short sessions open on an
  // open-loop schedule during the run, each streaming a few chunks on the
  // audio clock and closing.
  for (std::size_t j = 0; j < churn; ++j) plans[run.steady + j].open_at = 0;
  DriveReport report;
  OpenBefore(fleet, plans, &report);
  const double start = NowS() + 0.2;
  for (std::size_t i = 0; i < run.steady; ++i) {
    WirePlan& plan = plans[i];
    const double phase = double(i) / double(run.steady);
    for (std::size_t k = 0; k <= window; ++k) {
      plan.due.push_back(start + phase + double(k));
    }
    plan.warmup = 1;
  }
  for (std::size_t j = 0; j < churn; ++j) {
    WirePlan& plan = plans[run.steady + j];
    plan.open_at = start + 1.0 + double(j) / run.churn_rate;
    for (std::size_t k = 1; k <= kChurnChunks; ++k) {
      plan.due.push_back(plan.open_at + double(k));
    }
  }

  const ProcUsage before = fleet.Usage();
  const MachineTicks ticks0 = ReadMachineTicks();
  Drive(fleet, pool, plans, start + double(window) + 60.0, &report);
  const MachineTicks ticks1 = ReadMachineTicks();
  const ProcUsage after = fleet.Usage();

  // With no short sessions the run's opens all happened in the burst
  // before it; open the same enrollments once more on the now idle fleet
  // (then close them) so the open figure samples both ends of the run.
  std::vector<double> idle_opens;
  if (churn == 0) {
    for (std::size_t i = 0; i < run.steady; ++i) {
      nec::net::NetClient& client = *fleet.clients()[plans[i].conn];
      const std::uint64_t sid = plans.size() + 1 + i;
      std::string error;
      const double t = NowS();
      const bool ok = client.OpenSession(sid, plans[i].spec.speaker_seed,
                                         plans[i].spec.ref_seed, 10000, &error);
      const double ms = 1000.0 * (NowS() - t);
      ++acct.opens_attempted;
      if (ok && client.SendCloseSession(sid, &error) &&
          client.WaitDone(sid, 10000, &error) && client.session(sid).closed) {
        ++acct.opens_acked;
        idle_opens.push_back(ms);
      } else {
        std::fprintf(stderr, "servebench: idle open %llu failed: %s\n",
                     static_cast<unsigned long long>(sid), error.c_str());
      }
    }
  }
  launch_series();
  fleet.Stop();
  awake.reset();

  std::vector<double> latency_ms, open_ms = idle_opens;
  double first_due = 1e300, last_arrive = 0;
  std::size_t measured = 0, received = 0;
  std::vector<SessionSpec> specs;
  std::vector<std::vector<Digest>> served;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const WirePlan& plan = plans[i];
    const WireOutcome& out = report.sessions[i];
    ++acct.opens_attempted;
    acct.opens_acked += out.open_acked ? 1 : 0;
    acct.chunks_submitted += plan.due.size();
    acct.chunks_acked += out.digests.size();
    received += out.digests.size();
    if (out.closed) {
      ++acct.sessions_completed;
    } else {
      ++acct.sessions_faulted;
      std::fprintf(stderr, "servebench: session %llu failed: %s\n",
                   static_cast<unsigned long long>(plan.sid),
                   out.error.c_str());
    }
    if (plan.open_at >= 0 && out.open_acked) open_ms.push_back(out.open_ms);
    if (plan.open_at < 0 && out.open_acked && run.churn_rate == 0) {
      open_ms.push_back(out.open_ms);
    }
    for (std::size_t k = plan.warmup; k < out.arrive.size(); ++k) {
      latency_ms.push_back(1000.0 * (out.arrive[k] - plan.due[k]));
      first_due = std::min(first_due, plan.due[k]);
      last_arrive = std::max(last_arrive, out.arrive[k]);
      ++measured;
    }
    specs.push_back(plan.spec);
    served.push_back(out.digests);
  }

  const Model model = TinyModel();
  const CheckSummary checks =
      VerifySessions(model, specs, pool, served, nproc, &acct);
  result.detail["min_in_band_share"] = checks.min_in_band_share;
  result.detail["max_audible_share"] = checks.max_audible_share;
  result.detail["lateness_p50_ms"] = Median(report.lateness_ms);
  result.detail["lateness_max_ms"] = Max(report.lateness_ms);
  result.detail["host_steal_pct"] = StealPct(ticks0, ticks1);
  result.detail["steady_sessions"] = double(run.steady);
  result.detail["churn_sessions"] = double(churn);
  result.detail["connections"] = double(connections);
  const double wall = last_arrive - first_due;
  SetEndToEnd(args, &result, std::move(setups),
              wall > 0 ? double(measured) / wall : 0,
              received ? 1000.0 * (after.cpu_s - before.cpu_s) / double(received)
                       : 0,
              std::move(latency_ms), std::move(open_ms), after.hwm_mb);
  result.correct = acct.checks_failed == 0;
  return result;
}

}  // namespace

RunResult RunFleetPaced(const RunArgs& args) {
  return RunFleet(args, {.steady = 32, .churn_rate = 0.0, .role = kRolePaced});
}

RunResult RunFleetChurn(const RunArgs& args) {
  return RunFleet(args, {.steady = 20, .churn_rate = 5.0, .role = kRoleChurn});
}

}  // namespace servebench
