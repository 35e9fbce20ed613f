// The layer walk: replays seeded chunks and opens through each layer's
// public functions, one call at a time, with a span from this file around
// each call. Per-layer metrics are medians of those span durations. The
// walk runs on an otherwise idle machine and fleet, so a span is the
// layer's own cost, not queueing.
#include <thread>

#include "channel/modulation.h"
#include "checks.h"
#include "core/memory.h"
#include "core/pipeline.h"
#include "core/streaming.h"
#include "fleet.h"
#include "net/frame.h"
#include "runtime/session_manager.h"
#include "workloads.h"

namespace servebench {
namespace {

constexpr std::uint64_t kRoleWalk = 4;
constexpr std::uint64_t kRoleWalkOpens = 5;
constexpr std::size_t kPiece = 4096;  // necd's capture-callback piece
/// Masking: ||mixed + shadow||^2 may exceed ||mixed||^2 by at most this
/// share, the inverse STFT's reconstruction error at chunk edges.
constexpr double kMaskTolerance = 0.02;

/// Pumps `client` until session `sid` has received `samples` samples.
bool WaitSamples(nec::net::NetClient& client, std::uint64_t sid,
                 std::size_t samples, std::string* error) {
  const double deadline = NowS() + 10.0;
  while (client.session(sid).shadow.size() < samples) {
    if (client.session(sid).error.has_value()) {
      *error = client.session(sid).error->message;
      return false;
    }
    bool timed_out = false;
    if (!client.PumpOnce(100, &timed_out, error)) return false;
    if (NowS() > deadline) {
      *error = "timed out waiting for a shadow chunk";
      return false;
    }
  }
  return true;
}

double SumSquares(const float* x, std::size_t n) {
  double e = 0;
  for (std::size_t i = 0; i < n; ++i) e += double(x[i]) * double(x[i]);
  return e;
}

}  // namespace

RunResult RunLayerWalk(const RunArgs& args) {
  using nec::audio::Waveform;
  RunResult result;
  Accounting& acct = result.acct;
  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  const Model model = TinyModel();
  const nec::core::NecConfig& cfg = model.config;

  const StreamPool pool = MakePool(args.seed, kRoleWalk, 3, 8, nproc);
  // The fleet workloads' conditions: no vCPU halts while the walk runs.
  const KeepAwake awake(nproc);
  // Session 0: the compute and runtime walk; 1: direct to a shard; 2:
  // through the router.
  std::vector<SessionSpec> specs;
  for (std::size_t i = 0; i < 3; ++i) {
    specs.push_back(MakeSession(args.seed, kRoleWalk, i, pool));
  }

  nec::core::NecPipeline pipeline(model.selector, model.encoder, {});
  pipeline.Enroll(EnrollmentRefs(specs[0]));
  nec::core::StreamingProcessor proc(pipeline, 1.0);
  nec::core::StreamingProcessor untraced(pipeline, 1.0);
  nec::core::ShadowScratch scratch;
  nec::dsp::ResamplerPlan plan;
  Waveform shadow, modulated, chunk_out, untraced_out;
  double latch = 0.0;

  nec::runtime::SessionManager::Options options;
  options.workers = nproc;
  nec::runtime::SessionManager manager(model.selector, model.encoder, {},
                                       options);
  const auto turnaround_id = manager.CreateSession(EnrollmentRefs(specs[0]));

  // Selector work per chunk, from the layers' own MAC counters.
  std::size_t macs = 0;
  {
    nec::core::Selector counting(cfg, 7);
    const Waveform wave(kInputRate, std::vector<float>(
                                        pool.Chunk(specs[0].stream, 0).begin(),
                                        pool.Chunk(specs[0].stream, 0).end()));
    const nec::dsp::Spectrogram spec = nec::dsp::Stft(wave, cfg.stft);
    nec::nn::Tensor input({spec.num_frames(), spec.num_bins()});
    for (std::size_t i = 0; i < input.numel(); ++i) input[i] = spec.mag()[i];
    counting.Forward(input, pipeline.dvector(), false);
    macs = counting.LastForwardMacs();
  }

  FleetOptions fleet_options;
  fleet_options.necd = args.necd;
  fleet_options.log_dir = args.out_dir;
  fleet_options.connections = 1;
  Fleet fleet;
  double setup_s = 0;
  std::string error;
  if (!fleet.Launch(fleet_options, &setup_s, &error)) {
    throw std::runtime_error("fleet launch: " + error);
  }
  nec::net::NetClient& routed = *fleet.clients()[0];
  nec::net::NetClient direct;
  if (!ConnectAuthed(&direct, fleet.shard_ports()[0], kSecret, 10, &error) ||
      !direct.OpenSession(1, specs[1].speaker_seed, specs[1].ref_seed, 10000,
                          &error) ||
      !routed.OpenSession(1, specs[2].speaker_seed, specs[2].ref_seed, 10000,
                          &error)) {
    throw std::runtime_error("walk sessions: " + error);
  }
  const std::uint64_t routed_bytes0 = routed.bytes_in() + routed.bytes_out();

  SpanLog log;
  std::vector<Digest> turnaround_digests, direct_digests, routed_digests;
  std::vector<double> untraced_ms;
  std::uint64_t mask_failed = 0, ops_failed = 0;
  double worst_mask_ratio = 0.0;
  const double deadline = NowS() + args.seconds;
  std::size_t round = 0;
  for (; NowS() < deadline; ++round) {
    SpanLog::Scope round_span(log, "round");
    const std::span<const float> input = pool.Chunk(specs[0].stream, round);
    const Waveform wave(kInputRate,
                        std::vector<float>(input.begin(), input.end()));

    // dsp / nn / channel, one layer at a time on warm scratch.
    {
      SpanLog::Scope s(log, "dsp.stft");
      nec::dsp::Stft(wave, cfg.stft, scratch.stft, scratch.spec);
    }
    {
      SpanLog::Scope s(log, "core.selector");
      nec::core::ArenaScope arena(scratch.arena);
      model.selector->ComputeShadowInto(scratch.spec, pipeline.dvector(),
                                        scratch.shadow_mag);
    }
    {
      SpanLog::Scope s(log, "dsp.istft");
      nec::dsp::IstftWithPhaseInto(scratch.shadow_mag, scratch.spec, cfg.stft,
                                   kInputRate, wave.size(), scratch.stft,
                                   shadow);
    }
    nec::channel::ModulationConfig mod = pipeline.options().modulation;
    if (latch <= 0.0 && shadow.Peak() > 0.0f) latch = shadow.Peak();
    mod.reference_peak = latch;
    {
      SpanLog::Scope s(log, "channel.modulate");
      nec::channel::ModulateAmInto(shadow, mod, plan, modulated);
    }
    {
      SpanLog::Scope s(log, "core.chunk");
      proc.ProcessChunkInto(wave, chunk_out);
    }
    {
      const double t = NowS();
      untraced.ProcessChunkInto(wave, untraced_out);
      untraced_ms.push_back(1000.0 * (NowS() - t));
    }
    acct.walk_ops += 5;
    // The layers composed by hand must be the chunk path, bit for bit.
    if (!(DigestOf(chunk_out.samples().data(), chunk_out.size()) ==
          DigestOf(modulated.samples().data(), modulated.size()))) {
      ++ops_failed;
    }
    // Masking: the shadow only removes energy from the mixed signal.
    double residual = 0;
    for (std::size_t i = 0; i < wave.size(); ++i) {
      const double r = double(wave.samples()[i]) + double(shadow.samples()[i]);
      residual += r * r;
    }
    const double mixed = SumSquares(wave.samples().data(), wave.size());
    const double ratio = mixed > 0 ? residual / mixed : 0.0;
    worst_mask_ratio = std::max(worst_mask_ratio, ratio);
    ++acct.checks_run;
    if (ratio > 1.0 + kMaskTolerance) {
      ++acct.checks_failed;
      ++mask_failed;
    }

    // runtime: capture-sized submits, then the wait for the chunk.
    for (std::size_t off = 0; off < kChunkSamples; off += kPiece) {
      const std::size_t n = std::min(kPiece, kChunkSamples - off);
      SpanLog::Scope s(log, "runtime.submit");
      if (!manager.Submit(turnaround_id, input.subspan(off, n)).ok()) {
        ++ops_failed;
      }
      ++acct.walk_ops;
    }
    {
      SpanLog::Scope s(log, "runtime.turnaround");
      Waveform out;
      while (out.size() < kOutSamples) {
        out.Append(manager.TakeOutput(turnaround_id));
        if (out.size() < kOutSamples) std::this_thread::yield();
      }
      turnaround_digests.push_back(DigestOf(out.samples().data(), kOutSamples));
    }
    ++acct.walk_ops;

    // synth / encoder / runtime: what a shard does per open.
    const SessionSpec opener =
        MakeSession(args.seed, kRoleWalkOpens, round, pool);
    std::vector<Waveform> refs;
    {
      SpanLog::Scope s(log, "synth.references");
      refs = EnrollmentRefs(opener);
    }
    nec::core::NecPipeline enrolling(model.selector, model.encoder, {});
    {
      SpanLog::Scope s(log, "encoder.enroll");
      enrolling.Enroll(refs);
    }
    {
      SpanLog::Scope s(log, "runtime.create_session");
      manager.CreateSession(refs);
    }
    acct.walk_ops += 3;

    // net codec on this chunk's two frames.
    nec::net::Frame submit_frame, shadow_frame;
    submit_frame.type = nec::net::FrameType::kSubmitChunk;
    submit_frame.session_id = 1;
    nec::net::PutFloats(&submit_frame.payload, input);
    shadow_frame.type = nec::net::FrameType::kShadowData;
    shadow_frame.session_id = 1;
    nec::net::PutFloats(&shadow_frame.payload, chunk_out.samples());
    volatile std::uint32_t crc = 0;
    {
      SpanLog::Scope s(log, "net.crc");
      crc = nec::net::Crc32(shadow_frame.payload);
    }
    (void)crc;
    std::string wire;
    {
      SpanLog::Scope s(log, "net.frame_encode");
      nec::net::EncodeFrame(submit_frame, &wire);
      nec::net::EncodeFrame(shadow_frame, &wire);
    }
    nec::net::Frame decoded[2];
    {
      SpanLog::Scope s(log, "net.frame_decode");
      nec::net::FrameDecoder decoder;
      decoder.Feed(reinterpret_cast<const std::uint8_t*>(wire.data()),
                   wire.size());
      for (auto& frame : decoded) {
        if (decoder.Next(&frame) != nec::net::DecodeStatus::kOk) ++ops_failed;
      }
    }
    if (decoded[1].payload != shadow_frame.payload) ++ops_failed;
    acct.walk_ops += 3;

    // net: hello, an open on an idle shard, and one chunk each direct and
    // routed (one at a time, idle fleet).
    {
      nec::net::NetClient hello;
      bool ok = false;
      {
        SpanLog::Scope s(log, "net.hello");
        ok = ConnectAuthed(&hello, fleet.router_port(), kSecret, 10, &error);
      }
      if (!ok) ++ops_failed;
    }
    {
      const std::uint64_t sid = 1000 + round;
      bool ok = false;
      {
        SpanLog::Scope s(log, "net.open");
        ok = direct.OpenSession(sid, opener.speaker_seed, opener.ref_seed,
                                10000, &error);
      }
      if (!ok || !direct.SendCloseSession(sid, &error) ||
          !direct.WaitDone(sid, 10000, &error)) {
        ++ops_failed;
      }
    }
    {
      const std::span<const float> chunk = pool.Chunk(specs[1].stream, round);
      SpanLog::Scope s(log, "net.shard_chunk");
      if (!direct.SubmitChunk(1, chunk, &error) ||
          !WaitSamples(direct, 1, (round + 1) * kOutSamples, &error)) {
        ++ops_failed;
      }
    }
    {
      const std::span<const float> chunk = pool.Chunk(specs[2].stream, round);
      SpanLog::Scope s(log, "net.router_chunk");
      if (!routed.SubmitChunk(1, chunk, &error) ||
          !WaitSamples(routed, 1, (round + 1) * kOutSamples, &error)) {
        ++ops_failed;
      }
    }
    acct.walk_ops += 4;
  }
  const std::uint64_t routed_bytes =
      routed.bytes_in() + routed.bytes_out() - routed_bytes0;

  // Served streams of the walk's three sessions, checked like any other.
  auto digests_of = [](const std::vector<float>& shadow, std::size_t chunks) {
    std::vector<Digest> out;
    for (std::size_t k = 0; k < chunks && (k + 1) * kOutSamples <= shadow.size();
         ++k) {
      out.push_back(DigestOf(shadow.data() + k * kOutSamples, kOutSamples));
    }
    return out;
  };
  direct_digests = digests_of(direct.session(1).shadow, round);
  routed_digests = digests_of(routed.session(1).shadow, round);
  fleet.Stop();
  direct.Close();

  acct.chunks_submitted = 3 * round;
  acct.chunks_acked =
      turnaround_digests.size() + direct_digests.size() + routed_digests.size();
  VerifySessions(model, specs, pool,
                 {turnaround_digests, direct_digests, routed_digests}, nproc,
                 &acct);
  acct.walk_ops_failed = ops_failed;

  const std::string trace = args.out_dir + "/walk-trace.json";
  if (!log.WriteChromeTrace(trace)) {
    std::fprintf(stderr, "servebench: could not write %s\n", trace.c_str());
  }

  auto med = [&](const char* name) { return Median(log.DurationsMs(name)); };
  const double stft = med("dsp.stft"), selector = med("core.selector"),
               istft = med("dsp.istft"), modulate = med("channel.modulate"),
               chunk = med("core.chunk");
  result.metrics = {
      {"dsp.stft_ms", stft, "ms"},
      {"dsp.istft_ms", istft, "ms"},
      {"core.selector_ms", selector, "ms"},
      {"nn.selector_gflops", 2.0 * double(macs) / (selector * 1e6), "GFLOP/s"},
      {"channel.modulate_ms", modulate, "ms"},
      {"core.chunk_ms", chunk, "ms"},
      {"runtime.submit_us", 1000.0 * med("runtime.submit"), "us"},
      {"runtime.chunk_turnaround_ms", med("runtime.turnaround"), "ms"},
      {"synth.references_ms", med("synth.references"), "ms"},
      {"encoder.enroll_ms", med("encoder.enroll"), "ms"},
      {"runtime.create_session_ms", med("runtime.create_session"), "ms"},
      {"net.open_ms", med("net.open"), "ms"},
      {"net.crc_ms", med("net.crc"), "ms"},
      {"net.frame_encode_ms", med("net.frame_encode"), "ms"},
      {"net.frame_decode_ms", med("net.frame_decode"), "ms"},
      {"net.wire_kb_per_chunk",
       round ? double(routed_bytes) / 1000.0 / double(round) : 0.0, "kB"},
      {"net.hello_ms", med("net.hello"), "ms"},
      {"net.shard_chunk_ms", med("net.shard_chunk"), "ms"},
      {"net.router_chunk_ms", med("net.router_chunk"), "ms"},
  };
  result.detail["rounds"] = double(round);
  result.detail["selector_macs"] = double(macs);
  result.detail["layer_sum_over_chunk"] =
      chunk > 0 ? (stft + selector + istft + modulate) / chunk : 0.0;
  result.detail["untraced_chunk_ms"] = Median(untraced_ms);
  result.detail["worst_mask_ratio"] = worst_mask_ratio;
  result.detail["mask_failed"] = double(mask_failed);
  result.detail["fleet_setup_s"] = setup_s;
  result.correct = acct.checks_failed == 0;
  return result;
}

}  // namespace servebench
