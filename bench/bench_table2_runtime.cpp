// Table II reproduction — running-time analysis.
//
// Times the three NEC modules on a 1 s mixed-audio chunk (the paper's unit
// of work): Encoder (d-vector), Selector (STFT + DNN + inverse STFT) and
// Broadcast (ultrasonic modulation), for both NEC's selector and the
// VoiceFilter baseline. Paper (PC, 1080Ti): encoder 0.467 ms, NEC selector
// 1.51 ms vs VoiceFilter 3.65 ms (2.4x), broadcast 11.96 ms; on a
// Raspberry Pi 4, 293.7 ms vs 446.2 ms (1.5x). We run on one CPU core, so
// absolute numbers sit between those two platforms; the NEC-vs-VoiceFilter
// *ratio* is the reproduced quantity. The Pi row is estimated with a fixed
// CPU scale factor (documented in EXPERIMENTS.md).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "baselines/voicefilter.h"
#include "bench_json.h"
#include "bench_support.h"
#include "channel/modulation.h"
#include "dsp/stft.h"

namespace {

using namespace nec;

struct Workload {
  core::NecConfig config = core::NecConfig::Fast();
  audio::Waveform chunk;          // 1 s mixed audio
  nn::Tensor spec_tensor;         // normalized (T, F)
  std::vector<float> dvector;
  std::unique_ptr<core::Selector> selector;
  std::unique_ptr<baseline::VoiceFilterSelector> voicefilter;
  std::unique_ptr<encoder::LasEncoder> encoder;

  static Workload& Get() {
    static Workload w = [] {
      Workload w;
      synth::DatasetBuilder builder({.duration_s = 1.0});
      const auto spks = synth::DatasetBuilder::MakeSpeakers(2, 222);
      const auto inst = builder.MakeInstance(
          spks[0], synth::Scenario::kJointConversation, 3, &spks[1]);
      w.chunk = inst.mixed;
      const dsp::Spectrogram spec = dsp::Stft(w.chunk, w.config.stft);
      w.spec_tensor = nn::Tensor({spec.num_frames(), spec.num_bins()});
      for (std::size_t i = 0; i < w.spec_tensor.numel(); ++i) {
        w.spec_tensor[i] = spec.mag()[i];
      }
      w.encoder = std::make_unique<encoder::LasEncoder>(
          w.config.embedding_dim);
      w.dvector = w.encoder->Embed(w.chunk);
      w.selector = std::make_unique<core::Selector>(w.config, 1);
      w.voicefilter =
          std::make_unique<baseline::VoiceFilterSelector>(w.config, 2);
      return w;
    }();
    return w;
  }
};

void BM_Encoder(benchmark::State& state) {
  Workload& w = Workload::Get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.encoder->Embed(w.chunk));
  }
}
BENCHMARK(BM_Encoder)->Unit(benchmark::kMillisecond);

void BM_SelectorNec(benchmark::State& state) {
  Workload& w = Workload::Get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        w.selector->Forward(w.spec_tensor, w.dvector, false));
  }
}
BENCHMARK(BM_SelectorNec)->Unit(benchmark::kMillisecond);

void BM_SelectorVoiceFilter(benchmark::State& state) {
  Workload& w = Workload::Get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.voicefilter->Forward(w.spec_tensor, w.dvector));
  }
}
BENCHMARK(BM_SelectorVoiceFilter)->Unit(benchmark::kMillisecond);

void BM_Broadcast(benchmark::State& state) {
  Workload& w = Workload::Get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(channel::ModulateAm(w.chunk, {}));
  }
}
BENCHMARK(BM_Broadcast)->Unit(benchmark::kMillisecond);

double TimeMs(const std::function<void()>& fn, int reps) {
  fn();  // warm-up
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
             .count() /
         reps;
}

void PrintSummary() {
  Workload& w = Workload::Get();
  // Smoke mode halves the reps; the numbers still land in the JSON but
  // are flagged so nobody diffs them against a real baseline.
  const int reps = nec::bench::BenchSmokeMode() ? 2 : 5;
  const double enc = TimeMs([&] { w.encoder->Embed(w.chunk); }, reps);
  const double nec =
      TimeMs([&] { w.selector->Forward(w.spec_tensor, w.dvector, false); },
             reps);
  const double vf =
      TimeMs([&] { w.voicefilter->Forward(w.spec_tensor, w.dvector); },
             reps);
  const double bc = TimeMs([&] { channel::ModulateAm(w.chunk, {}); }, reps);

  const unsigned cores = std::thread::hardware_concurrency();

  // Single-core laptop → Raspberry Pi 4 scale factor (~6x for NEON-less
  // float workloads; see EXPERIMENTS.md).
  const double kPiScale = 6.0;

  bench::PrintHeader("Table II — time per 1 s audio chunk (ms)");
  std::printf("%-22s %10s %10s %10s\n", "platform/system", "Encoder",
              "Selector", "Broadcast");
  bench::PrintRule();
  std::printf("%-22s %10.2f %10.2f %10.2f\n", "this CPU / NEC", enc, nec,
              bc);
  std::printf("%-22s %10.2f %10.2f %10.2f\n", "this CPU / VoiceFilter",
              enc, vf, bc);
  std::printf("%-22s %10.2f %10.2f %10.2f   (x%.0f estimate)\n",
              "Pi-4 est. / NEC", enc * kPiScale, nec * kPiScale,
              bc * kPiScale, kPiScale);
  std::printf("%-22s %10.2f %10.2f %10.2f\n", "Pi-4 est. / VoiceFilter",
              enc * kPiScale, vf * kPiScale, bc * kPiScale);
  bench::PrintRule();
  std::printf("%-22s %10.3f %10.2f %10.2f\n", "paper PC / NEC", 0.467,
              1.51, 11.96);
  std::printf("%-22s %10.3f %10.2f %10.2f\n", "paper PC / VoiceFilter",
              0.467, 3.65, 11.96);
  std::printf("%-22s %10.1f %10.1f %10.2f\n", "paper Pi4 / NEC", 12.7,
              293.7, 11.96);
  std::printf("%-22s %10.1f %10.1f %10.2f\n", "paper Pi4 / VoiceFilter",
              12.7, 446.2, 11.96);
  bench::PrintRule();
  std::printf("VoiceFilter / NEC selector ratio: measured %.2fx "
              "(paper: 2.42x PC, 1.52x Pi)\n", vf / nec);
  const double total = enc + nec + bc;
  std::printf("NEC end-to-end latency: %.1f ms per 1 s chunk — %s the "
              "300 ms overshadowing tolerance (deployable per §IV-C2)\n",
              total, total < 300.0 ? "within" : "EXCEEDS");

  nec::bench::JsonWriter json;
  json.Field("encoder_ms", enc)
      .Field("selector_nec_ms", nec)
      .Field("selector_voicefilter_ms", vf)
      .Field("broadcast_ms", bc)
      .Field("total_ms", total)
      .Field("voicefilter_over_nec", nec > 0.0 ? vf / nec : 0.0)
      .Field("within_deadline", total < 300.0)
      .Field("hardware_concurrency", static_cast<double>(cores))
      .Field("smoke", nec::bench::BenchSmokeMode());
  const std::string path = nec::bench::BenchJsonPath();
  nec::bench::WriteJsonSection(path, "table2_modules", json.Finish());
  std::printf("wrote section table2_modules -> %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  PrintSummary();
  return 0;
}
