// Fig. 11 reproduction: 2-D DCT/IDCT implementations, float32.
//
// Paper shape (512^2..4096^2 maps; scaled here to 128^2..1024^2):
// relative to the 2N-point-FFT row-column baseline, the N-point
// formulation (Alg. 3) is ~2.1x faster for DCT / ~1.3x for IDCT, and the
// single-pass 2-D N-point formulation (Alg. 4) ~5.0x / ~4.1x faster.
#include <benchmark/benchmark.h>

#include <chrono>
#include <map>

#include "bench_util.h"
#include "common/rng.h"
#include "fft/dct2d.h"

namespace {

using namespace dreamplace;
using fft::Dct2dAlgorithm;

std::vector<float>& mapOfSize(int m) {
  static std::map<int, std::vector<float>> cache;
  auto& map = cache[m];
  if (map.empty()) {
    Rng rng(m);
    map.resize(static_cast<size_t>(m) * m);
    for (float& v : map) {
      v = static_cast<float>(rng.uniform(0, 1));
    }
  }
  return map;
}

void dct2dBench(benchmark::State& state, Dct2dAlgorithm algo, bool inverse) {
  const int m = static_cast<int>(state.range(0));
  auto& in = mapOfSize(m);
  std::vector<float> out(in.size());
  fft::Dct2dPlan<float> plan(m, m, algo);
  for (auto _ : state) {
    if (inverse) {
      plan.idct2d(in.data(), out.data());
    } else {
      plan.dct2d(in.data(), out.data());
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetComplexityN(m);
}

void registerAll() {
  struct Variant {
    const char* name;
    Dct2dAlgorithm algo;
  };
  const Variant variants[] = {
      {"2N", Dct2dAlgorithm::kRowCol2N},
      {"N", Dct2dAlgorithm::kRowColN},
      {"2D-N", Dct2dAlgorithm::kFft2dN},
  };
  for (const auto& v : variants) {
    for (bool inverse : {false, true}) {
      auto* bench = benchmark::RegisterBenchmark(
          (std::string(inverse ? "IDCT-" : "DCT-") + v.name).c_str(),
          [algo = v.algo, inverse](benchmark::State& s) {
            dct2dBench(s, algo, inverse);
          });
      bench->Arg(128)->Arg(256)->Arg(512)->Arg(1024)->Unit(
          benchmark::kMillisecond);
    }
  }
}

// Self-timed sweep for the machine-readable export: google-benchmark's
// JSON reporter would redirect the console tables, so the file keeps its
// own (smaller) measurement pass — one plan per (algorithm, size), built
// outside the timed calls, then best of `kIters` after one warm-up call.
void writeJsonReport(const std::string& path) {
  struct Variant {
    const char* name;
    Dct2dAlgorithm algo;
  };
  const Variant variants[] = {
      {"2N", Dct2dAlgorithm::kRowCol2N},
      {"N", Dct2dAlgorithm::kRowColN},
      {"2D-N", Dct2dAlgorithm::kFft2dN},
  };
  constexpr int kIters = 3;
  bench::BenchJsonWriter writer("fig11_dct");
  for (const auto& v : variants) {
    for (int m : {128, 256, 512}) {
      auto& in = mapOfSize(m);
      std::vector<float> out(in.size());
      fft::Dct2dPlan<float> plan(m, m, v.algo);
      for (bool inverse : {false, true}) {
        const auto run = [&] {
          if (inverse) {
            plan.idct2d(in.data(), out.data());
          } else {
            plan.dct2d(in.data(), out.data());
          }
          benchmark::DoNotOptimize(out.data());
        };
        run();  // warm-up: first touch of the plan's workspace
        double best_ms = 0;
        for (int i = 0; i < kIters; ++i) {
          const auto t0 = std::chrono::steady_clock::now();
          run();
          const double ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
          if (i == 0 || ms < best_ms) {
            best_ms = ms;
          }
        }
        writer.addResult(std::string(inverse ? "IDCT-" : "DCT-") + v.name,
                         m, best_ms);
      }
    }
  }
  writer.addCounterPrefix("fft/");
  if (writer.write(path)) {
    std::printf("bench json written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "bench json: cannot write %s\n", path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      bench::benchJsonPath(argc, argv, "BENCH_fig11_dct.json");
  bench::applyBenchThreads(argc, argv);
  registerAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  if (!json_path.empty()) {
    writeJsonReport(json_path);
  }
  return 0;
}
