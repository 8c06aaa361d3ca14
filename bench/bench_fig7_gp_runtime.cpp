// Fig. 7 reproduction: GP runtime per design for every implementation and
// precision combination across the ISPD2005-like and industrial-like
// suites.
//
// Paper shape: per design, RePlAce-mode slowest, DREAMPlace CPU faster,
// the fast-kernel config fastest; float32 beats float64 by ~1.3-1.4x in
// each config; runtime grows roughly linearly with design size.
#include "bench_util.h"
#include "gen/netlist_generator.h"

int main(int argc, char** argv) {
  using namespace dreamplace;
  using namespace dreamplace::bench;

  // Optional observability exports (--trace=, --telemetry-jsonl=, ...).
  TelemetrySession telemetry(argc, argv);
  const std::string json_path = benchJsonPath(argc, argv, "BENCH_fig7.json");
  BenchJsonWriter writer("fig7_gp_runtime");

  // GP-only sweep over many configs: use a smaller default scale so the
  // 48-run matrix stays tractable.
  const double scale = benchScale(0.005);
  std::printf("Fig. 7: GP runtime (seconds) per design, config, precision "
              "(scale %.3f)\n\n", scale);

  struct Config {
    const char* name;
    GlobalPlacerOptions gp;
  };
  const Config configs[] = {
      {"replace", replaceModeGp()},
      {"dp-cpu", dreamplaceCpuGp()},
      {"dp-fast", dreamplaceFastGp()},
  };

  auto suite = ispd2005Suite(scale);
  {
    auto industrial = industrialSuite(scale);
    // design6 at fig-7 scale is still the largest run; keep it last.
    suite.insert(suite.end(), industrial.begin(), industrial.end());
  }

  std::printf("%-10s %8s |", "design", "#cells");
  for (const auto& config : configs) {
    std::printf(" %9s-f64 %9s-f32 |", config.name, config.name);
  }
  std::printf("\n");

  double sum_ratio_f32 = 0;
  int n_ratio = 0;
  for (const SuiteEntry& entry : suite) {
    std::printf("%-10s %8d |", entry.name.c_str(), entry.config.numCells);
    double fast64 = 0;
    for (const auto& config : configs) {
      double seconds[2] = {0, 0};
      int p = 0;
      for (Precision precision :
           {Precision::kFloat64, Precision::kFloat32}) {
        auto db = generateNetlist(entry.config);
        GlobalPlacerOptions gp = config.gp;
        telemetry.attach(
            gp, entry.name + "/" + config.name +
                    (precision == Precision::kFloat32 ? "/f32" : "/f64"));
        if (precision == Precision::kFloat32) {
          GlobalPlacer<float> placer(*db, gp);
          Timer timer;
          placer.run();
          seconds[p] = timer.elapsed();
        } else {
          GlobalPlacer<double> placer(*db, gp);
          Timer timer;
          placer.run();
          seconds[p] = timer.elapsed();
        }
        writer.addResult(
            entry.name + "/" + config.name +
                (precision == Precision::kFloat32 ? "/f32" : "/f64"),
            entry.config.numCells, seconds[p] * 1000.0);
        ++p;
      }
      std::printf(" %13.2f %13.2f |", seconds[0], seconds[1]);
      if (std::string(config.name) == "dp-fast") {
        fast64 = seconds[0];
        if (seconds[1] > 0) {
          sum_ratio_f32 += seconds[0] / seconds[1];
          ++n_ratio;
        }
      }
    }
    (void)fast64;
    std::printf("\n");
  }
  if (n_ratio > 0) {
    std::printf("\naverage float64/float32 speedup (fast config): %.2fx "
                "(paper: ~1.3-1.4x)\n",
                sum_ratio_f32 / n_ratio);
  }
  if (!json_path.empty()) {
    writer.addCounterPrefix("ops/");
    writer.addCounterPrefix("optimizer/");
    if (writer.write(json_path)) {
      std::printf("bench json written to %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "bench json: cannot write %s\n",
                   json_path.c_str());
    }
  }
  return 0;
}
