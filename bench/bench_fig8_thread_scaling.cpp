// Fig. 8 reproduction: average GP runtime ratio vs number of CPU threads,
// normalized to the fast-kernel float64 configuration.
//
// Thread counts beyond the host's hardware cores measure scheduling
// overhead, not speedup, so the paper's saturation-at-~20-threads shape
// appears only on a host with that many cores (EXPERIMENTS.md).
#include "bench_util.h"
#include "common/parallel.h"
#include "gen/netlist_generator.h"

int main(int argc, char** argv) {
  using namespace dreamplace;
  using namespace dreamplace::bench;
  // Sweeps the thread count itself, so a --threads flag only sets the
  // reference run's pool size.
  TelemetrySession session(argc, argv);

  const double scale = benchScale(0.005);
  const auto suite = ispd2005Suite(scale);
  std::printf("Fig. 8: GP runtime ratio vs thread count "
              "(scale %.3f, %d hardware threads)\n\n",
              scale, static_cast<int>(std::thread::hardware_concurrency()));

  // Reference: fast kernels, float64, default threads.
  double reference = 0;
  for (const SuiteEntry& entry : suite) {
    auto db = generateNetlist(entry.config);
    GlobalPlacerOptions gp = dreamplaceFastGp();
    session.attach(gp, entry.name);
    GlobalPlacer<double> placer(*db, gp);
    Timer timer;
    placer.run();
    reference += timer.elapsed();
  }
  std::printf("reference (fast kernels, float64, default threads): %.2fs "
              "total\n\n", reference);

  struct Config {
    const char* name;
    GlobalPlacerOptions gp;
  };
  const Config configs[] = {
      {"replace-mode", replaceModeGp()},
      {"dreamplace", dreamplaceCpuGp()},
  };

  std::printf("%-14s", "threads");
  for (const auto& config : configs) {
    std::printf(" %14s", config.name);
  }
  std::printf("   (ratio vs reference)\n");

  const int max_threads = std::max(
      4, static_cast<int>(std::thread::hardware_concurrency()));
  for (int threads = 1; threads <= max_threads; threads *= 2) {
    ThreadPool::instance().setThreads(threads);
    std::printf("%-14d", threads);
    for (const auto& config : configs) {
      double total = 0;
      for (const SuiteEntry& entry : suite) {
        auto db = generateNetlist(entry.config);
        GlobalPlacerOptions gp = config.gp;
        session.attach(gp, entry.name);
        GlobalPlacer<double> placer(*db, gp);
        Timer timer;
        placer.run();
        total += timer.elapsed();
      }
      std::printf(" %14.2f", total / reference);
    }
    std::printf("\n");
  }
  ThreadPool::instance().setThreads(0);
  return 0;
}
