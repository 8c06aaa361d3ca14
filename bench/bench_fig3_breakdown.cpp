// Fig. 3 reproduction: RePlAce runtime breakdown on bigblue4.
//
// Paper shape: GP (initial placement + nonlinear optimization) takes
// ~90% of the total runtime, with GP-IP alone ~21-30%; LG and DP take the
// small remainder (DP here is our own, not NTUplace3). The RePlAce-mode
// config uses the iterative spread initial placement, which is the GP-IP
// phase being measured.
#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "db/metrics.h"
#include "dp/detailed_placer.h"
#include "gen/netlist_generator.h"
#include "io/bookshelf_writer.h"
#include "lg/abacus_legalizer.h"

#include <filesystem>

int main(int argc, char** argv) {
  using namespace dreamplace;
  using namespace dreamplace::bench;

  const BenchFlags flags = parseBenchFlags(argc, argv);
  TelemetrySession session(flags);

  const double scale = benchScale(0.01);
  const SuiteEntry entry = findSuiteEntry("bigblue4", scale);
  std::printf("Fig. 3: RePlAce-mode runtime breakdown on %s "
              "(%d cells, scale %.3f)\n\n",
              entry.name.c_str(), entry.config.numCells, scale);

  auto db = generateNetlist(entry.config);

  PlacerOptions options = flags.flowOptions();
  options.gp = replaceModeGp();
  session.attach(options, entry.name);
  Timer total_timer;
  RunReport report;
  const FlowResult result = placeWithReport(*db, options, report);

  // IO phase: benchmark write + read, as the tables' IO column does.
  Timer io_timer;
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "dp_fig3_io";
  writeBookshelf(*db, dir.string(), "bigblue4");
  const double io = io_timer.elapsed();
  fs::remove_all(dir);

  const double gp_ip = timingTotal(report, "gp/init");
  const double gp_total = result.gpSeconds;
  const double gp_nl = gp_total - gp_ip;
  const double grand = total_timer.elapsed();

  auto pct = [&](double v) { return 100.0 * v / grand; };
  std::printf("%-22s %10s %8s\n", "phase", "seconds", "share");
  std::printf("%-22s %10.2f %7.1f%%\n", "GP-IP (initial place)", gp_ip,
              pct(gp_ip));
  std::printf("%-22s %10.2f %7.1f%%\n", "GP-Nonlinear", gp_nl, pct(gp_nl));
  std::printf("%-22s %10.2f %7.1f%%\n", "Legalization", result.lgSeconds,
              pct(result.lgSeconds));
  std::printf("%-22s %10.2f %7.1f%%\n", "Detailed placement",
              result.dpSeconds, pct(result.dpSeconds));
  std::printf("%-22s %10.2f %7.1f%%\n", "IO", io, pct(io));
  std::printf("\npaper shape check: GP total share = %.1f%% "
              "(paper: ~90%%), GP-IP share of GP = %.1f%% "
              "(paper: 25-30%%)\n",
              pct(gp_total), 100.0 * gp_ip / gp_total);

  // Back-end thread scaling on the same workload: LG+DP timed at 1 and 4
  // threads over identical jittered starts (rebuilt per run). LG and DP
  // are serial, so both runs perform the same moves and the ratio should
  // stay near 1.
  auto backendRun = [&](int threads, double& out_hpwl) {
    auto bdb = generateNetlist(entry.config);
    Rng rng(2026);
    const Coord h = bdb->rowHeight();
    for (Index i = 0; i < bdb->numMovable(); ++i) {
      bdb->setCellPosition(i, bdb->cellX(i) + rng.uniform(-5 * h, 5 * h),
                           bdb->cellY(i) + rng.uniform(-5 * h, 5 * h));
    }
    ThreadPool::instance().setThreads(threads);
    Timer t;
    AbacusLegalizer().run(*bdb);
    DetailedPlacer().run(*bdb);
    const double seconds = t.elapsed();
    out_hpwl = hpwl(*bdb);
    return seconds;
  };
  double hpwl_t1 = 0.0, hpwl_t4 = 0.0;
  const double lg_dp_t1 = backendRun(1, hpwl_t1);
  const double lg_dp_t4 = backendRun(4, hpwl_t4);
  ThreadPool::instance().setThreads(flags.threads > 0 ? flags.threads : 0);
  std::printf("\nback-end scaling (LG+DP, jittered start): 1 thread %.3fs, "
              "4 threads %.3fs (%.2fx)%s\n",
              lg_dp_t1, lg_dp_t4,
              lg_dp_t4 > 0 ? lg_dp_t1 / lg_dp_t4 : 0.0,
              hpwl_t1 == hpwl_t4 ? "" : "  [HPWL MISMATCH]");

  const std::string json_path = benchJsonPath(argc, argv, "BENCH_fig3.json");
  if (!json_path.empty()) {
    BenchJsonWriter writer("fig3_breakdown");
    const auto n = static_cast<std::int64_t>(entry.config.numCells);
    writer.addResult("gp_ip", n, gp_ip * 1000);
    writer.addResult("gp_nl", n, gp_nl * 1000);
    writer.addResult("gp", n, gp_total * 1000);
    writer.addResult("lg", n, result.lgSeconds * 1000);
    writer.addResult("dp", n, result.dpSeconds * 1000);
    writer.addResult("io", n, io * 1000);
    writer.addResult("total", n, grand * 1000);
    writer.addResult("lg_dp_t1", n, lg_dp_t1 * 1000);
    writer.addResult("lg_dp_t4", n, lg_dp_t4 * 1000);
    for (const auto& [key, value] : report.counters) {
      if (key.compare(0, 3, "lg/") == 0 || key.compare(0, 3, "dp/") == 0) {
        writer.addCounter(key, value);
      }
    }
    if (writer.write(json_path)) {
      std::printf("bench json written to %s\n", json_path.c_str());
    } else {
      std::printf("bench json: cannot write %s\n", json_path.c_str());
    }
  }
  return 0;
}
