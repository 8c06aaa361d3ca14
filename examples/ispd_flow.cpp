// ISPD-style benchmark flow: materialize a contest-suite design to
// Bookshelf files on disk, read it back (exactly how a real contest
// benchmark would enter the flow), place it, and write the .pl result.
//
//   ./ispd_flow [design_name] [scale] [out_dir]
//
// design_name is any entry of the ISPD2005/industrial/DAC2012 presets
// (default adaptec1); scale scales the paper's cell counts (default 0.01).
// To run a real benchmark instead, point `aux` at its .aux file.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "common/parse.h"
#include "db/metrics.h"
#include "gen/netlist_generator.h"
#include "gen/suites.h"
#include "io/bookshelf_reader.h"
#include "io/bookshelf_writer.h"
#include "place/placer.h"

namespace {

int run(int argc, char** argv) {
  using namespace dreamplace;
  namespace fs = std::filesystem;

  const std::string design = argc > 1 ? argv[1] : "adaptec1";
  const double scale = argc > 2 ? parseNumber<double>(argv[2], "scale") : 0.01;
  const std::string out_dir =
      argc > 3 ? argv[3] : (fs::temp_directory_path() / "ispd_flow").string();

  // 1. Generate the suite entry and persist it as Bookshelf files.
  const SuiteEntry entry = findSuiteEntry(design, scale);
  auto generated = generateNetlist(entry.config);
  writeBookshelf(*generated, out_dir, design);
  generated.reset();

  // 2. Load from disk — the same path a real contest benchmark takes.
  const std::string aux = out_dir + "/" + design + ".aux";
  auto db = readBookshelf(aux);
  std::printf("loaded %s: %d cells (%d movable), %d nets\n", design.c_str(),
              db->numCells(), db->numMovable(), db->numNets());

  // 3. Place.
  PlacerOptions options;
  const FlowResult result = placeDesign(*db, options);

  // 4. Write the placement result next to the benchmark.
  writePlacement(*db, out_dir + "/" + design + ".result.pl");

  std::printf("\n%-10s HPWL %.4e  GP %.1fs  LG %.1fs  DP %.1fs  legal=%d\n",
              design.c_str(), result.hpwl, result.gpSeconds,
              result.lgSeconds, result.dpSeconds, result.legal ? 1 : 0);
  std::printf("placement written to %s/%s.result.pl\n", out_dir.c_str(),
              design.c_str());
  return result.legal ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
