#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "gen/netlist_generator.h"
#include "svg_writer.h"

namespace dreamplace {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(SvgTest, WritesWellFormedDocument) {
  GeneratorConfig cfg;
  cfg.numCells = 60;
  cfg.numPads = 8;
  cfg.seed = 23;
  auto db = generateNetlist(cfg);
  const fs::path path = fs::temp_directory_path() / "dp_plot.svg";
  writeSvg(*db, path.string());
  const std::string svg = slurp(path);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // One rect per cell plus die background.
  size_t rects = 0;
  for (size_t pos = 0; (pos = svg.find("<rect", pos)) != std::string::npos;
       ++pos) {
    ++rects;
  }
  EXPECT_EQ(rects, static_cast<size_t>(db->numCells()) + 1);
  fs::remove(path);
}

TEST(SvgTest, CellClassesColorCells) {
  GeneratorConfig cfg;
  cfg.numCells = 30;
  cfg.seed = 29;
  auto db = generateNetlist(cfg);
  SvgOptions options;
  options.cellClass.assign(db->numMovable(), 0);
  for (Index i = 0; i < db->numMovable(); i += 2) {
    options.cellClass[i] = 1;
  }
  const fs::path path = fs::temp_directory_path() / "dp_plot_classes.svg";
  writeSvg(*db, path.string(), options);
  const std::string svg = slurp(path);
  // Both palette entries appear.
  EXPECT_NE(svg.find("#4878cf"), std::string::npos);
  EXPECT_NE(svg.find("#d65f5f"), std::string::npos);
  fs::remove(path);
}

TEST(SvgTest, UnwritablePathThrows) {
  GeneratorConfig cfg;
  cfg.numCells = 10;
  cfg.seed = 31;
  auto db = generateNetlist(cfg);
  EXPECT_THROW(writeSvg(*db, "/nonexistent_dir/plot.svg"),
               std::runtime_error);
}

}  // namespace
}  // namespace dreamplace
