#include "svg_writer.h"

#include <fstream>
#include <stdexcept>

#include "common/log.h"

namespace dreamplace {

namespace {

constexpr const char* kPalette[] = {
    "#4878cf", "#d65f5f", "#6acc65", "#b47cc7", "#c4ad66", "#77bedb",
};
constexpr int kPaletteSize = 6;

}  // namespace

void writeSvg(const Database& db, const std::string& path,
              const SvgOptions& options) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("svg: cannot write " + path);
  }
  const Box<Coord>& die = db.dieArea();
  const double scale = options.pixelWidth / die.width();
  const double height = die.height() * scale;
  // SVG y grows downward; flip so the die's y-up convention is preserved.
  auto px = [&](double x) { return (x - die.xl) * scale; };
  auto py = [&](double y) { return height - (y - die.yl) * scale; };

  out << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\""
      << options.pixelWidth << "\" height=\"" << height << "\" viewBox=\"0 0 "
      << options.pixelWidth << ' ' << height << "\">\n";
  out << "<rect x=\"0\" y=\"0\" width=\"" << options.pixelWidth
      << "\" height=\"" << height
      << "\" fill=\"#fafafa\" stroke=\"#333\" stroke-width=\"1\"/>\n";

  if (options.drawRows) {
    for (const Row& row : db.rows()) {
      out << "<line x1=\"" << px(row.xl) << "\" y1=\"" << py(row.y)
          << "\" x2=\"" << px(row.xh) << "\" y2=\"" << py(row.y)
          << "\" stroke=\"#e0e0e0\" stroke-width=\"0.5\"/>\n";
    }
  }

  // Fixed cells first (background obstacles).
  for (Index i = db.numMovable(); i < db.numCells(); ++i) {
    const Box<Coord> box = db.cellBox(i);
    out << "<rect x=\"" << px(box.xl) << "\" y=\"" << py(box.yh)
        << "\" width=\"" << box.width() * scale << "\" height=\""
        << box.height() * scale
        << "\" fill=\"#777\" fill-opacity=\"0.8\"/>\n";
  }
  for (Index i = 0; i < db.numMovable(); ++i) {
    const Box<Coord> box = db.cellBox(i);
    const char* color = kPalette[0];
    if (!options.cellClass.empty() &&
        i < static_cast<Index>(options.cellClass.size())) {
      color = kPalette[((options.cellClass[i] % kPaletteSize) +
                        kPaletteSize) %
                       kPaletteSize];
    }
    out << "<rect x=\"" << px(box.xl) << "\" y=\"" << py(box.yh)
        << "\" width=\"" << box.width() * scale << "\" height=\""
        << box.height() * scale << "\" fill=\"" << color
        << "\" fill-opacity=\"0.6\" stroke=\"#123\" stroke-width=\"0.2\"/>\n";
  }
  out << "</svg>\n";
  logInfo("svg: wrote %s", path.c_str());
}

}  // namespace dreamplace
