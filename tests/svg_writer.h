// SVG plot of a placement: die outline, rows, fixed cells (macros/pads)
// and movable cells. Handy for eyeballing GP spreading, legalization, and
// fence-region behaviour without a GUI. Nothing in the placer calls it,
// so it builds with the tests (tests/svg_test.cpp).
#pragma once

#include <string>
#include <vector>

#include "db/database.h"

namespace dreamplace {

struct SvgOptions {
  double pixelWidth = 1000;  ///< Output width; height keeps aspect ratio.
  bool drawRows = true;
  /// Optional per-movable-cell class index (e.g. fence group); cells get
  /// one of a small palette of fill colors by class. Empty => one color.
  std::vector<int> cellClass;
};

/// Writes the placement as an SVG file. Throws std::runtime_error when
/// the file cannot be created.
void writeSvg(const Database& db, const std::string& path,
              const SvgOptions& options = {});

}  // namespace dreamplace
