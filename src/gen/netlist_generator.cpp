#include "gen/netlist_generator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/log.h"
#include "common/rng.h"

namespace dreamplace {

namespace {

/// Net degree distribution modeled on ISPD 2005 statistics: ~90% of nets
/// have degree <= 4, with a thin high-fanout tail (clock/reset-like nets).
Index sampleNetDegree(Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.55) return 2;
  if (u < 0.74) return 3;
  if (u < 0.84) return 4;
  if (u < 0.90) return 5;
  if (u < 0.94) return 6;
  if (u < 0.97) return 7 + static_cast<Index>(rng.uniformInt(4));   // 7-10
  if (u < 0.995) return 11 + static_cast<Index>(rng.uniformInt(10)); // 11-20
  return 24 + static_cast<Index>(rng.uniformInt(41));                // 24-64
}

/// Standard-cell width in sites: mostly small cells, occasionally wide ones
/// (multi-bit registers, large drivers).
Coord sampleCellWidth(Rng& rng, Coord siteWidth) {
  const double u = rng.uniform();
  Index sites = 0;
  if (u < 0.45) {
    sites = 3 + static_cast<Index>(rng.uniformInt(3));    // 3-5
  } else if (u < 0.80) {
    sites = 6 + static_cast<Index>(rng.uniformInt(5));    // 6-10
  } else if (u < 0.97) {
    sites = 11 + static_cast<Index>(rng.uniformInt(10));  // 11-20
  } else {
    sites = 21 + static_cast<Index>(rng.uniformInt(30));  // 21-50
  }
  return sites * siteWidth;
}

}  // namespace

std::unique_ptr<Database> generateNetlist(const GeneratorConfig& config) {
  if (config.numCells < 2) {
    throw std::invalid_argument("generateNetlist: numCells must be >= 2 (got " +
                                std::to_string(config.numCells) + ")");
  }
  Rng rng(config.seed, /*stream=*/0x9e3779b97f4a7c15ULL);
  auto db = std::make_unique<Database>();
  db->setName(config.designName);

  // --- Movable cells ------------------------------------------------------
  const Index n = config.numCells;
  Coord movable_area = 0;
  for (Index i = 0; i < n; ++i) {
    const Coord w = sampleCellWidth(rng, config.siteWidth);
    db->addCell("o" + std::to_string(i), w, config.rowHeight,
                /*movable=*/true);
    movable_area += w * config.rowHeight;
  }
  // Movable macros (mixed-size placement): 2-6 rows tall, width in whole
  // sites. They participate in GP like any cell and are legalized by the
  // MacroLegalizer before standard-cell legalization.
  std::vector<Index> movable_macro_ids;
  for (Index m = 0; m < config.numMovableMacros; ++m) {
    const Coord h = (2 + static_cast<Index>(rng.uniformInt(5))) *
                    config.rowHeight;
    const Coord w = std::floor(rng.uniform(2.0, 6.0) * h /
                               config.siteWidth) * config.siteWidth /
                    (h / config.rowHeight);
    const Coord width = std::max<Coord>(
        8 * config.siteWidth,
        std::floor(w / config.siteWidth) * config.siteWidth);
    const Index id = db->addCell("mm" + std::to_string(m), width, h,
                                 /*movable=*/true);
    movable_macro_ids.push_back(id);
    movable_area += width * h;
  }

  // --- Die sizing ----------------------------------------------------------
  // Core area so that movable cells reach the target utilization of the
  // whitespace left after macros.
  const double macro_frac = config.numMacros > 0 ? config.macroAreaFraction : 0.0;
  const double core_area =
      movable_area / (config.utilization * (1.0 - macro_frac));
  // Square-ish die, snapped to whole rows and sites.
  const auto num_rows = static_cast<Index>(
      std::ceil(std::sqrt(core_area) / config.rowHeight));
  const Coord die_height = num_rows * config.rowHeight;
  const auto num_sites =
      static_cast<Index>(std::ceil(core_area / die_height / config.siteWidth));
  const Coord die_width = num_sites * config.siteWidth;
  db->setDieArea({0, 0, die_width, die_height});
  for (Index r = 0; r < num_rows; ++r) {
    Row row;
    row.y = r * config.rowHeight;
    row.height = config.rowHeight;
    row.xl = 0;
    row.xh = die_width;
    row.siteWidth = config.siteWidth;
    db->addRow(row);
  }

  // --- Fixed macros ---------------------------------------------------------
  // Random non-overlapping square-ish blocks snapped to rows/sites; placed
  // greedily with rejection. Their area is excluded from whitespace.
  std::vector<Box<Coord>> macro_boxes;
  std::vector<Index> macro_ids;
  if (config.numMacros > 0) {
    const double each_area = core_area * macro_frac / config.numMacros;
    for (Index m = 0; m < config.numMacros; ++m) {
      const double aspect = rng.uniform(0.6, 1.6);
      Coord h = std::sqrt(each_area * aspect);
      h = std::max<Coord>(config.rowHeight * 2,
                          std::round(h / config.rowHeight) * config.rowHeight);
      Coord w = std::max<Coord>(
          config.siteWidth * 4,
          std::round(each_area / h / config.siteWidth) * config.siteWidth);
      bool placed = false;
      for (int attempt = 0; attempt < 200 && !placed; ++attempt) {
        const Coord x = std::floor(rng.uniform(0, die_width - w) /
                                   config.siteWidth) * config.siteWidth;
        const Coord y = std::floor(rng.uniform(0, die_height - h) /
                                   config.rowHeight) * config.rowHeight;
        const Box<Coord> box{x, y, x + w, y + h};
        bool overlap = false;
        for (const auto& other : macro_boxes) {
          // Keep a one-row halo between macros so cells can flow between.
          Box<Coord> inflated{other.xl - 4 * config.siteWidth,
                              other.yl - config.rowHeight,
                              other.xh + 4 * config.siteWidth,
                              other.yh + config.rowHeight};
          if (inflated.overlaps(box)) {
            overlap = true;
            break;
          }
        }
        if (!overlap) {
          const Index id = db->addCell("m" + std::to_string(m), w, h,
                                       /*movable=*/false);
          db->setCellPosition(id, x, y);
          macro_boxes.push_back(box);
          macro_ids.push_back(id);
          placed = true;
        }
      }
      if (!placed) {
        logWarn("generator: could not place macro %d; skipping", m);
      }
    }
  }

  // --- IO pads ---------------------------------------------------------------
  // Fixed unit-size pads evenly distributed around the periphery, alternating
  // over the four edges.
  std::vector<Index> pad_ids;
  for (Index p = 0; p < config.numPads; ++p) {
    const Index id = db->addCell("p" + std::to_string(p), config.siteWidth,
                                 config.rowHeight, /*movable=*/false);
    const double t = (p / 4 + 0.5) / std::max<Index>(1, config.numPads / 4);
    Coord x = 0;
    Coord y = 0;
    switch (p % 4) {
      case 0:  // bottom edge
        x = t * (die_width - config.siteWidth);
        y = 0;
        break;
      case 1:  // top edge
        x = t * (die_width - config.siteWidth);
        y = die_height - config.rowHeight;
        break;
      case 2:  // left edge
        x = 0;
        y = std::floor(t * (num_rows - 1)) * config.rowHeight;
        break;
      default:  // right edge
        x = die_width - config.siteWidth;
        y = std::floor(t * (num_rows - 1)) * config.rowHeight;
        break;
    }
    x = std::floor(x / config.siteWidth) * config.siteWidth;
    db->setCellPosition(id, x, y);
    pad_ids.push_back(id);
  }

  // --- Nets with hierarchical locality -----------------------------------------
  // Cells are leaves of an implicit balanced binary hierarchy over their
  // index range (a stand-in for the recursive-bisection structure of real
  // netlists). A net picks a hierarchy level: with probability
  // `rentLocality` it stays at the current (smaller) subtree, otherwise it
  // moves up one level. Members are sampled within the chosen range.
  const Index num_nets =
      config.numNets > 0
          ? config.numNets
          : static_cast<Index>(std::llround(1.03 * static_cast<double>(n)));

  // Random permutation so hierarchy ranges are uncorrelated with cell sizes.
  std::vector<Index> perm(n);
  for (Index i = 0; i < n; ++i) {
    perm[i] = i;
  }
  for (Index i = n - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.uniformInt(static_cast<std::uint32_t>(i + 1))]);
  }

  std::unordered_set<Index> members;
  for (Index e = 0; e < num_nets; ++e) {
    Index degree = sampleNetDegree(rng);
    // Choose a subtree: start from a window of 16 leaves around a random
    // anchor and grow it until the locality coin says stop or it spans all.
    Index window = std::max<Index>(16, degree * 2);
    while (window < n && rng.uniform() > config.rentLocality) {
      window *= 2;
    }
    window = std::min(window, n);
    const Index base =
        window >= n ? 0
                    : static_cast<Index>(rng.uniformInt(
                          static_cast<std::uint32_t>(n - window)));
    degree = std::min(degree, window);

    members.clear();
    while (static_cast<Index>(members.size()) < degree) {
      members.insert(perm[base + static_cast<Index>(rng.uniformInt(
                               static_cast<std::uint32_t>(window)))]);
    }

    const Index net = db->addNet("n" + std::to_string(e));
    for (Index cell : members) {
      // Pin offset uniform inside the cell, relative to center.
      const Coord w = db->cellWidth(cell);
      const Coord h = db->cellHeight(cell);
      db->addPin(net, cell, rng.uniform(-0.45, 0.45) * w,
                 rng.uniform(-0.45, 0.45) * h);
    }
    // ~4% of nets also connect to an IO pad; ~1% to a macro pin.
    if (!pad_ids.empty() && rng.uniform() < 0.04) {
      const Index pad =
          pad_ids[rng.uniformInt(static_cast<std::uint32_t>(pad_ids.size()))];
      db->addPin(net, pad, 0, 0);
    } else if (!macro_ids.empty() && rng.uniform() < 0.01) {
      const Index mac =
          macro_ids[rng.uniformInt(static_cast<std::uint32_t>(macro_ids.size()))];
      db->addPin(net, mac, rng.uniform(-0.45, 0.45) * db->cellWidth(mac),
                 rng.uniform(-0.45, 0.45) * db->cellHeight(mac));
    }
  }

  // A few extra nets tie each movable macro into the netlist.
  for (Index mac : movable_macro_ids) {
    const int fanout = 3 + static_cast<int>(rng.uniformInt(4));
    for (int f = 0; f < fanout; ++f) {
      const Index net = db->addNet(
          "nm" + std::to_string(mac) + "_" + std::to_string(f));
      db->addPin(net, mac, rng.uniform(-0.45, 0.45) * db->cellWidth(mac),
                 rng.uniform(-0.45, 0.45) * db->cellHeight(mac));
      const int degree = 2 + static_cast<int>(rng.uniformInt(3));
      for (int d = 0; d < degree; ++d) {
        const Index cell =
            static_cast<Index>(rng.uniformInt(static_cast<std::uint32_t>(n)));
        db->addPin(net, cell, rng.uniform(-0.45, 0.45) * db->cellWidth(cell),
                   rng.uniform(-0.45, 0.45) * db->cellHeight(cell));
      }
    }
  }

  // Random initial positions inside the die (the GP re-initializes anyway,
  // but the database should always hold a meaningful placement).
  for (Index i = 0; i < n; ++i) {
    const Coord x = rng.uniform(0, die_width - db->cellWidth(i));
    const Coord y = std::floor(rng.uniform(0, num_rows)) * config.rowHeight;
    db->setCellPosition(i, x, y);
  }
  for (Index mac : movable_macro_ids) {
    db->setCellPosition(
        mac, rng.uniform(0, die_width - db->cellWidth(mac)),
        rng.uniform(0, die_height - db->cellHeight(mac)));
  }

  db->finalize();
  logInfo("generator: %s => %d cells (%d movable), %d nets, %d pins, "
          "die %.0fx%.0f util %.2f",
          config.designName.c_str(), db->numCells(), db->numMovable(),
          db->numNets(), db->numPins(), die_width, die_height,
          db->utilization());
  return db;
}

}  // namespace dreamplace
