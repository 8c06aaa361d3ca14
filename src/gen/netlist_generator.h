// Synthetic netlist generator.
//
// Stands in for the ISPD 2005 / DAC 2012 contest benchmark files, which are
// not available in this environment. The generator reproduces the structural
// statistics that drive placement behaviour:
//  * net degree distribution matching published contest statistics
//    (dominated by 2-3 pin nets with a thin high-fanout tail),
//  * Rent's-rule-style locality via hierarchical clustering (nets
//    preferentially connect cells that are close in a recursive-bisection
//    hierarchy),
//  * realistic cell width distribution, fixed IO pads on the periphery,
//    optional fixed macro blocks (industrial suite),
//  * a die sized for a target utilization.
//
// Output is a regular Database; writeBookshelf() can persist it so the
// files are interchangeable with real contest data.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "db/database.h"

namespace dreamplace {

struct GeneratorConfig {
  std::string designName = "synthetic";
  Index numCells = 1000;       ///< Movable standard cells.
  Index numNets = 0;           ///< 0 => ~1.03 * numCells (contest-typical).
  double utilization = 0.70;   ///< movable area / (die - fixed) area.
  Index numPads = 64;          ///< Fixed IO pads on the periphery.
  Index numMacros = 0;         ///< Fixed macro blocks inside the die.
  Index numMovableMacros = 0;  ///< Movable macros (mixed-size placement),
                               ///< 2-6 rows tall, placed by the flow.
  double macroAreaFraction = 0.15;  ///< Die fraction covered by macros.
  double rentLocality = 0.75;  ///< Probability mass that stays local per
                               ///< hierarchy level; higher = more local nets.
  std::uint64_t seed = 1;
  Coord rowHeight = 12;
  Coord siteWidth = 1;
};

/// Generates a finalized database per `config`. Throws
/// std::invalid_argument when numCells < 2.
std::unique_ptr<Database> generateNetlist(const GeneratorConfig& config);

}  // namespace dreamplace
