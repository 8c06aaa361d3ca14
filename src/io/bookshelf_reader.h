// Reader for the Bookshelf placement format used by the ISPD 2005 and
// DAC 2012 contests (.aux, .nodes, .nets, .pl, .scl, optional .wts).
//
// The synthetic suite generator emits this same format, so real contest
// benchmarks drop in without code changes.
#pragma once

#include <memory>
#include <string>

#include "db/database.h"

namespace dreamplace {

/// Parses the .aux file at `auxPath` and loads the referenced files.
/// Throws std::runtime_error on malformed input or missing files, naming
/// the file and, for malformed content, the line and the field.
///
/// Each file is read whole into one buffer and parsed from memory; the
/// buffer is released before its parse returns.
///
/// A number is one token in std::from_chars' decimal syntax ("12", "-0.5",
/// ".5", "5.", "1e-310") with at most one leading '+'. Hex floats, nan, inf
/// and text around the number ("12abc") are errors.
///
/// Cell names in the .nodes file must be unique; a repeated name throws
/// naming the line and the field `node name`. A .nodes file with no node
/// throws.
///
/// The .pl must place every terminal (fixed cell), and may name each cell
/// only once; a repeated line, or a file that ends before every terminal
/// is placed, throws naming the line and the field `cell name`. Movable
/// cells the .pl does not name stay at (0, 0).
///
/// In the .scl, Sitespacing is the site pitch and Sitewidth the width of
/// one site; a row with only one of the two uses it as the pitch, in
/// whichever order the lines come. Sitewidth greater than Sitespacing
/// throws naming the Sitewidth line.
///
/// Every number (coordinate, cell size, pin offset, row origin, site
/// width, count) must be at most 2^30 in magnitude, and so must each
/// row's end (SubrowOrigin + NumSites * Sitewidth). Grids, rows and sites
/// are Index-addressed (int32), and the bound keeps the sum or difference
/// of any two in-range values (a cell's far edge, the die's extent, a net's
/// span) inside Index's 2^31 range.
std::unique_ptr<Database> readBookshelf(const std::string& auxPath);

/// Loads a .pl placement result onto an existing database (e.g. to
/// evaluate a solution produced by another tool). Unknown cell names,
/// repeated lines and bad numbers throw as in readBookshelf; cells absent
/// from the file keep their positions.
void readPlacement(Database& db, const std::string& plPath);

}  // namespace dreamplace
