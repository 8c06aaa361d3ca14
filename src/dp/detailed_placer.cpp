#include "dp/detailed_placer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "common/counters.h"
#include "common/log.h"
#include "common/timer.h"
#include "db/metrics.h"
#include "dp/independent_set.h"
#include "dp/move_nets.h"
#include "lg/macro_legalizer.h"

// Both DP phases and ISM run serially: each move is evaluated against the
// live placement and committed at once, so every later candidate sees it
// (see docs/PARALLEL.md, "The serial back-end").

namespace dreamplace {

namespace {

/// Row occupancy: cells of each row sorted by x. Fixed cells (pads,
/// macros) are included as immovable entries so window/swap moves never
/// pack over them.
struct RowIndex {
  std::vector<std::vector<Index>> rows;
  std::vector<char> movableEntry;  ///< Per cell: participates in DP moves.
  Coord rowHeight = 0;
  Coord yBase = 0;

  bool isMovableEntry(Index i) const { return movableEntry[i] != 0; }

  void build(const Database& db) {
    rowHeight = db.rowHeight();
    yBase = db.rows().front().y;
    rows.assign(db.rows().size(), {});
    movableEntry.assign(db.numCells(), 0);
    const auto num_rows = static_cast<Index>(rows.size());
    for (Index i = 0; i < db.numCells(); ++i) {
      // Standard movable cells are DP-movable; fixed cells and movable
      // macros are obstacles spanning every row band they overlap.
      if (db.isMovable(i) && !isMovableMacro(db, i)) {
        movableEntry[i] = 1;
        rows[rowOf(db.cellY(i))].push_back(i);
        continue;
      }
      const Box<Coord> box = db.cellBox(i);
      const Index r0 = rowOf(box.yl + 1e-9);
      const Index r1 = rowOf(box.yh - 1e-9);
      for (Index r = std::max<Index>(0, r0);
           r <= std::min(num_rows - 1, r1); ++r) {
        rows[r].push_back(i);
      }
    }
    for (auto& row : rows) {
      std::sort(row.begin(), row.end(), [&](Index a, Index b) {
        return db.cellX(a) < db.cellX(b);
      });
    }
  }

  Index rowOf(Coord y) const {
    const auto r = static_cast<Index>(std::round((y - yBase) / rowHeight));
    return std::clamp<Index>(r, 0, static_cast<Index>(rows.size()) - 1);
  }
};

// ---- Intra-row reordering -------------------------------------------------

struct ReorderScratch {
  MoveNets nets;
  std::vector<Index> window;
  std::vector<int> perm;
  std::vector<int> bestPerm;

  explicit ReorderScratch(int w) : window(w), perm(w), bestPerm(w) {}
};

struct WindowEval {
  bool evaluated = false;  ///< Passed the fixed/feasibility gates.
  bool improved = false;   ///< Best permutation beats base by > 1e-9.
  Coord spanXl = 0;        ///< Packing origin (first cell's x).
};

/// Evaluates one reorder window against the current database state:
/// exhaustively permutes the w cells, packed from the span start, and
/// records the best ordering in `s.bestPerm` (composition in `s.window`).
/// The window's nets are scanned once; every permutation folds the
/// window's pins onto their complement boxes. Read-only.
WindowEval evaluateWindow(const Database& db, const RowIndex& rowIndex,
                          const std::vector<Index>& row, std::size_t start,
                          int w, ReorderScratch& s) {
  WindowEval out;
  bool has_fixed = false;
  for (int k = 0; k < w; ++k) {
    s.window[k] = row[start + k];
    has_fixed |= !rowIndex.isMovableEntry(s.window[k]);
  }
  if (has_fixed) {
    return out;
  }
  // Window span: from first cell's x to the next cell (or +inf);
  // permutations are packed from the span start.
  out.spanXl = db.cellX(s.window[0]);
  Coord span_xh;
  if (start + w < row.size()) {
    span_xh = db.cellX(row[start + w]);
  } else {
    span_xh = std::numeric_limits<Coord>::infinity();
  }
  Coord total_w = 0;
  for (int k = 0; k < w; ++k) {
    total_w += db.cellWidth(s.window[k]);
  }
  if (out.spanXl + total_w > span_xh) {
    return out;  // no room to repack (should not happen)
  }
  s.nets.scan(db, s.window.data(), w);
  out.evaluated = true;

  std::iota(s.perm.begin(), s.perm.end(), 0);
  const double base = s.nets.current();
  double best = base;
  std::copy(s.perm.begin(), s.perm.end(), s.bestPerm.begin());
  const Coord orig_y = db.cellY(s.window[0]);
  while (std::next_permutation(s.perm.begin(), s.perm.end())) {
    Coord x = out.spanXl;
    for (int k = 0; k < w; ++k) {
      s.nets.place(s.perm[k], x, orig_y);
      x += db.cellWidth(s.window[s.perm[k]]);
    }
    const double cost = s.nets.placed();
    if (cost < best - 1e-9) {
      best = cost;
      std::copy(s.perm.begin(), s.perm.end(), s.bestPerm.begin());
    }
  }
  out.improved = best < base - 1e-9;
  return out;
}

/// Applies a winning permutation: moves the w cells to their packed
/// positions and rewrites the row order.
void commitWindow(Database& db, std::vector<Index>& row, std::size_t start,
                  int w, const std::vector<int>& perm, Coord span_xl) {
  Index cells[DetailedPlacer::kMaxWindowSize];
  for (int k = 0; k < w; ++k) {
    cells[k] = row[start + k];
  }
  const Coord orig_y = db.cellY(cells[0]);
  Coord x = span_xl;
  for (int k = 0; k < w; ++k) {
    const Index c = cells[perm[k]];
    db.setCellPosition(c, x, orig_y);
    row[start + k] = c;
    x += db.cellWidth(c);
  }
}

// ---- Global swap ----------------------------------------------------------

struct SwapScratch {
  MoveNets cellNets;   ///< The swapping cell, scanned once per cell.
  MoveNets otherNets;  ///< The candidate, scanned once per candidate.
  std::vector<double> lx, hx, ly, hy;
};

struct SwapRegion {
  bool skip = true;
  double ox = 0;
  Index targetRow = 0;
};

/// Optimal region of `cell`: median of the bounding boxes of its nets
/// (one per pin) with the cell itself excluded. Scans the cell's nets
/// into s.cellNets, whose complement boxes every candidate then reuses.
/// skip is set when the cell has no external pins or already sits in its
/// optimal region.
SwapRegion computeSwapRegion(const Database& db, const RowIndex& rows,
                             Index cell, SwapScratch& s) {
  SwapRegion region;
  s.lx.clear();
  s.hx.clear();
  s.ly.clear();
  s.hy.clear();
  s.cellNets.scan(db, &cell, 1);
  for (const std::int32_t i : s.cellNets.pinNets()) {
    const PinBox& rest = s.cellNets.nets()[i].rest;
    if (!rest.empty()) {
      s.lx.push_back(rest.xl);
      s.hx.push_back(rest.xh);
      s.ly.push_back(rest.yl);
      s.hy.push_back(rest.yh);
    }
  }
  if (s.lx.empty()) {
    return region;
  }
  auto median = [](std::vector<double>& v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  region.ox = 0.5 * (median(s.lx) + median(s.hx));
  const double oy = 0.5 * (median(s.ly) + median(s.hy));
  region.targetRow = rows.rowOf(oy - db.rowHeight() / 2);

  // Already close to optimal? Skip.
  region.skip = std::abs(db.cellX(cell) - region.ox) < db.rowHeight() &&
                rows.rowOf(db.cellY(cell)) == region.targetRow;
  return region;
}

/// Walks the swap candidates of `cell` around its optimal region in the
/// serial order (rows by distance from the target, nearest-x probes per
/// row), invoking tryCand(other) for each admissible candidate until it
/// returns true (committed) or the candidate budget is exhausted.
/// Read-only with respect to `rows` and the database.
template <typename TryFn>
void enumerateSwapCandidates(const Database& db, const RowIndex& rows,
                             Index cell, double ox, Index target_row,
                             const DetailedPlacer::Options& opt,
                             TryFn&& tryCand) {
  int tried = 0;
  const auto max_row_delta = static_cast<Index>(opt.swapRadiusRows);
  for (Index dr = 0; dr <= max_row_delta && tried < opt.maxCandidates;
       ++dr) {
    for (int sign : {+1, -1}) {
      if (sign < 0 && dr == 0) {
        continue;
      }
      const Index r = target_row + sign * dr;
      if (r < 0 || r >= static_cast<Index>(rows.rows.size())) {
        continue;
      }
      const auto& row = rows.rows[r];
      if (row.empty()) {
        continue;
      }
      // Binary search the cell nearest ox.
      const auto it = std::lower_bound(
          row.begin(), row.end(), ox,
          [&](Index a, double v) { return db.cellX(a) < v; });
      for (int probe = -1; probe <= 1; ++probe) {
        const std::ptrdiff_t j = (it - row.begin()) + probe;
        if (j < 0 || j >= static_cast<std::ptrdiff_t>(row.size())) {
          continue;
        }
        const Index other = row[j];
        if (other == cell || !rows.isMovableEntry(other) ||
            db.cellWidth(other) != db.cellWidth(cell)) {
          continue;  // only equal-width movable swaps stay legal
        }
        if (rows.rowOf(db.cellY(other)) == rows.rowOf(db.cellY(cell)) &&
            std::abs(db.cellX(other) - db.cellX(cell)) <
                4 * db.rowHeight()) {
          continue;  // near same-row swaps are covered by reordering
        }
        ++tried;
        if (tryCand(other)) {
          tried = opt.maxCandidates;  // move on to next cell
          break;
        }
      }
      if (tried >= opt.maxCandidates) {
        break;
      }
    }
  }
}

}  // namespace

DetailedPlacerResult DetailedPlacer::run(Database& db) const {
  ScopedTimer timer("dp");
  DetailedPlacerResult result;
  result.initialHpwl = hpwl(db);

  const int w = options_.windowSize;
  DP_ASSERT_MSG(w >= 2 && w <= kMaxWindowSize,
                "windowSize must be in [2, %d]", kMaxWindowSize);

  RowIndex rows;
  ReorderScratch rs(w);
  SwapScratch ss;
  std::int64_t reorder_windows = 0, swap_candidates = 0;

  double pass_start_hpwl = result.initialHpwl;
  for (int pass = 0; pass < options_.passes; ++pass) {
    rows.build(db);

    // ---- Intra-row local reordering ------------------------------------
    {
      ScopedTimer t("dp/reorder");
      for (std::vector<Index>& row : rows.rows) {
        for (std::size_t start = 0; start + w <= row.size(); ++start) {
          const WindowEval ev = evaluateWindow(db, rows, row, start, w, rs);
          if (!ev.evaluated) {
            continue;
          }
          ++reorder_windows;
          if (!ev.improved) {
            continue;
          }
          commitWindow(db, row, start, w, rs.bestPerm, ev.spanXl);
          ++result.reorderMoves;
        }
      }
    }

    // ---- Global swap / relocation ----------------------------------------
    {
      ScopedTimer t("dp/swap");
      rows.build(db);
      for (Index cell = 0; cell < db.numMovable(); ++cell) {
        if (isMovableMacro(db, cell)) {
          continue;  // macros are frozen after macro legalization
        }
        const SwapRegion region = computeSwapRegion(db, rows, cell, ss);
        if (region.skip) {
          continue;
        }
        enumerateSwapCandidates(
            db, rows, cell, region.ox, region.targetRow, options_,
            [&](Index other) {
              ++swap_candidates;
              ss.otherNets.scan(db, &other, 1, cell);
              const SwapCost c = swapCost(db, ss.cellNets, ss.otherNets);
              if (!(c.after < c.before - 1e-9)) {
                return false;
              }
              const Coord cx = db.cellX(cell);
              const Coord cy = db.cellY(cell);
              db.setCellPosition(cell, db.cellX(other), db.cellY(other));
              db.setCellPosition(other, cx, cy);
              // Update row occupancy: the two cells trade slots (which
              // may lie in the same row).
              auto& cell_row = rows.rows[rows.rowOf(db.cellY(other))];
              auto& other_row = rows.rows[rows.rowOf(db.cellY(cell))];
              std::iter_swap(
                  std::find(cell_row.begin(), cell_row.end(), cell),
                  std::find(other_row.begin(), other_row.end(), other));
              ++result.swapMoves;
              return true;
            });
      }
    }

    // ---- Independent-set matching ----------------------------------------
    if (options_.enableIsm) {
      IsmOptions ism;
      ism.maxSetSize = options_.ismSetSize;
      const IsmResult r = independentSetMatching(db, ism);
      result.ismMoves += r.cellsMoved;
    }

    if (options_.convergenceTolerance > 0) {
      const double pass_end_hpwl = hpwl(db);
      if (pass_start_hpwl - pass_end_hpwl <
          options_.convergenceTolerance * pass_end_hpwl) {
        break;
      }
      pass_start_hpwl = pass_end_hpwl;
    }
  }

  result.finalHpwl = hpwl(db);

  CounterRegistry& reg = currentCounterRegistry();
  reg.add("dp/reorder_windows", reorder_windows);
  reg.add("dp/swap_candidates", swap_candidates);
  reg.add("dp/reorder_moves", result.reorderMoves);
  reg.add("dp/swap_moves", result.swapMoves);
  reg.add("dp/ism_moves", result.ismMoves);

  logInfo("dp: hpwl %.4e -> %.4e (%.2f%%), %ld reorders, %ld swaps, "
          "%ld ism moves",
          result.initialHpwl, result.finalHpwl,
          result.initialHpwl > 0
              ? 100.0 * (result.finalHpwl - result.initialHpwl) /
                    result.initialHpwl
              : 0.0,
          result.reorderMoves, result.swapMoves, result.ismMoves);
  return result;
}

}  // namespace dreamplace
