// Benchmark suite presets mirroring the paper's three evaluation suites.
//
// Cell/net counts are the paper's (Tables II, III, V) scaled down by a
// configurable factor (default 1/100) so the whole evaluation fits a
// 4-core machine; the *relative* sizes across designs are preserved,
// which is what the runtime-scaling claims depend on.
#pragma once

#include <string>
#include <vector>

#include "gen/netlist_generator.h"

namespace dreamplace {

struct SuiteEntry {
  std::string name;
  GeneratorConfig config;
  double paperCellsK = 0;  ///< Paper's cell count in thousands (for tables).
};

/// ISPD 2005 contest suite stand-in (Table II): adaptec1-4, bigblue1-4.
std::vector<SuiteEntry> ispd2005Suite(double scale = 0.01);

/// Industrial suite stand-in (Table III): design1-6 with fixed macros;
/// design6 is the 10.5M-cell scalability stressor.
std::vector<SuiteEntry> industrialSuite(double scale = 0.01);

/// DAC 2012 routability suite stand-in (Table V): superblue-like designs
/// with lower utilization (routability headroom).
std::vector<SuiteEntry> dac2012Suite(double scale = 0.01);

/// Finds an entry by name across all three suites; throws if absent.
SuiteEntry findSuiteEntry(const std::string& name, double scale = 0.01);

}  // namespace dreamplace
