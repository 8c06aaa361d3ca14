#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/log.h"
#include "common/parse.h"
#include "db/metrics.h"
#include "gen/netlist_generator.h"
#include "io/bookshelf_reader.h"
#include "io/bookshelf_writer.h"

namespace dreamplace {
namespace {

namespace fs = std::filesystem;

class BookshelfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-process dir: ctest -j runs each test in its own process, and a
    // shared path would let one test's teardown race another's files.
    dir_ = fs::temp_directory_path() /
           ("dp_bookshelf_test_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(BookshelfTest, WriteReadRoundTrip) {
  GeneratorConfig cfg;
  cfg.designName = "rt";
  cfg.numCells = 300;
  cfg.numPads = 16;
  cfg.seed = 5;
  auto original = generateNetlist(cfg);
  writeBookshelf(*original, dir_.string(), "rt");

  auto loaded = readBookshelf((dir_ / "rt.aux").string());
  EXPECT_EQ(loaded->numCells(), original->numCells());
  EXPECT_EQ(loaded->numMovable(), original->numMovable());
  EXPECT_EQ(loaded->numNets(), original->numNets());
  EXPECT_EQ(loaded->numPins(), original->numPins());
  EXPECT_EQ(loaded->rows().size(), original->rows().size());
  EXPECT_NEAR(loaded->dieArea().xh, original->dieArea().xh, 1e-9);
  EXPECT_NEAR(loaded->dieArea().yh, original->dieArea().yh, 1e-9);
  // HPWL is a complete functional check of positions + offsets + nets.
  EXPECT_NEAR(hpwl(*loaded), hpwl(*original), 1e-6 * hpwl(*original));
}

TEST_F(BookshelfTest, CellAttributesRoundTrip) {
  GeneratorConfig cfg;
  cfg.numCells = 50;
  cfg.numPads = 8;
  cfg.seed = 9;
  auto original = generateNetlist(cfg);
  writeBookshelf(*original, dir_.string(), "attrs");
  auto loaded = readBookshelf((dir_ / "attrs.aux").string());
  for (Index i = 0; i < original->numCells(); ++i) {
    const Index j = loaded->findCell(original->cellName(i));
    ASSERT_NE(j, kInvalidIndex) << original->cellName(i);
    EXPECT_DOUBLE_EQ(loaded->cellWidth(j), original->cellWidth(i));
    EXPECT_DOUBLE_EQ(loaded->cellHeight(j), original->cellHeight(i));
    EXPECT_DOUBLE_EQ(loaded->cellX(j), original->cellX(i));
    EXPECT_EQ(loaded->isMovable(j), original->isMovable(i));
  }
}

TEST_F(BookshelfTest, ParsesHandWrittenFiles) {
  // Minimal hand-authored benchmark exercising comments, flexible
  // whitespace, and the terminal keyword.
  {
    std::ofstream aux(dir_ / "mini.aux");
    aux << "RowBasedPlacement : mini.nodes mini.nets mini.wts mini.pl "
           "mini.scl\n";
  }
  {
    std::ofstream nodes(dir_ / "mini.nodes");
    nodes << "UCLA nodes 1.0\n# comment line\n\n"
          << "NumNodes : 3\nNumTerminals : 1\n"
          << "  c0  4 12\n"
          << "\tc1\t6\t12\n"
          << "  io0 2 12 terminal\n";
  }
  {
    std::ofstream nets(dir_ / "mini.nets");
    nets << "UCLA nets 1.0\n\nNumNets : 1\nNumPins : 3\n"
         << "NetDegree : 3  signal\n"
         << "  c0 I : 0.5 1\n"
         << "  c1 O : -1 0\n"
         << "  io0 I : 0 0\n";
  }
  {
    std::ofstream wts(dir_ / "mini.wts");
    wts << "UCLA wts 1.0\n";
  }
  {
    std::ofstream pl(dir_ / "mini.pl");
    pl << "UCLA pl 1.0\n\n"
       << "c0 10 0 : N\n"
       << "c1 20 12 : N\n"
       << "io0 0 0 : N /FIXED\n";
  }
  {
    std::ofstream scl(dir_ / "mini.scl");
    scl << "UCLA scl 1.0\n\nNumRows : 2\n"
        << "CoreRow Horizontal\n"
        << " Coordinate : 0\n Height : 12\n"
        << " Sitewidth : 1\n Sitespacing : 1\n"
        << " Siteorient : 1\n Sitesymmetry : 1\n"
        << " SubrowOrigin : 0 NumSites : 100\n"
        << "End\n"
        << "CoreRow Horizontal\n"
        << " Coordinate : 12\n Height : 12\n"
        << " Sitewidth : 1\n Sitespacing : 1\n"
        << " SubrowOrigin : 0 NumSites : 100\n"
        << "End\n";
  }
  auto db = readBookshelf((dir_ / "mini.aux").string());
  EXPECT_EQ(db->numCells(), 3);
  EXPECT_EQ(db->numMovable(), 2);
  EXPECT_EQ(db->numNets(), 1);
  EXPECT_EQ(db->numPins(), 3);
  EXPECT_EQ(db->netDegree(0), 3);
  EXPECT_DOUBLE_EQ(db->dieArea().xh, 100);
  EXPECT_DOUBLE_EQ(db->dieArea().yh, 24);
  const Index c0 = db->findCell("c0");
  EXPECT_DOUBLE_EQ(db->cellX(c0), 10);
  const Index io0 = db->findCell("io0");
  EXPECT_FALSE(db->isMovable(io0));
}

TEST_F(BookshelfTest, MissingFileThrows) {
  EXPECT_THROW(readBookshelf((dir_ / "absent.aux").string()),
               std::runtime_error);
}

GeneratorConfig mutatedDesignConfig() {
  GeneratorConfig cfg;
  cfg.numCells = 200;
  cfg.numPads = 8;
  cfg.seed = 17;
  return cfg;
}

/// Writes a generated design as `<dir>/mut.*`, then lets `edit` rewrite
/// the lines of `mut.<ext>`. Returns the .aux path.
std::string writeEdited(
    const fs::path& dir, const std::string& ext,
    const std::function<void(std::vector<std::string>&)>& edit) {
  writeBookshelf(*generateNetlist(mutatedDesignConfig()), dir.string(),
                 "mut");
  const fs::path path = dir / ("mut." + ext);
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) {
      lines.push_back(line);
    }
  }
  edit(lines);
  std::ofstream out(path);
  for (const std::string& line : lines) {
    out << line << '\n';
  }
  return (dir / "mut.aux").string();
}

/// Sets whitespace-separated field `field` of the first line of
/// `mut.<ext>` that `pick` accepts to `value` (see writeEdited()).
std::string writeMutated(const fs::path& dir, const std::string& ext,
                         const std::function<bool(const std::string&)>& pick,
                         std::size_t field, const std::string& value) {
  return writeEdited(dir, ext, [&](std::vector<std::string>& lines) {
    bool mutated = false;
    for (std::string& line : lines) {
      if (mutated || !pick(line)) {
        continue;
      }
      std::istringstream fields(line);
      std::vector<std::string> tokens;
      for (std::string token; fields >> token;) {
        tokens.push_back(token);
      }
      EXPECT_LT(field, tokens.size()) << line;
      tokens.at(field) = value;
      line.clear();
      for (const std::string& token : tokens) {
        line += (line.empty() ? "" : " ") + token;
      }
      mutated = true;
    }
    EXPECT_TRUE(mutated) << "no line of mut." << ext << " matched";
  });
}

/// Expects readBookshelf(aux) to throw naming `mut.<ext>`, a line and
/// `field`.
void expectReadFails(const std::string& aux, const std::string& ext,
                     const std::string& field) {
  try {
    readBookshelf(aux);
    ADD_FAILURE() << "no throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("mut." + ext), std::string::npos) << what;
    EXPECT_NE(what.find(": line "), std::string::npos) << what;
    EXPECT_NE(what.find(field + ":"), std::string::npos) << what;
  }
}

bool contains(const std::string& line, const char* text) {
  return line.find(text) != std::string::npos;
}

TEST_F(BookshelfTest, MalformedNetsThrows) {
  {
    std::ofstream aux(dir_ / "bad.aux");
    aux << "RowBasedPlacement : bad.nodes bad.nets bad.wts bad.pl bad.scl\n";
  }
  {
    std::ofstream nodes(dir_ / "bad.nodes");
    nodes << "c0 4 12\n";
  }
  {
    std::ofstream nets(dir_ / "bad.nets");
    nets << "unknown_cell I : 0 0\n";  // pin before any NetDegree
  }
  std::ofstream(dir_ / "bad.wts");
  {
    std::ofstream pl(dir_ / "bad.pl");
    pl << "c0 0 0 : N\n";
  }
  {
    std::ofstream scl(dir_ / "bad.scl");
    scl << "CoreRow Horizontal\n Coordinate : 0\n Height : 12\n"
        << " SubrowOrigin : 0 NumSites : 10\nEnd\n";
  }
  try {
    readBookshelf((dir_ / "bad.aux").string());
    ADD_FAILURE() << "no throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad.nets: line 1: pin:"),
              std::string::npos)
        << e.what();
  }

  // Structural errors in a generated design name file, line and field.
  const auto netDegree = [](const std::string& l) {
    return l.rfind("NetDegree", 0) == 0;
  };
  const auto pinLine = [](const std::string& l) {
    return !l.empty() && l[0] == '\t' && contains(l, " : ");
  };
  expectReadFails(writeMutated(dir_, "nets", netDegree, 1, "="), "nets",
                  "NetDegree");
  expectReadFails(writeMutated(dir_, "nets", pinLine, 0, "no_such_cell"),
                  "nets", "cell name");
  expectReadFails(
      writeEdited(dir_, "nets",
                  [&](std::vector<std::string>& lines) {
                    // A copy of the first pin line, placed before its net.
                    const auto pin =
                        std::find_if(lines.begin(), lines.end(), pinLine);
                    const auto net =
                        std::find_if(lines.begin(), lines.end(), netDegree);
                    ASSERT_NE(pin, lines.end());
                    const std::string copy = *pin;
                    lines.insert(net, copy);
                  }),
      "nets", "pin");
  expectReadFails(
      writeEdited(dir_, "nodes",
                  [](std::vector<std::string>& lines) {
                    for (std::string& line : lines) {
                      if (!line.empty() && line[0] == '\t') {
                        line = "\tlonely_name";
                        return;
                      }
                    }
                  }),
      "nodes", "node");
  expectReadFails(writeMutated(dir_, "pl",
                               [](const std::string& l) {
                                 return contains(l, " : N");
                               },
                               0, "no_such_cell"),
                  "pl", "cell name");
  // A copied node line once added a second, pinless cell of the same name
  // that the .pl writer then emitted twice.
  expectReadFails(
      writeEdited(dir_, "nodes",
                  [](std::vector<std::string>& lines) {
                    const auto node = std::find_if(
                        lines.begin(), lines.end(), [](const std::string& l) {
                          return !l.empty() && l[0] == '\t';
                        });
                    ASSERT_NE(node, lines.end());
                    const std::string copy = *node;
                    lines.insert(node + 1, copy);
                  }),
      "nodes", "node name");
}

TEST_F(BookshelfTest, BadNumbersThrowNamingFileLineAndField) {
  // Each case once crashed the reader or a later stage (SIGSEGV on a nan
  // pin offset or /FIXED x, an assert abort on a non-positive size,
  // NetDegree : 0 or Sitespacing : 0) or was accepted silently
  // (Height : 0, NumSites : -5, Sitewidth : 0).
  const auto movableNode = [](const std::string& l) {
    return !l.empty() && l[0] == '\t' && !contains(l, "terminal");
  };
  const auto pinLine = [](const std::string& l) {
    return !l.empty() && l[0] == '\t' && contains(l, " : ");
  };
  struct Case {
    std::string ext;
    std::function<bool(const std::string&)> pick;
    std::size_t field;
    std::string value;
    std::string expectField;
  };
  const std::vector<Case> cases = {
      {"nets", pinLine, 3, "nan", "pin offset x"},
      {"nets", pinLine, 4, "1e999", "pin offset y"},
      {"nets", [](const std::string& l) { return contains(l, "NetDegree"); },
       2, "two", "NetDegree"},
      {"nets", [](const std::string& l) { return contains(l, "NetDegree"); },
       2, "0", "NetDegree"},
      {"pl", [](const std::string& l) { return contains(l, "/FIXED"); }, 1,
       "nan", "x"},
      {"pl", [](const std::string& l) { return contains(l, " : N"); }, 2,
       "12abc", "y"},
      {"nodes", movableNode, 1, "0", "cell width"},
      {"nodes", movableNode, 1, "-4", "cell width"},
      {"nodes", movableNode, 1, "nan", "cell width"},
      {"nodes", movableNode, 2, "0", "cell height"},
      {"scl", [](const std::string& l) { return contains(l, "Height"); }, 2,
       "0", "Height"},
      {"scl", [](const std::string& l) { return contains(l, "NumSites"); },
       5, "-5", "NumSites"},
      {"scl", [](const std::string& l) { return contains(l, "Coordinate"); },
       2, "inf", "Coordinate"},
      {"scl", [](const std::string& l) { return contains(l, "Sitewidth"); },
       2, "0", "Sitewidth"},
      {"scl", [](const std::string& l) { return contains(l, "Sitespacing"); },
       2, "0", "Sitespacing"},
      // Magnitudes beyond 2^30 (bookshelf_reader.h): a 1e300 pin offset
      // was accepted with HPWL 1e+300; the NumSites and Coordinate probes
      // ended in a std::length_error naming no location.
      {"nets", pinLine, 3, "1e300", "pin offset x"},
      {"nodes", movableNode, 2, "5e9", "cell height"},
      {"pl", [](const std::string& l) { return contains(l, " : N"); }, 1,
       "-2e9", "x"},
      {"scl", [](const std::string& l) { return contains(l, "NumSites"); },
       5, "2000000000", "NumSites"},
      {"scl", [](const std::string& l) { return contains(l, "Coordinate"); },
       2, "1e15", "Coordinate"},
      // Sites 1e7 apart end the row beyond the bound.
      {"scl", [](const std::string& l) { return contains(l, "Sitespacing"); },
       2, "1e7", "NumSites"},
      // Sites 1e7 wide at a pitch of 1 overlap; a later Sitespacing line
      // once overwrote the width and the row was accepted.
      {"scl", [](const std::string& l) { return contains(l, "Sitewidth"); },
       2, "1e7", "Sitewidth"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.ext + " " + c.expectField + " = " + c.value);
    expectReadFails(writeMutated(dir_, c.ext, c.pick, c.field, c.value),
                    c.ext, c.expectField);
  }
}

TEST_F(BookshelfTest, SitePitchDoesNotDependOnLineOrder) {
  // Sitespacing is the pitch whether it comes before or after Sitewidth.
  std::vector<double> pitches;
  std::vector<double> die_widths;
  for (const bool spacing_first : {false, true}) {
    SCOPED_TRACE(spacing_first ? "Sitespacing first" : "Sitewidth first");
    const std::string aux =
        writeEdited(dir_, "scl", [&](std::vector<std::string>& lines) {
          for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
            if (contains(lines[i], "Sitewidth")) {
              ASSERT_TRUE(contains(lines[i + 1], "Sitespacing"));
              lines[i] = " Sitewidth : 1";
              lines[i + 1] = " Sitespacing : 2";
              if (spacing_first) {
                std::swap(lines[i], lines[i + 1]);
              }
              ++i;
            }
          }
        });
    const auto db = readBookshelf(aux);
    pitches.push_back(db->siteWidth());
    die_widths.push_back(db->dieArea().width());
  }
  EXPECT_EQ(pitches, std::vector<double>(2, 2.0));
  EXPECT_EQ(die_widths[0], die_widths[1]);
  const auto original = generateNetlist(mutatedDesignConfig());
  EXPECT_DOUBLE_EQ(die_widths[0], 2 * original->dieArea().width());
}

TEST(ParseFiniteTest, PinsTheNumberSyntax) {
  for (const char* token : {"+1", ".5", "5.", "-0", "1e5", "1e-310"}) {
    double value = 0.0;
    EXPECT_TRUE(parseFinite(token, value)) << token;
    EXPECT_EQ(value, std::strtod(token, nullptr)) << token;
  }
  for (const char* token : {"0x10", " 1", "++1", "+-1", "+nan", "1e", ".",
                            "e5", "1e999", "nan", "inf", "", "+", "1 ",
                            "1,5"}) {
    double value = 0.0;
    EXPECT_FALSE(parseFinite(token, value)) << "'" << token << "'";
  }
}

TEST_F(BookshelfTest, TruncatedFilesLoadOrThrowNamingTheFile) {
  // Every cut of a file, at a line boundary or inside a token, either
  // loads or throws std::runtime_error naming that file: the reader never
  // reads past the end of its buffer and never blames another file. A
  // .pl cut at a line boundary must throw: the writer emits movable cells
  // first, so every such cut drops a terminal.
  writeBookshelf(*generateNetlist(mutatedDesignConfig()), dir_.string(),
                 "mut");
  const std::string aux = (dir_ / "mut.aux").string();
  for (const std::string ext : {"nodes", "nets", "pl", "scl"}) {
    const fs::path path = dir_ / ("mut." + ext);
    std::string text;
    {
      std::ifstream in(path, std::ios::binary);
      text.assign(std::istreambuf_iterator<char>(in), {});
    }
    std::vector<std::size_t> cuts = {0};
    std::vector<char> at_line = {1};  // per cut: at a line boundary
    std::size_t line_start = 0;
    while (line_start < text.size()) {
      const std::size_t eol =
          std::min(text.find('\n', line_start), text.size());
      // The middle of the line's last token of two or more characters.
      const std::string_view line(text.data() + line_start, eol - line_start);
      const std::size_t last = line.find_last_not_of(" \t");
      if (last != std::string_view::npos) {
        const std::size_t blank = line.find_last_of(" \t", last);
        const std::size_t begin =
            blank == std::string_view::npos ? 0 : blank + 1;
        if (last > begin) {
          cuts.push_back(line_start + begin + (last - begin + 1) / 2);
          at_line.push_back(0);
        }
      }
      line_start = eol + 1;
      cuts.push_back(std::min(line_start, text.size()));
      at_line.push_back(1);
    }
    for (std::size_t i = 0; i < cuts.size(); ++i) {
      const std::size_t cut = cuts[i];
      std::ofstream(path, std::ios::binary) << text.substr(0, cut);
      try {
        readBookshelf(aux);
        EXPECT_FALSE(ext == "pl" && at_line[i] && cut < text.size())
            << "mut.pl cut at byte " << cut << " loaded";
      } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("mut." + ext), std::string::npos)
            << "cut at byte " << cut << ": " << what;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "mut." << ext << " cut at byte " << cut
                      << ": not a std::runtime_error: " << e.what();
      }
    }
    std::ofstream(path, std::ios::binary) << text;
  }
}

TEST_F(BookshelfTest, PlMustPlaceEachFixedCellOnce) {
  const auto fixedLine = [](const std::vector<std::string>& lines) {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (contains(lines[i], "/FIXED")) {
        return i;
      }
    }
    ADD_FAILURE() << "no fixed cell in the .pl";
    return std::size_t(0);
  };
  {
    SCOPED_TRACE("a terminal's line deleted");
    expectReadFails(writeEdited(dir_, "pl",
                                [&](std::vector<std::string>& lines) {
                                  lines.erase(lines.begin() +
                                              fixedLine(lines));
                                }),
                    "pl", "cell name");
  }
  {
    SCOPED_TRACE("a terminal's line repeated");
    expectReadFails(writeEdited(dir_, "pl",
                                [&](std::vector<std::string>& lines) {
                                  lines.push_back(lines[fixedLine(lines)]);
                                }),
                    "pl", "cell name");
  }
  {
    SCOPED_TRACE("a movable cell's line repeated");
    expectReadFails(writeEdited(dir_, "pl",
                                [](std::vector<std::string>& lines) {
                                  for (const std::string& line : lines) {
                                    if (contains(line, " : N") &&
                                        !contains(line, "/FIXED")) {
                                      lines.push_back(line);
                                      return;
                                    }
                                  }
                                }),
                    "pl", "cell name");
  }
  // A movable cell the .pl does not name keeps its default position, and
  // one warning names the file, the count and the cell.
  std::string omitted;
  const std::string aux =
      writeEdited(dir_, "pl", [&omitted](std::vector<std::string>& lines) {
        for (std::size_t i = 0; i < lines.size(); ++i) {
          if (contains(lines[i], " : N") && !contains(lines[i], "/FIXED")) {
            omitted = lines[i].substr(0, lines[i].find_first_of(" \t"));
            lines.erase(lines.begin() + i);
            return;
          }
        }
      });
  ASSERT_FALSE(omitted.empty());
  const LogLevel saved = logLevel();
  setLogLevel(LogLevel::kWarn);
  testing::internal::CaptureStderr();
  EXPECT_NO_THROW(readBookshelf(aux));
  const std::string log = testing::internal::GetCapturedStderr();
  setLogLevel(saved);
  EXPECT_NE(log.find(".pl: movable cells not placed: 1 (first: '" + omitted +
                     "')"),
            std::string::npos)
      << log;
}

TEST_F(BookshelfTest, HeaderCountsMustMatchTheFile) {
  // A truncated .nets once placed the partial netlist with exit 0, and
  // every header count was ignored.
  const auto startsWith = [](const char* prefix) {
    return [prefix](const std::string& l) { return l.rfind(prefix, 0) == 0; };
  };
  /// Index of the NetDegree line of the middle net.
  const auto middleNet = [](const std::vector<std::string>& lines) {
    std::vector<std::size_t> nets;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].rfind("NetDegree", 0) == 0) {
        nets.push_back(i);
      }
    }
    return nets.at(nets.size() / 2);
  };
  {
    SCOPED_TRACE(".nets cut inside a net");
    expectReadFails(
        writeEdited(dir_, "nets",
                    [&](std::vector<std::string>& lines) {
                      lines.resize(middleNet(lines) + 2);
                    }),
        "nets", "NetDegree");
  }
  {
    SCOPED_TRACE(".nets cut at a net boundary");
    expectReadFails(
        writeEdited(dir_, "nets",
                    [&](std::vector<std::string>& lines) {
                      lines.resize(middleNet(lines));
                    }),
        "nets", "NumNets");
  }
  {
    SCOPED_TRACE("NetDegree : 50 with 2 pins");
    expectReadFails(
        writeMutated(dir_, "nets", startsWith("NetDegree : 2 "), 2, "50"),
        "nets", "NetDegree");
  }
  {
    SCOPED_TRACE("NumNodes off by one");
    const Index cells = generateNetlist(mutatedDesignConfig())->numCells();
    expectReadFails(writeMutated(dir_, "nodes", startsWith("NumNodes"), 2,
                                 std::to_string(cells + 1)),
                    "nodes", "NumNodes");
  }
  {
    SCOPED_TRACE("NumRows : 0 with rows present");
    expectReadFails(
        writeMutated(dir_, "scl", startsWith("NumRows"), 2, "0"), "scl",
        "NumRows");
  }
}

TEST_F(BookshelfTest, ReadPlacementOntoExistingDatabase) {
  GeneratorConfig cfg;
  cfg.numCells = 40;
  cfg.seed = 14;
  auto db = generateNetlist(cfg);
  // Move cells, save, scramble, reload: positions must round-trip.
  for (Index i = 0; i < db->numMovable(); ++i) {
    db->setCellPosition(i, i * 3.0, (i % 5) * 12.0);
  }
  const auto pl = (dir_ / "reload.pl").string();
  writePlacement(*db, pl);
  for (Index i = 0; i < db->numMovable(); ++i) {
    db->setCellPosition(i, 0, 0);
  }
  readPlacement(*db, pl);
  for (Index i = 0; i < db->numMovable(); ++i) {
    EXPECT_DOUBLE_EQ(db->cellX(i), i * 3.0);
    EXPECT_DOUBLE_EQ(db->cellY(i), (i % 5) * 12.0);
  }
}

TEST_F(BookshelfTest, ReadPlacementUnknownCellThrows) {
  GeneratorConfig cfg;
  cfg.numCells = 10;
  cfg.seed = 15;
  auto db = generateNetlist(cfg);
  std::ofstream(dir_ / "bad.pl") << "UCLA pl 1.0\nnot_a_cell 0 0 : N\n";
  EXPECT_THROW(readPlacement(*db, (dir_ / "bad.pl").string()),
               std::runtime_error);
}

TEST_F(BookshelfTest, WritePlacementOnly) {
  GeneratorConfig cfg;
  cfg.numCells = 20;
  cfg.seed = 2;
  auto db = generateNetlist(cfg);
  const fs::path pl = dir_ / "out.pl";
  writePlacement(*db, pl.string());
  std::ifstream in(pl);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "UCLA pl 1.0");
  int lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      ++lines;
    }
  }
  EXPECT_EQ(lines, db->numCells());
}

}  // namespace
}  // namespace dreamplace
