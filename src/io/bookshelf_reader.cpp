#include "io/bookshelf_reader.h"

#include <cctype>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "common/log.h"
#include "common/parse.h"
#include "common/timer.h"

namespace dreamplace {

namespace {

namespace fs = std::filesystem;

/// Largest magnitude a Bookshelf number may have (see bookshelf_reader.h).
constexpr double kMaxMagnitude = double(Index(1) << 30);

[[noreturn]] void fail(const std::string& file, const std::string& what) {
  throw std::runtime_error("bookshelf: " + file + ": " + what);
}

/// Reads a file line by line, stripping comments (#) and blank lines, and
/// skipping the "UCLA <kind> 1.0" header if present. Tracks the 1-based
/// number of the line last returned, for error messages.
class LineReader {
 public:
  explicit LineReader(const std::string& path) : path_(path), in_(path) {
    if (!in_) {
      dreamplace::fail(path, "cannot open");
    }
  }

  /// Next meaningful line; false at EOF.
  bool next(std::string& line) {
    while (std::getline(in_, line)) {
      ++line_number_;
      const auto hash = line.find('#');
      if (hash != std::string::npos) {
        line.erase(hash);
      }
      // Trim.
      const auto begin = line.find_first_not_of(" \t\r\n");
      if (begin == std::string::npos) {
        continue;
      }
      const auto end = line.find_last_not_of(" \t\r\n");
      line = line.substr(begin, end - begin + 1);
      if (line.rfind("UCLA", 0) == 0) {
        continue;
      }
      return true;
    }
    return false;
  }

  const std::string& path() const { return path_; }

  /// The finite number `token` spells in full, as field `field` of the
  /// current line, at most kMaxMagnitude in magnitude; throws naming the
  /// file, the line and the field otherwise.
  double number(const std::string& token, const char* field) const {
    double value = 0.0;
    if (!parseFinite(token, value)) {
      fail(field, "'" + token + "' is not a finite number");
    }
    if (std::abs(value) > kMaxMagnitude) {
      fail(field, "'" + token + "' exceeds the limit of 2^30 in magnitude");
    }
    return value;
  }

  /// Like number(), additionally requiring value > 0.
  double positive(const std::string& token, const char* field) const {
    const double value = number(token, field);
    if (value <= 0.0) {
      fail(field, "must be positive, got " + token);
    }
    return value;
  }

  /// Like number(), additionally requiring a non-negative integer.
  double count(const std::string& token, const char* field) const {
    const double value = number(token, field);
    if (value < 0.0 || value != std::floor(value)) {
      fail(field, "must be a non-negative integer, got " + token);
    }
    return value;
  }

  int line() const { return line_number_; }

  [[noreturn]] void fail(const char* field, const std::string& what) const {
    failAt(line_number_, field, what);
  }
  [[noreturn]] void failAt(int line, const char* field,
                           const std::string& what) const {
    dreamplace::fail(path_, "line " + std::to_string(line) + ": " + field +
                                ": " + what);
  }

 private:
  std::string path_;
  std::ifstream in_;
  int line_number_ = 0;
};

/// Splits on whitespace and the ':' separator (treated as its own token).
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::string current;
  for (char ch : line) {
    if (std::isspace(static_cast<unsigned char>(ch)) || ch == ':') {
      if (!current.empty()) {
        tokens.push_back(current);
        current.clear();
      }
      if (ch == ':') {
        tokens.emplace_back(":");
      }
    } else {
      current.push_back(ch);
    }
  }
  if (!current.empty()) {
    tokens.push_back(current);
  }
  return tokens;
}

/// A "<field> : n" header line, checked against the entities parsed. A
/// missing header is not an error.
struct HeaderCount {
  const char* field;
  double declared = -1.0;  ///< -1 while the header is absent.
  int line = 0;

  /// Records the header if `tokens` is this field's line.
  bool read(const LineReader& reader, const std::vector<std::string>& tokens) {
    if (tokens[0] != field) {
      return false;
    }
    if (tokens.size() < 3 || tokens[1] != ":") {
      reader.fail(field, "expected '" + std::string(field) + " : <count>'");
    }
    declared = reader.count(tokens[2], field);
    line = reader.line();
    return true;
  }

  void check(const LineReader& reader, Index parsed) const {
    if (declared >= 0.0 && declared != parsed) {
      reader.failAt(line, field,
                    "header declares " + std::to_string(Index(declared)) +
                        ", file has " + std::to_string(parsed));
    }
  }
};

struct AuxFiles {
  std::string nodes;
  std::string nets;
  std::string wts;
  std::string pl;
  std::string scl;
};

AuxFiles parseAux(const std::string& auxPath) {
  LineReader reader(auxPath);
  std::string line;
  if (!reader.next(line)) {
    fail(auxPath, "empty .aux");
  }
  AuxFiles files;
  const fs::path dir = fs::path(auxPath).parent_path();
  for (const std::string& tok : tokenize(line)) {
    const fs::path p = dir / tok;
    if (tok.ends_with(".nodes")) {
      files.nodes = p.string();
    } else if (tok.ends_with(".nets")) {
      files.nets = p.string();
    } else if (tok.ends_with(".wts")) {
      files.wts = p.string();
    } else if (tok.ends_with(".pl")) {
      files.pl = p.string();
    } else if (tok.ends_with(".scl")) {
      files.scl = p.string();
    }
  }
  if (files.nodes.empty() || files.nets.empty() || files.pl.empty() ||
      files.scl.empty()) {
    fail(auxPath, "missing .nodes/.nets/.pl/.scl reference");
  }
  return files;
}

void parseNodes(const std::string& path, Database& db,
                std::unordered_map<std::string, Index>& byName) {
  LineReader reader(path);
  std::string line;
  HeaderCount num_nodes{"NumNodes"};
  HeaderCount num_terminals{"NumTerminals"};
  Index nodes = 0;
  Index terminals = 0;
  while (reader.next(line)) {
    auto tokens = tokenize(line);
    if (tokens.empty() || num_nodes.read(reader, tokens) ||
        num_terminals.read(reader, tokens)) {
      continue;
    }
    if (tokens.size() < 3) {
      reader.fail("node", "bad node line '" + line +
                              "', expected '<name> <width> <height>'");
    }
    const bool terminal =
        tokens.size() >= 4 &&
        (tokens[3] == "terminal" || tokens[3] == "terminal_NI");
    const double width = reader.positive(tokens[1], "cell width");
    const double height = reader.positive(tokens[2], "cell height");
    const Index id = db.addCell(tokens[0], width, height, !terminal);
    byName.emplace(tokens[0], id);
    ++nodes;
    terminals += terminal ? 1 : 0;
  }
  num_nodes.check(reader, nodes);
  num_terminals.check(reader, terminals);
}

void parseNets(const std::string& path, Database& db,
               const std::unordered_map<std::string, Index>& byName) {
  LineReader reader(path);
  std::string line;
  HeaderCount num_nets{"NumNets"};
  HeaderCount num_pins{"NumPins"};
  Index nets = 0;
  Index pins = 0;
  // The open net: its NetDegree line, declared degree and pins still due.
  int net_line = 0;
  Index degree = 0;
  Index remaining = 0;
  Index current_net = kInvalidIndex;
  const auto closeNet = [&] {
    if (remaining > 0) {
      reader.failAt(net_line, "NetDegree",
                    "net '" + db.netName(current_net) + "' declares " +
                        std::to_string(degree) + " pins but has " +
                        std::to_string(degree - remaining));
    }
  };
  int anon = 0;
  while (reader.next(line)) {
    auto tokens = tokenize(line);
    if (tokens.empty() || num_nets.read(reader, tokens) ||
        num_pins.read(reader, tokens)) {
      continue;
    }
    if (tokens[0] == "NetDegree") {
      // "NetDegree : d [name]"
      if (tokens.size() < 3 || tokens[1] != ":") {
        reader.fail("NetDegree", "bad NetDegree line '" + line +
                                     "', expected 'NetDegree : <degree>'");
      }
      closeNet();
      degree = static_cast<Index>(reader.count(tokens[2], "NetDegree"));
      if (degree < 1) {
        reader.fail("NetDegree", "must be at least 1, got " + tokens[2]);
      }
      remaining = degree;
      net_line = reader.line();
      std::string name =
          tokens.size() >= 4 ? tokens[3] : ("n" + std::to_string(anon++));
      current_net = db.addNet(std::move(name));
      ++nets;
      continue;
    }
    // Pin line: "cellName I/O/B : offx offy" (offsets optional).
    if (current_net == kInvalidIndex || remaining <= 0) {
      reader.fail("pin", "pin line outside a net: '" + line + "'");
    }
    auto it = byName.find(tokens[0]);
    if (it == byName.end()) {
      reader.fail("cell name", "unknown cell in net: " + tokens[0]);
    }
    double offx = 0.0;
    double offy = 0.0;
    // Find the ':' then read two numbers if present.
    for (size_t i = 1; i + 2 < tokens.size() + 0u; ++i) {
      if (tokens[i] == ":") {
        if (i + 2 < tokens.size()) {
          offx = reader.number(tokens[i + 1], "pin offset x");
          offy = reader.number(tokens[i + 2], "pin offset y");
        }
        break;
      }
    }
    db.addPin(current_net, it->second, offx, offy);
    --remaining;
    ++pins;
  }
  closeNet();
  num_nets.check(reader, nets);
  num_pins.check(reader, pins);
}

void parseWts(const std::string& path, Database&) {
  // Net weights in ISPD 2005 .wts files are uniformly 1; the file is parsed
  // for format validation but weights stay at their default.
  if (!fs::exists(path)) {
    return;
  }
  LineReader reader(path);
  std::string line;
  while (reader.next(line)) {
    // No-op.
  }
}

void parsePl(const std::string& path, Database& db,
             const std::unordered_map<std::string, Index>& byName) {
  LineReader reader(path);
  std::string line;
  while (reader.next(line)) {
    auto tokens = tokenize(line);
    if (tokens.size() < 3) {
      continue;
    }
    auto it = byName.find(tokens[0]);
    if (it == byName.end()) {
      reader.fail("cell name", "unknown cell in .pl: " + tokens[0]);
    }
    db.setCellPosition(it->second, reader.number(tokens[1], "x"),
                       reader.number(tokens[2], "y"));
  }
}

void parseScl(const std::string& path, Database& db) {
  LineReader reader(path);
  std::string line;
  Row row;
  bool in_row = false;
  double num_sites = 0;
  int num_sites_line = 0;
  double min_x = 0;
  double min_y = 0;
  double max_x = 0;
  double max_y = 0;
  HeaderCount num_rows{"NumRows"};
  Index rows = 0;
  while (reader.next(line)) {
    auto tokens = tokenize(line);
    if (tokens.empty() || num_rows.read(reader, tokens)) {
      continue;
    }
    if (tokens[0] == "CoreRow") {
      in_row = true;
      row = Row{};
      num_sites = 0;
      continue;
    }
    if (!in_row) {
      continue;
    }
    if (tokens[0] == "End") {
      row.xh = row.xl + num_sites * row.siteWidth;
      if (std::abs(row.xh) > kMaxMagnitude) {
        reader.failAt(num_sites_line, "NumSites",
                      "row ends at x = " + std::to_string(row.xh) +
                          ", beyond the limit of 2^30");
      }
      db.addRow(row);
      if (rows++ == 0) {
        min_x = row.xl;
        min_y = row.y;
        max_x = row.xh;
        max_y = row.y + row.height;
      } else {
        min_x = std::min(min_x, row.xl);
        min_y = std::min(min_y, row.y);
        max_x = std::max(max_x, row.xh);
        max_y = std::max(max_y, row.y + row.height);
      }
      in_row = false;
      continue;
    }
    if (tokens[0] == "Coordinate" && tokens.size() >= 3) {
      row.y = reader.number(tokens[2], "Coordinate");
    } else if (tokens[0] == "Height" && tokens.size() >= 3) {
      row.height = reader.positive(tokens[2], "Height");
    } else if ((tokens[0] == "Sitewidth" || tokens[0] == "Sitespacing") &&
               tokens.size() >= 3) {
      row.siteWidth = reader.positive(tokens[2], tokens[0].c_str());
    } else if (tokens[0] == "SubrowOrigin" && tokens.size() >= 3) {
      row.xl = reader.number(tokens[2], "SubrowOrigin");
      // "SubrowOrigin : x NumSites : n" may share a line.
      for (size_t i = 3; i + 2 < tokens.size(); ++i) {
        if (tokens[i] == "NumSites" && tokens[i + 1] == ":") {
          num_sites = reader.positive(tokens[i + 2], "NumSites");
          num_sites_line = reader.line();
        }
      }
    } else if (tokens[0] == "NumSites" && tokens.size() >= 3) {
      num_sites = reader.positive(tokens[2], "NumSites");
      num_sites_line = reader.line();
    }
  }
  num_rows.check(reader, rows);
  if (rows == 0) {
    fail(path, "no rows found");
  }
  db.setDieArea({min_x, min_y, max_x, max_y});
}

}  // namespace

void readPlacement(Database& db, const std::string& plPath) {
  DP_ASSERT_MSG(db.finalized(), "readPlacement needs a finalized database");
  LineReader reader(plPath);
  std::string line;
  while (reader.next(line)) {
    auto tokens = tokenize(line);
    if (tokens.size() < 3) {
      continue;
    }
    const Index cell = db.findCell(tokens[0]);
    if (cell == kInvalidIndex) {
      reader.fail("cell name", "unknown cell in .pl: " + tokens[0]);
    }
    db.setCellPosition(cell, reader.number(tokens[1], "x"),
                       reader.number(tokens[2], "y"));
  }
}

std::unique_ptr<Database> readBookshelf(const std::string& auxPath) {
  ScopedTimer timer("io/read");
  const AuxFiles files = parseAux(auxPath);
  auto db = std::make_unique<Database>();
  std::unordered_map<std::string, Index> byName;
  parseNodes(files.nodes, *db, byName);
  parseNets(files.nets, *db, byName);
  if (!files.wts.empty()) {
    parseWts(files.wts, *db);
  }
  parseScl(files.scl, *db);
  parsePl(files.pl, *db, byName);
  db->finalize();
  // Movable-first reordering invalidates byName indices, so positions were
  // set pre-finalize; re-resolve nothing here.
  logInfo("bookshelf: loaded %d cells (%d movable), %d nets, %d pins",
          db->numCells(), db->numMovable(), db->numNets(), db->numPins());
  return db;
}

}  // namespace dreamplace
