#include "io/bookshelf_reader.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string_view>
#include <system_error>
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

/// How the line walk treats a byte.
enum class CharClass : unsigned char {
  kToken,
  kBlank,
  kColon,
  kNewline,
  kHash
};

/// CharClass of every byte: C-locale whitespace other than '\n' is blank,
/// ':' separates and is a token of its own, '#' starts a comment.
constexpr std::array<CharClass, 256> kCharClass = [] {
  std::array<CharClass, 256> table{};
  for (const char ch : {' ', '\t', '\r', '\v', '\f'}) {
    table[static_cast<unsigned char>(ch)] = CharClass::kBlank;
  }
  table[':'] = CharClass::kColon;
  table['\n'] = CharClass::kNewline;
  table['#'] = CharClass::kHash;
  return table;
}();

CharClass classOf(char ch) {
  return kCharClass[static_cast<unsigned char>(ch)];
}

/// A whole file read into one buffer and walked line by line in one pass:
/// strips comments (#), skips blank lines and the "UCLA <kind> 1.0" header,
/// and splits each remaining line on whitespace and ':' (':' is a token of
/// its own). Tracks the 1-based number of the current line, for error
/// messages. The tokens view the buffer, and each parse function owns its
/// reader, so no file's bytes outlive its parse.
class LineReader {
 public:
  explicit LineReader(const std::string& path) : path_(path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      dreamplace::fail(path, "cannot open");
    }
    std::error_code size_error;
    const auto size = fs::file_size(path, size_error);
    if (!size_error) {
      text_.reserve(size);
    }
    char chunk[1 << 16];
    while (in.read(chunk, sizeof chunk), in.gcount() > 0) {
      text_.append(chunk, static_cast<std::size_t>(in.gcount()));
    }
  }

  /// Advances to the next line that has a token, skipping the UCLA
  /// header; false at the end.
  bool next() {
    const char* p = text_.data() + pos_;
    const char* const end = text_.data() + text_.size();
    while (p != end) {
      ++line_number_;
      tokens_.clear();
      while (p != end) {
        const CharClass kind = classOf(*p);
        if (kind == CharClass::kToken) {
          const char* const start = p;
          while (++p != end && classOf(*p) == CharClass::kToken) {
          }
          tokens_.emplace_back(start, p - start);
        } else if (kind == CharClass::kBlank) {
          ++p;
        } else if (kind == CharClass::kColon) {
          tokens_.emplace_back(p++, 1);
        } else {
          if (kind == CharClass::kHash) {
            p = std::find(p, end, '\n');
          }
          break;
        }
      }
      if (p != end) {
        ++p;  // the '\n'
      }
      if (!tokens_.empty() && !tokens_.front().starts_with("UCLA")) {
        pos_ = p - text_.data();
        line_ = std::string_view(tokens_.front().data(),
                                 tokens_.back().data() +
                                     tokens_.back().size() -
                                     tokens_.front().data());
        return true;
      }
    }
    pos_ = text_.size();
    return false;
  }

  /// The current line's tokens (never empty after next() returned true).
  const std::vector<std::string_view>& tokens() const { return tokens_; }
  /// The current line, comment and surrounding blanks stripped.
  std::string lineText() const { return std::string(line_); }
  std::size_t bytes() const { return text_.size(); }

  /// The finite number `token` spells in full (see bookshelf_reader.h), as
  /// field `field` of the current line, at most kMaxMagnitude in magnitude;
  /// throws naming the file, the line and the field otherwise.
  double number(std::string_view token, const char* field) const {
    double value = 0.0;
    if (!parseFinite(token, value)) {
      fail(field, "'" + std::string(token) + "' is not a finite number");
    }
    if (std::abs(value) > kMaxMagnitude) {
      fail(field, "'" + std::string(token) +
                      "' exceeds the limit of 2^30 in magnitude");
    }
    return value;
  }

  /// Like number(), additionally requiring value > 0.
  double positive(std::string_view token, const char* field) const {
    const double value = number(token, field);
    if (value <= 0.0) {
      fail(field, "must be positive, got " + std::string(token));
    }
    return value;
  }

  /// Like number(), additionally requiring a non-negative integer.
  double count(std::string_view token, const char* field) const {
    const double value = number(token, field);
    if (value < 0.0 || value != std::floor(value)) {
      fail(field, "must be a non-negative integer, got " + std::string(token));
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
  std::string text_;
  std::size_t pos_ = 0;
  int line_number_ = 0;
  std::string_view line_;
  std::vector<std::string_view> tokens_;
};

/// Cell name -> index, looked up by string_view without building a key.
struct NameHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view name) const noexcept {
    return std::hash<std::string_view>{}(name);
  }
};
using NameMap =
    std::unordered_map<std::string, Index, NameHash, std::equal_to<>>;

/// A "<field> : n" header line, checked against the entities parsed. A
/// missing header is not an error.
struct HeaderCount {
  const char* field;
  double declared = -1.0;  ///< -1 while the header is absent.
  int line = 0;

  /// Records the header if the reader's current line is this field's.
  bool read(const LineReader& reader) {
    const auto& tokens = reader.tokens();
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
  if (!reader.next()) {
    fail(auxPath, "empty .aux");
  }
  AuxFiles files;
  const fs::path dir = fs::path(auxPath).parent_path();
  for (const std::string_view tok : reader.tokens()) {
    const std::string p = (dir / tok).string();
    if (tok.ends_with(".nodes")) {
      files.nodes = p;
    } else if (tok.ends_with(".nets")) {
      files.nets = p;
    } else if (tok.ends_with(".wts")) {
      files.wts = p;
    } else if (tok.ends_with(".pl")) {
      files.pl = p;
    } else if (tok.ends_with(".scl")) {
      files.scl = p;
    }
  }
  if (files.nodes.empty() || files.nets.empty() || files.pl.empty() ||
      files.scl.empty()) {
    fail(auxPath, "missing .nodes/.nets/.pl/.scl reference");
  }
  return files;
}

/// Adds the .nodes cells to `db`, their names to `byName` and, per cell,
/// whether it is a terminal (fixed) to `fixed`.
void parseNodes(const std::string& path, Database& db, NameMap& byName,
                std::vector<char>& fixed) {
  LineReader reader(path);
  HeaderCount num_nodes{"NumNodes"};
  HeaderCount num_terminals{"NumTerminals"};
  Index nodes = 0;
  Index terminals = 0;
  while (reader.next()) {
    const auto& tokens = reader.tokens();
    if (num_nodes.read(reader)) {
      // A node line takes at least 5 bytes ("a 1 1"), so a hostile header
      // cannot reserve more than the file could hold.
      byName.reserve(std::min(static_cast<std::size_t>(num_nodes.declared),
                              reader.bytes() / 5));
      continue;
    }
    if (num_terminals.read(reader)) {
      continue;
    }
    if (tokens.size() < 3) {
      reader.fail("node", "bad node line '" + reader.lineText() +
                              "', expected '<name> <width> <height>'");
    }
    const bool terminal =
        tokens.size() >= 4 &&
        (tokens[3] == "terminal" || tokens[3] == "terminal_NI");
    const double width = reader.positive(tokens[1], "cell width");
    const double height = reader.positive(tokens[2], "cell height");
    const auto [it, inserted] =
        byName.try_emplace(std::string(tokens[0]), db.numCells());
    if (!inserted) {
      reader.fail("node name", "duplicate cell name '" + it->first + "'");
    }
    db.addCell(it->first, width, height, !terminal);
    fixed.push_back(terminal ? 1 : 0);
    ++nodes;
    terminals += terminal ? 1 : 0;
  }
  num_nodes.check(reader, nodes);
  num_terminals.check(reader, terminals);
  if (nodes == 0) {
    fail(path, "no nodes found");
  }
}

void parseNets(const std::string& path, Database& db, const NameMap& byName) {
  LineReader reader(path);
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
  while (reader.next()) {
    const auto& tokens = reader.tokens();
    if (num_nets.read(reader) || num_pins.read(reader)) {
      continue;
    }
    if (tokens[0] == "NetDegree") {
      // "NetDegree : d [name]"
      if (tokens.size() < 3 || tokens[1] != ":") {
        reader.fail("NetDegree", "bad NetDegree line '" + reader.lineText() +
                                     "', expected 'NetDegree : <degree>'");
      }
      closeNet();
      degree = static_cast<Index>(reader.count(tokens[2], "NetDegree"));
      if (degree < 1) {
        reader.fail("NetDegree",
                    "must be at least 1, got " + std::string(tokens[2]));
      }
      remaining = degree;
      net_line = reader.line();
      current_net = db.addNet(tokens.size() >= 4
                                  ? std::string(tokens[3])
                                  : "n" + std::to_string(anon++));
      ++nets;
      continue;
    }
    // Pin line: "cellName I/O/B : offx offy" (offsets optional).
    if (current_net == kInvalidIndex || remaining <= 0) {
      reader.fail("pin", "pin line outside a net: '" + reader.lineText() + "'");
    }
    const auto it = byName.find(tokens[0]);
    if (it == byName.end()) {
      reader.fail("cell name",
                  "unknown cell in net: " + std::string(tokens[0]));
    }
    double offx = 0.0;
    double offy = 0.0;
    // The first ':' followed by two tokens introduces the offsets.
    for (std::size_t i = 1; i + 2 < tokens.size(); ++i) {
      if (tokens[i] == ":") {
        offx = reader.number(tokens[i + 1], "pin offset x");
        offy = reader.number(tokens[i + 2], "pin offset y");
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
  while (reader.next()) {
    // No-op.
  }
}

/// Sets the position of each cell a .pl line names; `find` maps a name to
/// its index or kInvalidIndex. A cell named twice throws, and so does
/// every cell with `required[cell]` set that no line names. When
/// `required` is given, the other cells no line names (movable ones) keep
/// their default position, and one warning counts them.
template <typename Find>
void readPositions(const std::string& path, Database& db, Find find,
                   const std::vector<char>& required = {}) {
  LineReader reader(path);
  std::vector<int> placed_on(db.numCells(), 0);
  while (reader.next()) {
    const auto& tokens = reader.tokens();
    if (tokens.size() < 3) {
      continue;
    }
    const Index cell = find(tokens[0]);
    if (cell == kInvalidIndex) {
      reader.fail("cell name",
                  "unknown cell in .pl: " + std::string(tokens[0]));
    }
    if (placed_on[cell] != 0) {
      reader.fail("cell name", "cell '" + std::string(tokens[0]) +
                                   "' placed again (first on line " +
                                   std::to_string(placed_on[cell]) + ")");
    }
    placed_on[cell] = reader.line();
    db.setCellPosition(cell, reader.number(tokens[1], "x"),
                       reader.number(tokens[2], "y"));
  }
  std::size_t unplaced = 0;
  std::size_t first_unplaced = 0;
  for (std::size_t i = 0; i < required.size(); ++i) {
    if (placed_on[i] != 0) {
      continue;
    }
    if (required[i]) {
      reader.fail("cell name",
                  "the file ends before fixed cell '" +
                      db.cellName(static_cast<Index>(i)) + "' is placed");
    }
    if (unplaced++ == 0) {
      first_unplaced = i;
    }
  }
  if (unplaced > 0) {
    logWarn("bookshelf: %s: movable cells not placed: %zu (first: '%s'); "
            "they keep their default position",
            path.c_str(), unplaced,
            db.cellName(static_cast<Index>(first_unplaced)).c_str());
  }
}

void parseScl(const std::string& path, Database& db) {
  LineReader reader(path);
  Row row;
  bool in_row = false;
  double num_sites = 0;
  int num_sites_line = 0;
  // Sitewidth is a site's width, Sitespacing the pitch between sites.
  double site_width = 0;
  double site_spacing = 0;
  int site_width_line = 0;
  double min_x = 0;
  double min_y = 0;
  double max_x = 0;
  double max_y = 0;
  HeaderCount num_rows{"NumRows"};
  Index rows = 0;
  while (reader.next()) {
    const auto& tokens = reader.tokens();
    if (num_rows.read(reader)) {
      continue;
    }
    if (tokens[0] == "CoreRow") {
      in_row = true;
      row = Row{};
      num_sites = 0;
      site_width = 0;
      site_spacing = 0;
      continue;
    }
    if (!in_row) {
      continue;
    }
    if (tokens[0] == "End") {
      if (site_spacing > 0 && site_width > site_spacing) {
        reader.failAt(site_width_line, "Sitewidth",
                      std::to_string(site_width) + " exceeds Sitespacing " +
                          std::to_string(site_spacing));
      }
      const double pitch = site_spacing > 0 ? site_spacing : site_width;
      if (pitch > 0) {
        row.siteWidth = pitch;
      }
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
    } else if (tokens[0] == "Sitewidth" && tokens.size() >= 3) {
      site_width = reader.positive(tokens[2], "Sitewidth");
      site_width_line = reader.line();
    } else if (tokens[0] == "Sitespacing" && tokens.size() >= 3) {
      site_spacing = reader.positive(tokens[2], "Sitespacing");
    } else if (tokens[0] == "SubrowOrigin" && tokens.size() >= 3) {
      row.xl = reader.number(tokens[2], "SubrowOrigin");
      // "SubrowOrigin : x NumSites : n" may share a line.
      for (std::size_t i = 3; i + 2 < tokens.size(); ++i) {
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
  readPositions(plPath, db,
                [&db](std::string_view name) { return db.findCell(name); });
}

std::unique_ptr<Database> readBookshelf(const std::string& auxPath) {
  ScopedTimer timer("io/read");
  const AuxFiles files = parseAux(auxPath);
  auto db = std::make_unique<Database>();
  db->setName(fs::path(auxPath).stem().string());
  NameMap byName;
  std::vector<char> fixed;
  parseNodes(files.nodes, *db, byName, fixed);
  parseNets(files.nets, *db, byName);
  if (!files.wts.empty()) {
    parseWts(files.wts, *db);
  }
  parseScl(files.scl, *db);
  // Movable-first reordering in finalize() invalidates byName's indices,
  // so positions are set before it.
  readPositions(
      files.pl, *db,
      [&byName](std::string_view name) {
        const auto it = byName.find(name);
        return it == byName.end() ? kInvalidIndex : it->second;
      },
      fixed);
  db->finalize();
  logInfo("bookshelf: loaded %d cells (%d movable), %d nets, %d pins",
          db->numCells(), db->numMovable(), db->numNets(), db->numPins());
  return db;
}

}  // namespace dreamplace
