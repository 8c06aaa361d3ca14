// Checked number parsing for user input: Bookshelf fields, command-line
// flags and example arguments. A token is accepted only when it spells
// one number in full, so "abc", "12x" and "" are errors, never a silent 0.
#pragma once

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace dreamplace {

/// True when `token` spells one finite number in full (std::stod syntax);
/// stores it in `value`.
inline bool parseFinite(const std::string& token, double& value) {
  std::size_t used = 0;
  try {
    value = std::stod(token, &used);
  } catch (const std::exception&) {
    return false;
  }
  return used != 0 && used == token.size() && std::isfinite(value);
}

/// `token` as a T; `what` names the input (a flag or an argument) in the
/// error. A floating T takes any finite number, an integral T a whole
/// number in its range. Throws std::invalid_argument otherwise.
template <typename T>
T parseNumber(const std::string& token, const std::string& what) {
  if constexpr (std::is_integral_v<T>) {
    T value{};
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, value);
    if (token.empty() || ec != std::errc() || ptr != end) {
      throw std::invalid_argument(what + ": '" + token +
                                  "' is not an integer in range");
    }
    return value;
  } else {
    double value = 0.0;
    if (!parseFinite(token, value)) {
      throw std::invalid_argument(what + ": '" + token +
                                  "' is not a finite number");
    }
    return static_cast<T>(value);
  }
}

}  // namespace dreamplace
