// Checked number parsing for user input: Bookshelf fields, command-line
// flags and example arguments. A token is accepted only when it spells
// one number in full, so "abc", "12x" and "" are errors, never a silent 0.
#pragma once

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace dreamplace {

/// True when `token` spells one finite number in full; stores it in
/// `value`. The syntax is std::from_chars' decimal form (digits with an
/// optional '.', fraction and exponent, as in "-0", ".5", "5." or "1e-310")
/// after at most one leading '+'. Hex floats, leading or trailing
/// whitespace, nan, inf and magnitudes beyond double's range are rejected;
/// subnormals are accepted. The result is correctly rounded, so it equals
/// std::stod's bit for bit wherever both accept the token.
inline bool parseFinite(std::string_view token, double& value) {
  if (token.starts_with('+')) {
    token.remove_prefix(1);
    if (token.starts_with('+') || token.starts_with('-')) {
      return false;
    }
  }
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  return !token.empty() && ec == std::errc() && ptr == end &&
         std::isfinite(value);
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
