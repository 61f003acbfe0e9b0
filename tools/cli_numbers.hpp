// Strict flag-value parsing shared by the command-line tools (fenix_replay,
// fenix_chaos). A value is parsed whole: trailing text, a sign where none is
// allowed, or a value out of range is a typed usage error — one diagnostic
// line and exit code 2 — never a silent 0 or a wrapped-around count.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <system_error>

namespace fenix::cli {

/// Parses a whole flag value as a finite number in [0, max]. Anything else
/// (trailing text, a negative or out-of-range value) is nullopt.
inline std::optional<double> parse_non_negative(const char* text,
                                                double max = HUGE_VAL) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value) || value < 0.0 ||
      value > max) {
    return std::nullopt;
  }
  return value;
}

/// Parses a whole flag value as a decimal integer in [min, max]. Anything
/// else (a sign, a fraction or exponent, trailing text, a value that does
/// not fit) is nullopt.
inline std::optional<std::uint64_t> parse_integer(
    const char* text, std::uint64_t min = 0,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  const char* end = text + std::strlen(text);
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || value < min || value > max) {
    return std::nullopt;
  }
  return value;
}

/// Parses a whole flag value as an integer count >= 1.
inline std::optional<std::uint64_t> parse_count(const char* text) {
  return parse_integer(text, 1);
}

/// The typed usage error of a bad flag value: one line naming the tool, the
/// flag, the value and what it must be, then exit code 2.
inline int invalid_flag(const char* tool, const std::string& flag,
                        const char* value, const char* expected) {
  std::cerr << tool << ": invalid " << flag << " '" << value
            << "': must be " << expected << "\n";
  return 2;
}

}  // namespace fenix::cli
