// Numeric flag values for the m4* command-line tools.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace meissa::util {

// Parses all of `s` as a T. An integral T takes a non-negative decimal
// integer that fits it: a sign, whitespace, a radix prefix, trailing
// characters and overflow all give nullopt. A floating-point T takes a
// finite number with nothing after it.
template <typename T>
std::optional<T> parse_number(std::string_view s) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [stop, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || stop != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) return std::nullopt;
  } else if (s[0] == '-') {
    return std::nullopt;
  }
  return v;
}

// Parses argv[i + 1], the value of numeric flag argv[i], into `out` with
// parse_number and advances i past it. A malformed value leaves `out`
// alone, prints "<tool>: <flag> expects ..., got '<value>'" and returns
// false; the caller then prints its usage. argv[i + 1] must exist.
template <typename T>
bool parse_flag(char** argv, int& i, T& out) {
  const char* flag = argv[i];
  const char* value = argv[++i];
  if (std::optional<T> v = parse_number<T>(value)) {
    out = *v;
    return true;
  }
  std::string_view tool = argv[0];
  tool.remove_prefix(tool.rfind('/') + 1);  // npos + 1 == 0: no directory
  std::fprintf(stderr, "%.*s: %s expects %s, got '%s'\n",
               static_cast<int>(tool.size()), tool.data(), flag,
               std::is_floating_point_v<T> ? "a number"
                                           : "a non-negative integer",
               value);
  return false;
}

}  // namespace meissa::util
