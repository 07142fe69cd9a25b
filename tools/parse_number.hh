#pragma once

// Strict number parsing for the command-line tools: the whole argument must
// be one number of type T.  std::from_chars rejects empty text, leading
// space, trailing text, a '-' on an unsigned type and a value outside T's
// range, so garbage is an error instead of being read as 0 or wrapped.

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>

namespace ascoma::cli {

template <typename T>
std::optional<T> parse_number(std::string_view s) {
  T value{};
  const char* last = s.data() + s.size();
  const auto r = std::from_chars(s.data(), last, value);
  if (r.ec != std::errc{} || r.ptr != last) return std::nullopt;
  return value;
}

}  // namespace ascoma::cli
