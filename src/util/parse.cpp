#include "src/util/parse.hpp"

#include <string>

namespace qcongest::util {

bool parse_u64(std::string_view text, std::uint64_t* out) {
  if (text.empty() || text.size() > 20) return false;
  std::uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;  // overflow
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

bool parse_size(std::string_view text, std::size_t* out) {
  std::uint64_t v = 0;
  if (!parse_u64(text, &v)) return false;
  *out = static_cast<std::size_t>(v);
  return true;
}

bool parse_decimal(std::string_view text, double* out) {
  if (text.empty() || text.size() > 18) return false;
  bool seen_dot = false, seen_digit = false;
  for (char c : text) {
    if (c == '.') {
      if (seen_dot) return false;
      seen_dot = true;
    } else if (c >= '0' && c <= '9') {
      seen_digit = true;
    } else {
      return false;
    }
  }
  if (!seen_digit) return false;
  *out = std::stod(std::string(text));
  return true;
}

bool parse_prob(std::string_view text, double* out) {
  double value = 0.0;
  if (!parse_decimal(text, &value) || value > 1.0) return false;
  *out = value;
  return true;
}

}  // namespace qcongest::util
