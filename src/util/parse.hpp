#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace qcongest::util {

/// Strict parsers for numbers from JobSpecs and command lines. Each takes
/// the whole of `text` or nothing: on a reject it returns false and leaves
/// *out as it was. None skips whitespace or takes a sign, so "-1" is not
/// 2^64 - 1, "4x" is not 4 and "abc" is not 0.

/// One to twenty decimal digits whose value fits in 64 bits.
bool parse_u64(std::string_view text, std::uint64_t* out);

/// parse_u64, stored as a std::size_t.
bool parse_size(std::string_view text, std::size_t* out);

/// A non-negative decimal of at most 18 characters: digits with at most
/// one '.', and at least one digit ("0.05", "2", "3.", ".5"). No sign, no
/// exponent.
bool parse_decimal(std::string_view text, double* out);

/// parse_decimal, then at most 1.
bool parse_prob(std::string_view text, double* out);

}  // namespace qcongest::util
