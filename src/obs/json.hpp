#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace qcongest::obs {

/// Escape `text` for inclusion inside a JSON string literal (the
/// surrounding quotes are the caller's). Every control character
/// U+0000..U+001F is escaped — \b \f \n \r \t by their short forms, the
/// rest as \u00XX — and the bytes are validated as UTF-8: well-formed
/// multi-byte sequences pass through unchanged, while each byte of a
/// malformed sequence (bad lead or continuation byte, truncated sequence,
/// overlong encoding, surrogate code point, > U+10FFFF) is replaced by an
/// escaped U+FFFD replacement character. No input can produce invalid
/// JSON, and escaping is deterministic byte-for-byte.
std::string json_escape(std::string_view text);

/// Render a double as a JSON token with `precision` significant digits.
/// JSON has no representation for NaN or the infinities (RFC 8259 §6);
/// non-finite values render as `null` so the document always parses —
/// callers that care can warn via JsonWriter::non_finite_values().
std::string json_number(double value, int precision = 12);

/// Validate that `text` is one complete JSON value (RFC 8259 grammar,
/// depth-limited). On failure returns false and, when `error` is non-null,
/// stores the byte offset and reason. This is the report writers' own
/// round-trip check; CI additionally validates with python3 -m json.tool.
bool json_valid(std::string_view text, std::string* error = nullptr);

/// Small deterministic JSON builder: explicit begin/end for containers,
/// two-space indentation, keys emitted in caller order. Everything the
/// report layer serializes is visited in sorted (std::map / explicit)
/// order, so two writers fed the same data produce byte-identical
/// documents on every platform — the determinism contract of DESIGN.md §10.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  /// Key of the next value; only valid directly inside an object.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }
  JsonWriter& value(bool flag);
  JsonWriter& value(double number);
  JsonWriter& value(std::uint64_t number);
  JsonWriter& value(std::int64_t number);
  // size_t is uint64_t on every platform we build for; int goes through the
  // int32_t overload so integer literals never fall into value(double).
  JsonWriter& value(std::int32_t number) {
    return value(static_cast<std::int64_t>(number));
  }
  JsonWriter& null();

  /// How many non-finite doubles were serialized as null so far.
  std::size_t non_finite_values() const { return non_finite_; }

  /// The document built so far (call after the outermost end_*).
  const std::string& str() const { return out_; }

 private:
  void begin_value();

  std::string out_;
  std::vector<char> stack_;  // '{' or '[' per open container
  std::vector<bool> first_;  // no comma needed yet in this container
  bool after_key_ = false;
  std::size_t non_finite_ = 0;
};

}  // namespace qcongest::obs
