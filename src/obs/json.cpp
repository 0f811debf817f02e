#include "src/obs/json.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace qcongest::obs {

namespace {

/// Decode the UTF-8 sequence starting at text[i]. Returns its length in
/// bytes (1..4) and stores the code point, or returns 0 when the sequence
/// is malformed: invalid lead byte, bad or missing continuation byte,
/// overlong encoding, surrogate code point, or above U+10FFFF.
std::size_t decode_utf8(std::string_view text, std::size_t i,
                        std::uint32_t* code_point) {
  const unsigned char lead = static_cast<unsigned char>(text[i]);
  if (lead < 0x80) {
    *code_point = lead;
    return 1;
  }
  std::size_t len = 0;
  std::uint32_t cp = 0;
  std::uint32_t min = 0;
  if ((lead & 0xE0) == 0xC0) {
    len = 2; cp = lead & 0x1Fu; min = 0x80;
  } else if ((lead & 0xF0) == 0xE0) {
    len = 3; cp = lead & 0x0Fu; min = 0x800;
  } else if ((lead & 0xF8) == 0xF0) {
    len = 4; cp = lead & 0x07u; min = 0x10000;
  } else {
    return 0;  // continuation byte or 0xF8..0xFF lead
  }
  if (i + len > text.size()) return 0;  // truncated at end of input
  for (std::size_t k = 1; k < len; ++k) {
    const unsigned char cont = static_cast<unsigned char>(text[i + k]);
    if ((cont & 0xC0) != 0x80) return 0;
    cp = (cp << 6) | (cont & 0x3Fu);
  }
  if (cp < min) return 0;                      // overlong encoding
  if (cp >= 0xD800 && cp <= 0xDFFF) return 0;  // UTF-16 surrogate
  if (cp > 0x10FFFF) return 0;
  *code_point = cp;
  return len;
}

}  // namespace

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  std::size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    const unsigned char byte = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; ++i; continue;
      case '\\': out += "\\\\"; ++i; continue;
      case '\b': out += "\\b"; ++i; continue;
      case '\f': out += "\\f"; ++i; continue;
      case '\n': out += "\\n"; ++i; continue;
      case '\r': out += "\\r"; ++i; continue;
      case '\t': out += "\\t"; ++i; continue;
      default: break;
    }
    if (byte < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(byte));
      out += buf;
      ++i;
      continue;
    }
    if (byte < 0x80) {
      out += c;
      ++i;
      continue;
    }
    std::uint32_t cp = 0;
    const std::size_t len = decode_utf8(text, i, &cp);
    if (len == 0) {
      // One escaped replacement character per malformed byte, so the
      // output stays pure ASCII and resynchronizes at the next valid lead.
      out += "\\ufffd";
      ++i;
    } else {
      out.append(text.substr(i, len));
      i += len;
    }
  }
  return out;
}

std::string json_number(double value, int precision) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
  return buf;
}

// --- JsonWriter -------------------------------------------------------------

void JsonWriter::begin_value() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (stack_.empty()) return;  // the root value
  if (!first_.back()) out_ += ',';
  first_.back() = false;
  out_ += '\n';
  out_.append(2 * stack_.size(), ' ');
}

JsonWriter& JsonWriter::begin_object() {
  begin_value();
  out_ += '{';
  stack_.push_back('{');
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  if (stack_.empty() || stack_.back() != '{') {
    throw std::logic_error("JsonWriter: end_object outside an object");
  }
  bool empty = first_.back();
  stack_.pop_back();
  first_.pop_back();
  if (!empty) {
    out_ += '\n';
    out_.append(2 * stack_.size(), ' ');
  }
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  begin_value();
  out_ += '[';
  stack_.push_back('[');
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  if (stack_.empty() || stack_.back() != '[') {
    throw std::logic_error("JsonWriter: end_array outside an array");
  }
  bool empty = first_.back();
  stack_.pop_back();
  first_.pop_back();
  if (!empty) {
    out_ += '\n';
    out_.append(2 * stack_.size(), ' ');
  }
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  if (stack_.empty() || stack_.back() != '{' || after_key_) {
    throw std::logic_error("JsonWriter: key outside an object");
  }
  begin_value();
  out_ += '"';
  out_ += json_escape(name);
  out_ += "\": ";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  begin_value();
  out_ += '"';
  out_ += json_escape(text);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(bool flag) {
  begin_value();
  out_ += flag ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(double number) {
  begin_value();
  if (!std::isfinite(number)) ++non_finite_;
  out_ += json_number(number);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t number) {
  begin_value();
  out_ += std::to_string(number);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t number) {
  begin_value();
  out_ += std::to_string(number);
  return *this;
}

JsonWriter& JsonWriter::null() {
  begin_value();
  out_ += "null";
  return *this;
}

// --- Validator --------------------------------------------------------------

namespace {

/// Recursive-descent RFC 8259 checker over a string_view. Tracks position
/// for error reporting; depth-limited so adversarial nesting cannot blow
/// the stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool parse(std::string* error) {
    bool ok = value(0) && (skip_ws(), pos_ == text_.size());
    if (!ok && error != nullptr) {
      *error = reason_.empty() ? "trailing characters" : reason_;
      *error += " at byte " + std::to_string(pos_);
    }
    return ok;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool fail(const char* why) {
    if (reason_.empty()) reason_ = why;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return fail("bad literal");
    pos_ += word.size();
    return true;
  }

  bool string() {
    if (pos_ >= text_.size() || text_[pos_] != '"') return fail("expected string");
    ++pos_;
    while (pos_ < text_.size()) {
      unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) return fail("raw control character in string");
      if (c >= 0x80) {
        std::uint32_t cp = 0;
        const std::size_t len = decode_utf8(text_, pos_, &cp);
        if (len == 0) return fail("invalid UTF-8 in string");
        pos_ += len;
        continue;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return fail("truncated escape");
        char e = text_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() || !std::isxdigit(static_cast<unsigned char>(
                                            text_[pos_]))) {
              return fail("bad \\u escape");
            }
          }
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' &&
                   e != 'n' && e != 'r' && e != 't') {
          return fail("bad escape");
        }
      }
      ++pos_;
    }
    return fail("unterminated string");
  }

  bool digits() {
    std::size_t start = pos_;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return pos_ > start || fail("expected digits");
  }

  bool number() {
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '0') {
      ++pos_;  // leading zero may not be followed by more digits
    } else if (!digits()) {
      return false;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) return false;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (!digits()) return false;
    }
    return true;
  }

  bool value(int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    char c = text_[pos_];
    if (c == '{') return object(depth);
    if (c == '[') return array(depth);
    if (c == '"') return string();
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) return number();
    return fail("unexpected character");
  }

  bool object(int depth) {
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') return fail("expected ':'");
      ++pos_;
      if (!value(depth + 1)) return false;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool array(int depth) {
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      if (!value(depth + 1)) return false;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string reason_;
};

}  // namespace

bool json_valid(std::string_view text, std::string* error) {
  return Parser(text).parse(error);
}

}  // namespace qcongest::obs
