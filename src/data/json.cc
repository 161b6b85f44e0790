#include "data/json.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "core/string_util.h"

namespace promptem::data {

namespace {

/// Deepest array/object nesting accepted. Far above any record, request
/// or run-log line, and low enough that the recursive descent cannot
/// exhaust a thread's stack on hostile input.
constexpr int kMaxDepth = 256;

/// Recursive-descent JSON parser over a string_view cursor.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  core::Result<Value> Parse() {
    SkipWhitespace();
    core::Result<Value> value = ParseValue();
    if (!value.ok()) return value;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return value;
  }

 private:
  core::Status Error(const std::string& message) const {
    return core::Status::InvalidArgument(
        core::StrFormat("JSON error at offset %zu: %s", pos_,
                        message.c_str()));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  core::Result<Value> ParseValue() {
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) {
          return Error(core::StrFormat("nesting deeper than %d", kMaxDepth));
        }
        ++depth_;
        core::Result<Value> nested = c == '{' ? ParseObject() : ParseArray();
        --depth_;
        return nested;
      }
      case '"': {
        core::Result<std::string> s = ParseString();
        if (!s.ok()) return s.status();
        return Value::Str(std::move(s).value());
      }
      case 't':
        if (ConsumeLiteral("true")) return Value::Num(1);
        return Error("bad literal");
      case 'f':
        if (ConsumeLiteral("false")) return Value::Num(0);
        return Error("bad literal");
      case 'n':
        if (ConsumeLiteral("null")) return Value::Str("");
        return Error("bad literal");
      default:
        return ParseNumber();
    }
  }

  core::Result<Value> ParseObject() {
    PROMPTEM_CHECK(Consume('{'));
    std::vector<std::pair<std::string, Value>> fields;
    SkipWhitespace();
    if (Consume('}')) return Value::Object(std::move(fields));
    for (;;) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key string");
      }
      core::Result<std::string> key = ParseString();
      if (!key.ok()) return key.status();
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after key");
      SkipWhitespace();
      core::Result<Value> value = ParseValue();
      if (!value.ok()) return value;
      // Last duplicate key wins.
      bool replaced = false;
      for (auto& [name, existing] : fields) {
        if (name == key.value()) {
          existing = std::move(value).value();
          replaced = true;
          break;
        }
      }
      if (!replaced) {
        fields.emplace_back(std::move(key).value(), std::move(value).value());
      }
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return Value::Object(std::move(fields));
      return Error("expected ',' or '}' in object");
    }
  }

  core::Result<Value> ParseArray() {
    PROMPTEM_CHECK(Consume('['));
    std::vector<Value> items;
    SkipWhitespace();
    if (Consume(']')) return Value::List(std::move(items));
    for (;;) {
      SkipWhitespace();
      core::Result<Value> value = ParseValue();
      if (!value.ok()) return value;
      items.push_back(std::move(value).value());
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return Value::List(std::move(items));
      return Error("expected ',' or ']' in array");
    }
  }

  /// Reads the four hex digits of a \uXXXX escape (cursor past "\u").
  core::Result<unsigned> ParseHex4() {
    if (pos_ + 4 > text_.size()) {
      return core::Status::InvalidArgument("truncated \\u escape");
    }
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') {
        code += static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        code += static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        code += static_cast<unsigned>(h - 'A' + 10);
      } else {
        return core::Status::InvalidArgument("bad \\u escape digit");
      }
    }
    return code;
  }

  core::Result<std::string> ParseString() {
    PROMPTEM_CHECK(Consume('"'));
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          core::Result<unsigned> unit = ParseHex4();
          if (!unit.ok()) return unit.status();
          unsigned code = unit.value();
          if (code >= 0xDC00 && code <= 0xDFFF) {
            return core::Status::InvalidArgument(
                "unpaired low surrogate in \\u escape");
          }
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: must be immediately followed by "\uDC00".."
            // \uDFFF"; the pair combines to one non-BMP code point.
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return core::Status::InvalidArgument(
                  "unpaired high surrogate in \\u escape");
            }
            pos_ += 2;
            core::Result<unsigned> low = ParseHex4();
            if (!low.ok()) return low.status();
            if (low.value() < 0xDC00 || low.value() > 0xDFFF) {
              return core::Status::InvalidArgument(
                  "high surrogate not followed by low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low.value() - 0xDC00);
          }
          // UTF-8 encode the code point (1-4 bytes).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else if (code < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xF0 | (code >> 18)));
            out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return core::Status::InvalidArgument("unknown escape");
      }
    }
    return core::Status::InvalidArgument("unterminated string");
  }

  core::Result<Value> ParseNumber() {
    const size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool any_digit = false;
    auto eat_digits = [&]() {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        any_digit = true;
      }
    };
    eat_digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      eat_digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() &&
          (text_[pos_] == '-' || text_[pos_] == '+')) {
        ++pos_;
      }
      eat_digits();
    }
    if (!any_digit) return Error("invalid number");
    const std::string token(text_.substr(start, pos_ - start));
    return Value::Num(std::strtod(token.c_str(), nullptr));
  }

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;  // open arrays/objects enclosing the cursor
};

void EscapeInto(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out->append(core::StrFormat("\\u%04x", c));
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void ValueToJson(const Value& value, std::string* out) {
  switch (value.kind()) {
    case Value::Kind::kString:
      EscapeInto(value.as_string(), out);
      return;
    case Value::Kind::kNumber:
      out->append(value.NumberToString());
      return;
    case Value::Kind::kList: {
      out->push_back('[');
      bool first = true;
      for (const auto& item : value.as_list()) {
        if (!first) out->push_back(',');
        first = false;
        ValueToJson(item, out);
      }
      out->push_back(']');
      return;
    }
    case Value::Kind::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [name, item] : value.as_object()) {
        if (!first) out->push_back(',');
        first = false;
        EscapeInto(name, out);
        out->push_back(':');
        ValueToJson(item, out);
      }
      out->push_back('}');
      return;
    }
  }
}

}  // namespace

core::Result<Value> ParseJson(std::string_view text) {
  return JsonParser(text).Parse();
}

core::Result<Record> ParseJsonRecord(std::string_view text) {
  core::Result<Value> value = ParseJson(text);
  if (!value.ok()) return value.status();
  if (!value.value().is_object()) {
    return core::Status::InvalidArgument(
        "JSON record must be a top-level object");
  }
  return Record::SemiStructured(value.value().as_object());
}

std::string ToJson(const Value& value) {
  std::string out;
  ValueToJson(value, &out);
  return out;
}

std::string RecordToJson(const Record& record) {
  if (record.format == RecordFormat::kTextual) {
    return ToJson(Value::Object({{"text", Value::Str(record.text)}}));
  }
  return ToJson(Value::Object(record.attrs));
}

}  // namespace promptem::data
