#include "common/json.h"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdlib>

#include "common/strings.h"

namespace sparktune {

Json Json::Bool(bool b) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = b;
  return j;
}

Json Json::Number(double d) {
  Json j;
  j.type_ = Type::kNumber;
  j.number_ = d;
  return j;
}

Json Json::Str(std::string s) {
  Json j;
  j.type_ = Type::kString;
  j.string_ = std::move(s);
  return j;
}

Json Json::Array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::Object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

void Json::Append(Json v) { array_.push_back(std::move(v)); }

size_t Json::size() const {
  return type_ == Type::kArray ? array_.size() : object_.size();
}

const Json& Json::at(size_t i) const { return array_.at(i); }

void Json::Set(const std::string& key, Json v) {
  for (auto& kv : object_) {
    if (kv.first == key) {
      kv.second = std::move(v);
      return;
    }
  }
  object_.emplace_back(key, std::move(v));
}

const Json* Json::Get(const std::string& key) const {
  for (const auto& kv : object_) {
    if (kv.first == key) return &kv.second;
  }
  return nullptr;
}

double Json::GetNumberOr(const std::string& key, double fallback) const {
  const Json* v = Get(key);
  return (v != nullptr && v->is_number()) ? v->AsNumber() : fallback;
}

std::string Json::GetStringOr(const std::string& key,
                              const std::string& fallback) const {
  const Json* v = Get(key);
  return (v != nullptr && v->is_string()) ? v->AsString() : fallback;
}

bool Json::GetBoolOr(const std::string& key, bool fallback) const {
  const Json* v = Get(key);
  return (v != nullptr && v->is_bool()) ? v->AsBool() : fallback;
}

namespace {

void EscapeTo(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += StrFormat("\\u%04x", c);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void DumpTo(const Json& j, std::string* out) {
  switch (j.type()) {
    case Json::Type::kNull:
      *out += "null";
      break;
    case Json::Type::kBool:
      *out += j.AsBool() ? "true" : "false";
      break;
    case Json::Type::kNumber: {
      double d = j.AsNumber();
      if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 1e15) {
        *out += StrFormat("%lld", static_cast<long long>(d));
      } else if (std::isfinite(d)) {
        *out += StrFormat("%.17g", d);
      } else {
        *out += "null";  // JSON has no inf/nan
      }
      break;
    }
    case Json::Type::kString:
      EscapeTo(j.AsString(), out);
      break;
    case Json::Type::kArray: {
      *out += "[";
      bool first = true;
      for (const auto& e : j.elements()) {
        if (!first) *out += ",";
        first = false;
        DumpTo(e, out);
      }
      *out += "]";
      break;
    }
    case Json::Type::kObject: {
      *out += "{";
      bool first = true;
      for (const auto& [k, v] : j.items()) {
        if (!first) *out += ",";
        first = false;
        EscapeTo(k, out);
        *out += ":";
        DumpTo(v, out);
      }
      *out += "}";
      break;
    }
  }
}

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Result<Json> Parse() {
    SkipWs();
    auto v = ParseValue();
    if (!v.ok()) return v;
    SkipWs();
    if (pos_ != s_.size()) {
      return Status::InvalidArgument(
          StrFormat("trailing characters at offset %zu", pos_));
    }
    return v;
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Err(const std::string& what) {
    return Status::InvalidArgument(
        StrFormat("%s at offset %zu", what.c_str(), pos_));
  }

  Result<Json> ParseValue() {
    if (pos_ >= s_.size()) return Err("unexpected end of input");
    char c = s_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') {
      auto r = ParseString();
      if (!r.ok()) return r.status();
      return Json::Str(std::move(*r));
    }
    if (s_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return Json::Bool(true);
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return Json::Bool(false);
    }
    if (s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return Json::Null();
    }
    return ParseNumber();
  }

  Result<Json> ParseNumber() {
    size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return Err("invalid value");
    char* end = nullptr;
    std::string tok = s_.substr(start, pos_ - start);
    double d = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') return Err("invalid number");
    return Json::Number(d);
  }

  Result<std::string> ParseString() {
    if (!Consume('"')) return Err("expected '\"'");
    std::string out;
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= s_.size()) return Err("unterminated escape");
        char e = s_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return Err("bad \\u escape");
            unsigned code = std::strtoul(s_.substr(pos_, 4).c_str(), nullptr, 16);
            pos_ += 4;
            // We only emit ASCII control escapes; decode BMP to UTF-8.
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return Err("unknown escape");
        }
      } else {
        out.push_back(c);
      }
    }
    return Err("unterminated string");
  }

  Result<Json> ParseArray() {
    Consume('[');
    Json arr = Json::Array();
    SkipWs();
    if (Consume(']')) return arr;
    for (;;) {
      SkipWs();
      auto v = ParseValue();
      if (!v.ok()) return v;
      arr.Append(std::move(*v));
      SkipWs();
      if (Consume(']')) return arr;
      if (!Consume(',')) return Err("expected ',' or ']'");
    }
  }

  Result<Json> ParseObject() {
    Consume('{');
    Json obj = Json::Object();
    SkipWs();
    if (Consume('}')) return obj;
    for (;;) {
      SkipWs();
      auto key = ParseString();
      if (!key.ok()) return key.status();
      SkipWs();
      if (!Consume(':')) return Err("expected ':'");
      SkipWs();
      auto v = ParseValue();
      if (!v.ok()) return v;
      obj.Set(*key, std::move(*v));
      SkipWs();
      if (Consume('}')) return obj;
      if (!Consume(',')) return Err("expected ',' or '}'");
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

}  // namespace

std::string Json::Dump() const {
  std::string out;
  DumpTo(*this, &out);
  return out;
}

Result<Json> Json::Parse(const std::string& text) {
  return Parser(text).Parse();
}

Json U64ToJson(uint64_t v) {
  return Json::Str(StrFormat("%016" PRIx64, v));
}

uint64_t U64FromJson(const Json* j, uint64_t fallback) {
  if (j == nullptr || !j->is_string()) return fallback;
  return std::strtoull(j->AsString().c_str(), nullptr, 16);
}

Json VectorToJson(const std::vector<double>& v) {
  Json arr = Json::Array();
  for (double x : v) arr.Append(Json::Number(x));
  return arr;
}

std::vector<double> VectorFromJson(const Json& j) {
  std::vector<double> v;
  if (!j.is_array()) return v;
  v.reserve(j.size());
  for (const auto& e : j.elements()) {
    v.push_back(e.is_number() ? e.AsNumber() : 0.0);
  }
  return v;
}

}  // namespace sparktune
