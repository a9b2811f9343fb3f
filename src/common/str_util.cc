#include "common/str_util.h"

#include <algorithm>
#include <charconv>
#include <cstdint>

#include "common/hashing.h"

namespace blend {

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (auto& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

namespace {

/// The "C" locale's isspace, whatever the process locale is.
bool IsAsciiSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

}  // namespace

std::string_view Trim(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && IsAsciiSpace(s[b])) ++b;
  while (e > b && IsAsciiSpace(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::string NormalizeCell(std::string_view s) {
  std::string out;
  NormalizeCellHashed(s, &out);
  return out;
}

uint64_t NormalizeCellHashed(std::string_view s, std::string* out) {
  const std::string_view t = Trim(s);
  out->resize(t.size());
  char* dst = out->data();
  uint64_t h = kFnv1a64Offset;
  for (size_t i = 0; i < t.size(); ++i) {
    auto c = static_cast<unsigned char>(t[i]);
    if (c >= 'A' && c <= 'Z') c += 'a' - 'A';
    dst[i] = static_cast<char>(c);
    h = (h ^ c) * kFnv1a64Prime;
  }
  return h;
}

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view delim) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) out += delim;
    out += parts[i];
  }
  return out;
}

namespace {

/// For a syntactically valid decimal that from_chars reports out of range:
/// true when its magnitude is below the smallest subnormal (the decimal
/// exponent of its leading significant digit is negative), false when it
/// overflows. The two cases sit hundreds of decimal orders apart, so the
/// exponent's sign alone decides.
bool UnderflowsToZero(std::string_view t) {
  int64_t lead = 0;  // decimal exponent of the first nonzero mantissa digit
  bool found = false;
  bool after_point = false;
  size_t i = t[0] == '-' ? 1 : 0;
  for (; i < t.size() && t[i] != 'e' && t[i] != 'E'; ++i) {
    if (t[i] == '.') {
      after_point = true;
    } else if (!found) {
      if (after_point) --lead;
      if (t[i] != '0') found = true;
    } else if (!after_point) {
      ++lead;
    }
  }
  int64_t exponent = 0;
  if (i < t.size()) {
    ++i;
    const bool negative = t[i] == '-';
    if (t[i] == '+' || t[i] == '-') ++i;
    for (; i < t.size(); ++i) {
      // Saturates: any exponent this large is out of range either way.
      exponent = std::min<int64_t>(exponent * 10 + (t[i] - '0'), 1'000'000);
    }
    if (negative) exponent = -exponent;
  }
  return lead + exponent < 0;
}

}  // namespace

std::optional<double> ParseNumeric(std::string_view s) {
  std::string_view t = Trim(s);
  if (t.empty()) return std::nullopt;
  // from_chars and strtod alone are too permissive for cell typing: they
  // accept "inf" and "nan" (strtod also hex floats like "0x1p3"), which
  // would classify text columns as numeric and poison the
  // correlation/aggregation seekers. Accept only plain decimal syntax:
  // [+-] digits [. digits] [eE [+-] digits], with at least one mantissa
  // digit.
  const auto is_digit = [](char c) { return c >= '0' && c <= '9'; };
  size_t i = 0;
  if (t[i] == '+' || t[i] == '-') ++i;
  bool mantissa_digits = false;
  while (i < t.size() && is_digit(t[i])) {
    ++i;
    mantissa_digits = true;
  }
  if (i < t.size() && t[i] == '.') {
    ++i;
    while (i < t.size() && is_digit(t[i])) {
      ++i;
      mantissa_digits = true;
    }
  }
  if (!mantissa_digits) return std::nullopt;
  if (i < t.size() && (t[i] == 'e' || t[i] == 'E')) {
    ++i;
    if (i < t.size() && (t[i] == '+' || t[i] == '-')) ++i;
    bool exponent_digits = false;
    while (i < t.size() && is_digit(t[i])) {
      ++i;
      exponent_digits = true;
    }
    if (!exponent_digits) return std::nullopt;
  }
  if (i != t.size()) return std::nullopt;
  // from_chars is locale-independent and needs no NUL-terminated copy. It
  // rounds like strtod but takes no leading '+'.
  if (t[0] == '+') t.remove_prefix(1);
  double v = 0;
  const auto [end, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
  if (ec == std::errc::result_out_of_range) {
    // Overflowing decimals ("1e999") would be infinite, which poisons column
    // means just like a literal "inf" cell; underflow rounds to a signed
    // zero, as with strtod.
    if (!UnderflowsToZero(t)) return std::nullopt;
    v = t[0] == '-' ? -0.0 : 0.0;
  } else if (ec != std::errc() || end != t.data() + t.size()) {
    return std::nullopt;
  }
  return v;
}

std::string ReplaceAll(std::string s, std::string_view from, std::string_view to) {
  if (from.empty()) return s;
  std::string out;
  out.reserve(s.size());
  size_t pos = 0;
  while (true) {
    size_t hit = s.find(from, pos);
    if (hit == std::string::npos) {
      out.append(s, pos, std::string::npos);
      break;
    }
    out.append(s, pos, hit - pos);
    out.append(to);
    pos = hit + from.size();
  }
  return out;
}

std::string SqlQuote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '\'';
  for (char c : s) {
    if (c == '\'') out += "''";
    else out += c;
  }
  out += '\'';
  return out;
}

std::string SqlInList(const std::vector<std::string>& values) {
  std::string out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    out += SqlQuote(values[i]);
  }
  return out;
}

std::string SqlInListInts(const std::vector<int64_t>& values) {
  std::string out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    out += std::to_string(values[i]);
  }
  return out;
}

}  // namespace blend
