#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace blend {

/// Lower-cases ASCII characters.
std::string ToLower(std::string_view s);

/// Trims ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

/// Canonical cell normalization used throughout the index: trim + lowercase.
/// BLEND matches cell values exactly after this normalization (the paper's
/// inverted index stores tokenized cell values).
std::string NormalizeCell(std::string_view s);

/// NormalizeCell in one pass that also hashes: writes the normalized value
/// into `out` (replacing its contents; non-ASCII bytes pass through) and
/// returns its Fnv1a64. Reusing `out` keeps per-cell callers allocation-free.
uint64_t NormalizeCellHashed(std::string_view s, std::string* out);

/// Splits on a delimiter; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// Joins with a delimiter.
std::string Join(const std::vector<std::string>& parts, std::string_view delim);

/// Parses a double if the entire string (after trim) is a plain decimal:
/// [+-] digits [. digits] [eE [+-] digits]. Rounds exactly like strtod in the
/// "C" locale, whatever the process locale is; "inf", "nan", hex floats and
/// decimals that overflow to infinity are rejected.
std::optional<double> ParseNumeric(std::string_view s);

/// Replaces every occurrence of `from` in `s` with `to`.
std::string ReplaceAll(std::string s, std::string_view from, std::string_view to);

/// SQL string literal quoting: wraps in single quotes, doubling embedded ones.
std::string SqlQuote(std::string_view s);

/// Renders a list of values as a SQL IN-list body: 'a','b','c'.
std::string SqlInList(const std::vector<std::string>& values);

/// Renders a list of integers as a SQL IN-list body: 1,2,3.
std::string SqlInListInts(const std::vector<int64_t>& values);

}  // namespace blend
