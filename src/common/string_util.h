#ifndef FUNGUSDB_COMMON_STRING_UTIL_H_
#define FUNGUSDB_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fungusdb {

/// "1.5 KiB", "3.2 MiB", ... (binary units).
std::string FormatBytes(uint64_t bytes);

/// Fixed-point decimal rendering, e.g. FormatDouble(3.14159, 2) == "3.14".
std::string FormatDouble(double value, int decimals);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits on a single character; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

/// Splits on runs of ASCII whitespace, dropping empty tokens: the words
/// of a meta command. The views point into `s`.
std::vector<std::string_view> SplitWhitespace(std::string_view s);

/// ASCII case-insensitive equality (used by the SQL keyword scanner).
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Lowercases ASCII letters.
std::string ToLower(std::string_view s);

/// Escapes `s` for embedding inside a JSON string literal: quote,
/// backslash and control characters become their \" / \\ / \uXXXX
/// forms. Returns the escaped body WITHOUT surrounding quotes.
std::string JsonEscape(std::string_view s);

}  // namespace fungusdb

#endif  // FUNGUSDB_COMMON_STRING_UTIL_H_
