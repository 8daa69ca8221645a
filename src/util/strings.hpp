// Small string helpers shared across parsers and report printers.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace agenp::util {

// Splits on `sep`, dropping empty pieces.
std::vector<std::string> split(std::string_view text, char sep);

// Splits on runs of whitespace.
std::vector<std::string> split_ws(std::string_view text);

std::string_view trim(std::string_view text);

std::string join(const std::vector<std::string>& parts, std::string_view sep);

bool starts_with(std::string_view text, std::string_view prefix);

// True if `text` is a lexical ASP variable: leading uppercase or '_'.
bool is_variable_name(std::string_view text);

// True if `text` parses as a (possibly negative) decimal integer.
bool is_integer(std::string_view text);

// Parses all of `text` as one T with std::from_chars, for numbers that
// arrive from outside (flags, query strings, control lines): "5abc" is
// not 5, "-1" is no unsigned value, an out-of-range value does not wrap,
// and a floating-point value must be finite. nullopt on any of these.
template <typename T>
std::optional<T> parse_number(std::string_view text) {
    T value{};
    const char* end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || ptr != end) return std::nullopt;
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(value)) return std::nullopt;
    }
    return value;
}

// FNV-1a, 64-bit. One hash family shared by the decision cache, the
// router's replica placement, and the audit log's request_hash field, so
// equal request texts carry the same identity everywhere.
std::uint64_t fnv1a_hash(std::string_view text);

}  // namespace agenp::util
