#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hadas::util {

/// Strict full-string numeric parsers. Unlike raw std::stoul/std::stod they
/// reject trailing garbage ("8x"), negative values for unsigned targets
/// ("-1" would otherwise wrap to SIZE_MAX), leading whitespace or signs, and
/// non-finite doubles — and every rejection is a std::invalid_argument that
/// names the offending flag/key (`what`, e.g. "--threads") and the value, so
/// a typo'd CLI knob fails loudly instead of silently corrupting a budget.

/// Digits-only unsigned parse of the whole string. Throws on empty input,
/// any non-digit character (including signs), and overflow past 2^64-1.
std::uint64_t parse_uint(const std::string& what, const std::string& value);

/// parse_uint narrowed to std::size_t (identical on LP64).
std::size_t parse_size(const std::string& what, const std::string& value);

/// Finite-double parse consuming the whole string. Rejects empty input,
/// leading whitespace, trailing garbage ("0.5x"), and inf/nan.
double parse_double(const std::string& what, const std::string& value);

/// parse_double constrained to [lo, hi]; `expected` describes the legal
/// range in the error message (e.g. "expected a probability in [0, 1]").
double parse_double_in(const std::string& what, const std::string& value,
                       double lo, double hi, const std::string& expected);

/// A validated network endpoint ("host:port").
struct HostPort {
  std::string host;
  std::uint16_t port = 0;
};

/// Strict full-string "host:port" parse for --listen / --connect style
/// flags. Rejects (naming `what`, like the numeric parsers above): a missing
/// colon, an empty host (":80"), an empty or non-numeric port ("host:",
/// "host:80x"), port 0 and ports above 65535, whitespace anywhere, and
/// hosts containing further colons (no IPv6 literals — use a hostname).
HostPort parse_hostport(const std::string& what, const std::string& value);

/// Lower-case hex encoding of arbitrary bytes ("ab\x00" -> "616200").
std::string to_hex(const std::string& bytes);

/// Inverse of to_hex. Throws std::invalid_argument on odd length or
/// non-hex characters.
std::string from_hex(const std::string& hex);

/// The 16 lower-case hex digits of `value`, as durable formats store a
/// 64-bit word that a JSON double cannot hold.
std::string hex_u64(std::uint64_t value);

/// Inverse of hex_u64: 1 to 16 hex digits of either case. Throws
/// std::invalid_argument otherwise.
std::uint64_t u64_from_hex(const std::string& text);

/// Fixed-precision decimal formatting, e.g. fmt_fixed(3.14159, 2) == "3.14".
std::string fmt_fixed(double v, int precision);

/// Percentage with sign retained, e.g. fmt_pct(0.193, 1) == "19.3%".
std::string fmt_pct(double fraction, int precision);

/// Human-readable count with K/M/G suffix, e.g. fmt_si(2.94e11) == "294.0G".
std::string fmt_si(double v, int precision = 1);

/// Join strings with a separator.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// Split on a single-character delimiter (no empty-token elision).
std::vector<std::string> split(const std::string& s, char delim);

/// Copy with leading and trailing ASCII whitespace removed.
std::string trim(const std::string& s);

/// True if `s` starts with `prefix`.
bool starts_with(const std::string& s, const std::string& prefix);

/// Lower-case ASCII copy.
std::string to_lower(std::string s);

}  // namespace hadas::util
