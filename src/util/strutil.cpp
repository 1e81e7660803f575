#include "util/strutil.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace hadas::util {

namespace {

[[noreturn]] void reject(const std::string& what, const std::string& value,
                         const std::string& expected) {
  throw std::invalid_argument("invalid value '" + value + "' for " + what +
                              " (" + expected + ")");
}

}  // namespace

std::uint64_t parse_uint(const std::string& what, const std::string& value) {
  const char* expected = "expected a non-negative integer";
  if (value.empty()) reject(what, value, expected);
  for (char c : value)
    if (c < '0' || c > '9') reject(what, value, expected);
  std::uint64_t out = 0;
  for (char c : value) {
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (out > (std::numeric_limits<std::uint64_t>::max() - digit) / 10)
      reject(what, value, "value too large for a 64-bit integer");
    out = out * 10 + digit;
  }
  return out;
}

std::size_t parse_size(const std::string& what, const std::string& value) {
  const std::uint64_t v = parse_uint(what, value);
  if (v > std::numeric_limits<std::size_t>::max())
    reject(what, value, "value too large for this platform's size_t");
  return static_cast<std::size_t>(v);
}

double parse_double(const std::string& what, const std::string& value) {
  const char* expected = "expected a finite number";
  if (value.empty() ||
      std::isspace(static_cast<unsigned char>(value.front())))
    reject(what, value, expected);
  double out = 0.0;
  std::size_t consumed = 0;
  try {
    out = std::stod(value, &consumed);
  } catch (const std::exception&) {
    reject(what, value, expected);
  }
  if (consumed != value.size()) reject(what, value, expected);
  if (!std::isfinite(out)) reject(what, value, expected);
  return out;
}

double parse_double_in(const std::string& what, const std::string& value,
                       double lo, double hi, const std::string& expected) {
  const double out = parse_double(what, value);
  if (out < lo || out > hi) reject(what, value, expected);
  return out;
}

HostPort parse_hostport(const std::string& what, const std::string& value) {
  const char* expected = "expected host:port with port in [1, 65535]";
  const std::size_t colon = value.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == value.size())
    reject(what, value, expected);
  const std::string host = value.substr(0, colon);
  const std::string port_str = value.substr(colon + 1);
  for (char c : host) {
    if (std::isspace(static_cast<unsigned char>(c)) || c == ':')
      reject(what, value, expected);
  }
  std::uint64_t port = 0;
  try {
    port = parse_uint(what, port_str);
  } catch (const std::invalid_argument&) {
    reject(what, value, expected);
  }
  if (port == 0 || port > 65535) reject(what, value, expected);
  return {host, static_cast<std::uint16_t>(port)};
}

std::string to_hex(const std::string& bytes) {
  // The two digits of every byte value, so each byte is one 2-byte copy.
  static constexpr std::array<char, 512> kPairs = [] {
    constexpr char digits[] = "0123456789abcdef";
    std::array<char, 512> pairs{};
    for (std::size_t b = 0; b < 256; ++b) {
      pairs[2 * b] = digits[b >> 4];
      pairs[2 * b + 1] = digits[b & 0xF];
    }
    return pairs;
  }();
  std::string out(bytes.size() * 2, '\0');
  char* p = out.data();
  for (unsigned char c : bytes) {
    std::memcpy(p, &kPairs[2 * std::size_t{c}], 2);
    p += 2;
  }
  return out;
}

namespace {
int nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw std::invalid_argument(std::string("hex: non-hex character '") + c +
                              "'");
}
}  // namespace

std::string from_hex(const std::string& hex) {
  if (hex.size() % 2 != 0)
    throw std::invalid_argument("from_hex: odd-length input");
  std::string out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2)
    out.push_back(static_cast<char>((nibble(hex[i]) << 4) | nibble(hex[i + 1])));
  return out;
}

std::string hex_u64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::uint64_t u64_from_hex(const std::string& text) {
  if (text.empty() || text.size() > 16)
    throw std::invalid_argument("u64_from_hex: bad length '" + text + "'");
  std::uint64_t value = 0;
  for (char c : text)
    value = (value << 4) | static_cast<std::uint64_t>(nibble(c));
  return value;
}

std::string fmt_fixed(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string fmt_pct(double fraction, int precision) {
  return fmt_fixed(fraction * 100.0, precision) + "%";
}

std::string fmt_si(double v, int precision) {
  const double a = std::fabs(v);
  if (a >= 1e9) return fmt_fixed(v / 1e9, precision) + "G";
  if (a >= 1e6) return fmt_fixed(v / 1e6, precision) + "M";
  if (a >= 1e3) return fmt_fixed(v / 1e3, precision) + "K";
  return fmt_fixed(v, precision);
}

std::string join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::vector<std::string> split(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::string token;
  std::istringstream iss(s);
  while (std::getline(iss, token, delim)) out.push_back(token);
  if (!s.empty() && s.back() == delim) out.emplace_back();
  return out;
}

std::string trim(const std::string& s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin])))
    ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1])))
    --end;
  return s.substr(begin, end - begin);
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         std::equal(prefix.begin(), prefix.end(), s.begin());
}

std::string to_lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

}  // namespace hadas::util
