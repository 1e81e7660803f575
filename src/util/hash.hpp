#pragma once

#include <cstdint>
#include <span>

namespace hadas::util {

/// 64-bit FNV-1a over a sequence of 32-bit integers, each folded in as its
/// unsigned value. Stable across runs and platforms: genome hashes built on
/// it key the evaluation memos and seed every exit bank and IOE, and the
/// golden outputs pin them.
inline std::uint64_t fnv1a(std::span<const std::int32_t> values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::int32_t v : values) {
    h ^= static_cast<std::uint32_t>(v);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace hadas::util
