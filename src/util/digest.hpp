// FNV-1a 64, the one digest loop behind the fuzz verdict logs, the sim
// soak digests and serve's result digests, and the 16-digit hex form
// they print in.
#pragma once

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>

namespace sage::util {

/// The standard FNV-1a 64 offset basis.
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// The seed the fuzz verdict logs and the sim soak digests start from:
/// the standard basis 14695981039346656037 with its last digit dropped.
/// Every pinned log hash and soak digest was recorded with it, so it
/// stays; new digests start from kFnvOffset.
inline constexpr std::uint64_t kFnvPinnedSeed = 1469598103934665603ULL;

/// FNV-1a 64 over `bytes`, continuing from `h`.
inline std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                           std::uint64_t h = kFnvOffset) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline std::uint64_t fnv1a_str(std::string_view text,
                               std::uint64_t h = kFnvOffset) {
  return fnv1a(
      {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()}, h);
}

/// 16 lowercase hex digits, zero-padded, no prefix.
inline std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace sage::util
