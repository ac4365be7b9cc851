#include "net/checksum.hpp"

#include <bit>
#include <cstring>

namespace sage::net {

std::uint16_t ones_complement_sum(std::span<const std::uint8_t> data,
                                  std::uint16_t initial) {
  // Bulk: 32-bit chunks in host byte order into a 64-bit accumulator (no
  // carry is lost), folded to 16 bits. The one's-complement sum is byte-
  // order independent (RFC 1071 §2(B)): swapping the folded host-order
  // sum gives the sum of the big-endian words.
  std::uint64_t wide = 0;
  std::size_t i = 0;
  for (; i + 4 <= data.size(); i += 4) {
    std::uint32_t chunk;
    std::memcpy(&chunk, data.data() + i, 4);
    wide += chunk;
  }
  while (wide >> 16) wide = (wide & 0xffff) + (wide >> 16);
  std::uint32_t sum = static_cast<std::uint32_t>(wide);
  if constexpr (std::endian::native == std::endian::little) {
    sum = ((sum & 0xff) << 8) | (sum >> 8);
  }
  // Tail: the last 0-3 bytes as big-endian words.
  sum += initial;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<std::uint32_t>(data[i]) << 8 | data[i + 1];
  }
  if (i < data.size()) {  // odd trailing byte: pad with zero on the right
    sum += static_cast<std::uint32_t>(data[i]) << 8;
  }
  while (sum >> 16) {  // fold end-around carries
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<std::uint16_t>(sum);
}

std::uint16_t internet_checksum(std::span<const std::uint8_t> data,
                                std::uint16_t initial) {
  return static_cast<std::uint16_t>(~ones_complement_sum(data, initial));
}

std::uint16_t incremental_checksum_update(std::uint16_t old_checksum,
                                          std::uint16_t old_value,
                                          std::uint16_t new_value) {
  // RFC 1624: HC' = ~(~HC + ~m + m')
  std::uint32_t sum = static_cast<std::uint16_t>(~old_checksum);
  sum += static_cast<std::uint16_t>(~old_value);
  sum += new_value;
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

std::uint16_t pseudo_header_sum_v4(std::uint32_t src, std::uint32_t dst,
                                   std::uint8_t protocol,
                                   std::uint16_t upper_length) {
  std::uint8_t pseudo[12];
  for (int i = 0; i < 4; ++i) {
    pseudo[i] = static_cast<std::uint8_t>(src >> (8 * (3 - i)));
    pseudo[4 + i] = static_cast<std::uint8_t>(dst >> (8 * (3 - i)));
  }
  pseudo[8] = 0;
  pseudo[9] = protocol;
  pseudo[10] = static_cast<std::uint8_t>(upper_length >> 8);
  pseudo[11] = static_cast<std::uint8_t>(upper_length);
  return ones_complement_sum(pseudo);
}

std::uint16_t pseudo_header_sum_v6(std::span<const std::uint8_t> src16,
                                   std::span<const std::uint8_t> dst16,
                                   std::uint32_t upper_length,
                                   std::uint8_t next_header) {
  std::uint16_t sum = ones_complement_sum(src16);
  sum = ones_complement_sum(dst16, sum);
  std::uint8_t tail[8];
  tail[0] = static_cast<std::uint8_t>(upper_length >> 24);
  tail[1] = static_cast<std::uint8_t>(upper_length >> 16);
  tail[2] = static_cast<std::uint8_t>(upper_length >> 8);
  tail[3] = static_cast<std::uint8_t>(upper_length);
  tail[4] = tail[5] = tail[6] = 0;
  tail[7] = next_header;
  return ones_complement_sum(tail, sum);
}

}  // namespace sage::net
