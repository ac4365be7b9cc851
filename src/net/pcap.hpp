// Minimal pcap (libpcap classic format) writer/reader.
//
// §6.2 of the paper: "for each message type ... we use the static
// framework in SAGE-generated code to generate and store the packet in a
// pcap file and verify it using tcpdump". PcapWriter stores raw-IP
// (LINKTYPE_RAW) captures; sim::PacketInspector plays the tcpdump role.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace sage::net {

/// One captured packet: timestamp + raw bytes starting at the IP header.
struct PcapRecord {
  std::uint32_t ts_sec = 0;
  std::uint32_t ts_usec = 0;
  std::vector<std::uint8_t> data;
};

/// Writes the classic pcap byte stream (magic 0xa1b2c3d4, version 2.4,
/// LINKTYPE_RAW = 101) as it goes: the global header on construction,
/// then one record header and the packet bytes per add_packet.
class PcapWriter {
 public:
  /// Reserves the exact size of a stream of `packets` packets holding
  /// `data_bytes` bytes in all.
  explicit PcapWriter(std::size_t packets = 0, std::size_t data_bytes = 0);

  void add_packet(std::span<const std::uint8_t> data, std::uint32_t ts_sec = 0,
                  std::uint32_t ts_usec = 0);

  /// The pcap bytes written so far.
  const std::vector<std::uint8_t>& to_bytes() const& { return out_; }
  std::vector<std::uint8_t> to_bytes() && { return std::move(out_); }

  /// Write the capture to a file; returns false on I/O failure.
  bool write_file(const std::string& path) const;

 private:
  std::vector<std::uint8_t> out_;
};

/// Parse a pcap byte stream produced by PcapWriter (or any classic pcap
/// with LINKTYPE_RAW). Returns nullopt on malformed/truncated input.
std::optional<std::vector<PcapRecord>> parse_pcap(
    std::span<const std::uint8_t> bytes);

}  // namespace sage::net
