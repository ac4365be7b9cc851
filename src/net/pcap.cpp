#include "net/pcap.hpp"

#include <cstdio>

namespace sage::net {

namespace {

constexpr std::uint32_t kMagic = 0xa1b2c3d4;
constexpr std::uint32_t kLinktypeRaw = 101;
constexpr std::size_t kGlobalHeaderBytes = 24;
constexpr std::size_t kRecordHeaderBytes = 16;

// pcap headers are written in the *writer's* native byte order; the magic
// tells readers which one. We always write little-endian for determinism.
void put_le32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 24) & 0xff));
}

void put_le16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
}

std::uint32_t get_le32(std::span<const std::uint8_t> in) {
  return static_cast<std::uint32_t>(in[0]) |
         (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) |
         (static_cast<std::uint32_t>(in[3]) << 24);
}

}  // namespace

PcapWriter::PcapWriter(std::size_t packets, std::size_t data_bytes) {
  out_.reserve(kGlobalHeaderBytes + kRecordHeaderBytes * packets + data_bytes);
  put_le32(out_, kMagic);
  put_le16(out_, 2);   // version major
  put_le16(out_, 4);   // version minor
  put_le32(out_, 0);   // thiszone
  put_le32(out_, 0);   // sigfigs
  put_le32(out_, 65535);  // snaplen
  put_le32(out_, kLinktypeRaw);
}

void PcapWriter::add_packet(std::span<const std::uint8_t> data,
                            std::uint32_t ts_sec, std::uint32_t ts_usec) {
  put_le32(out_, ts_sec);
  put_le32(out_, ts_usec);
  put_le32(out_, static_cast<std::uint32_t>(data.size()));  // incl_len
  put_le32(out_, static_cast<std::uint32_t>(data.size()));  // orig_len
  out_.insert(out_.end(), data.begin(), data.end());
}

bool PcapWriter::write_file(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t n = std::fwrite(out_.data(), 1, out_.size(), f);
  std::fclose(f);
  return n == out_.size();
}

std::optional<std::vector<PcapRecord>> parse_pcap(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kGlobalHeaderBytes) return std::nullopt;
  if (get_le32(bytes.subspan(0, 4)) != kMagic) return std::nullopt;
  std::vector<PcapRecord> out;
  std::size_t off = kGlobalHeaderBytes;
  while (off + kRecordHeaderBytes <= bytes.size()) {
    PcapRecord rec;
    rec.ts_sec = get_le32(bytes.subspan(off, 4));
    rec.ts_usec = get_le32(bytes.subspan(off + 4, 4));
    const std::uint32_t incl = get_le32(bytes.subspan(off + 8, 4));
    off += kRecordHeaderBytes;
    if (off + incl > bytes.size()) return std::nullopt;  // truncated capture
    rec.data.assign(bytes.begin() + static_cast<long>(off),
                    bytes.begin() + static_cast<long>(off + incl));
    off += incl;
    out.push_back(std::move(rec));
  }
  if (off != bytes.size()) return std::nullopt;
  return out;
}

}  // namespace sage::net
