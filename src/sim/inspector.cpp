#include "sim/inspector.hpp"

#include <cstdio>
#include <map>

#include "net/bfd.hpp"
#include "net/checksum.hpp"
#include "net/icmp.hpp"
#include "net/igmp.hpp"
#include "net/ipv4.hpp"
#include "net/ipv6.hpp"
#include "net/ntp.hpp"
#include "net/schema.hpp"
#include "net/udp.hpp"
#include "util/bytes.hpp"

namespace sage::sim {

namespace {

void check_icmp(const net::Ipv4Header& ip,
                std::span<const std::uint8_t> payload, InspectionResult& r) {
  const auto icmp = net::IcmpMessage::parse(payload);
  if (!icmp) {
    r.errors.push_back("ICMP message truncated (" +
                       std::to_string(payload.size()) + " bytes)");
    return;
  }
  r.summary += "ICMP " + net::icmp_type_name(icmp->type);

  if (!net::IcmpMessage::verify_checksum(payload)) {
    r.warnings.push_back("ICMP checksum incorrect");
  }

  switch (icmp->type) {
    case net::IcmpType::kEcho:
    case net::IcmpType::kEchoReply: {
      char buf[64];
      std::snprintf(buf, sizeof buf, ", id %u, seq %u, length %zu",
                    icmp->identifier(), icmp->sequence_number(),
                    payload.size());
      r.summary += buf;
      break;
    }
    case net::IcmpType::kDestinationUnreachable:
    case net::IcmpType::kTimeExceeded:
    case net::IcmpType::kSourceQuench:
    case net::IcmpType::kParameterProblem:
    case net::IcmpType::kRedirect: {
      // Error messages must quote the original internet header + 64 bits
      // of data (RFC 792); tcpdump prints the quoted header and warns if
      // it is too short to decode.
      if (icmp->payload.size() < 20 + 8) {
        r.warnings.push_back(
            "ICMP error payload too short to contain original internet "
            "header plus 64 bits of data (" +
            std::to_string(icmp->payload.size()) + " bytes)");
      } else {
        const auto quoted = net::Ipv4Header::parse(icmp->payload);
        if (!quoted || quoted->version != 4) {
          r.warnings.push_back("quoted original datagram is not valid IPv4");
        }
      }
      if (icmp->type == net::IcmpType::kRedirect) {
        r.summary += " to " + icmp->gateway_address().to_string();
      }
      if (icmp->type == net::IcmpType::kParameterProblem) {
        r.summary += ", pointer " + std::to_string(icmp->pointer());
      }
      break;
    }
    case net::IcmpType::kTimestamp:
    case net::IcmpType::kTimestampReply: {
      // Header + three 32-bit timestamps, sized from the schema registry
      // (8 + 3*4 = 20 bytes total).
      const auto& icmp_layer =
          *net::schema::SchemaRegistry::instance().layer("icmp");
      const std::size_t expect =
          icmp_layer.header_bytes + icmp_layer.payload_scalar_bytes;
      if (payload.size() != expect) {
        r.warnings.push_back(
            "timestamp message length " + std::to_string(payload.size()) +
            " (expected " + std::to_string(expect) + ")");
      }
      break;
    }
    case net::IcmpType::kInformationRequest:
    case net::IcmpType::kInformationReply: {
      const std::size_t expect =
          net::schema::SchemaRegistry::instance().layer("icmp")->header_bytes;
      if (payload.size() != expect) {
        r.warnings.push_back("information message length " +
                             std::to_string(payload.size()) + " (expected " +
                             std::to_string(expect) + ")");
      }
      break;
    }
  }
  (void)ip;
}

void check_udp(const net::Ipv4Header& ip, std::span<const std::uint8_t> payload,
               InspectionResult& r) {
  const auto udp = net::UdpHeader::parse(payload);
  if (!udp) {
    r.errors.push_back("UDP header truncated");
    return;
  }
  char buf[80];
  std::snprintf(buf, sizeof buf, "UDP %u > %u, length %u", udp->src_port,
                udp->dst_port, udp->length);
  r.summary += buf;
  if (udp->length != payload.size()) {
    r.warnings.push_back("UDP length field " + std::to_string(udp->length) +
                         " != actual " + std::to_string(payload.size()));
  }
  if (!net::UdpHeader::verify_checksum(ip.src, ip.dst, payload)) {
    r.warnings.push_back("UDP checksum incorrect");
  }
  if (udp->dst_port == net::kNtpPort || udp->src_port == net::kNtpPort) {
    const auto ntp = net::NtpPacket::parse(payload.subspan(8));
    if (ntp) {
      r.summary += ", NTPv" + std::to_string(ntp->version) + " mode " +
                   std::to_string(static_cast<int>(ntp->mode)) + " stratum " +
                   std::to_string(ntp->stratum);
    } else {
      r.warnings.push_back("NTP packet shorter than 48 bytes");
    }
  }
}

void check_igmp(std::span<const std::uint8_t> payload, InspectionResult& r) {
  const auto igmp = net::IgmpMessage::parse(payload);
  if (!igmp) {
    r.errors.push_back("IGMP message truncated");
    return;
  }
  r.summary += std::string("IGMP ") +
               (igmp->type == net::IgmpType::kHostMembershipQuery
                    ? "host membership query"
                    : "host membership report") +
               " group " + igmp->group_address.to_string();
  long expected_version = 1;
  if (const auto* schema =
          net::schema::SchemaRegistry::instance().protocol("IGMP")) {
    for (const auto& d : schema->defaults) {
      if (d.layer == "igmp" && d.field == "version") expected_version = d.value;
    }
  }
  if (igmp->version != expected_version) {
    r.warnings.push_back("IGMP version " + std::to_string(igmp->version) +
                         " (expected " + std::to_string(expected_version) +
                         ")");
  }
  if (!net::IgmpMessage::verify_checksum(payload)) {
    r.warnings.push_back("IGMP checksum incorrect");
  }
}

void check_icmp6(const net::Ipv6Header& ip,
                 std::span<const std::uint8_t> payload, InspectionResult& r) {
  if (payload.size() < 8) {
    r.errors.push_back("ICMPv6 message truncated (" +
                       std::to_string(payload.size()) + " bytes)");
    return;
  }
  static const std::map<std::uint8_t, const char*> kTypeNames = {
      {1, "destination unreachable"}, {2, "packet too big"},
      {3, "time exceeded"},           {4, "parameter problem"},
      {128, "echo request"},          {129, "echo reply"},
  };
  const auto it = kTypeNames.find(payload[0]);
  r.summary += std::string("ICMPv6 ") +
               (it == kTypeNames.end() ? "type " + std::to_string(payload[0])
                                       : it->second);
  // RFC 4443 §2.3: the checksum covers the message chained with the
  // pseudo-header; a correct packet re-sums to its own checksum field.
  std::vector<std::uint8_t> zeroed(payload.begin(), payload.end());
  const std::uint16_t stored = util::get_be16({zeroed.data() + 2, 2});
  util::put_be16({zeroed.data() + 2, 2}, 0);
  if (net::icmp6_checksum(ip.src, ip.dst, zeroed) != stored) {
    r.warnings.push_back("ICMPv6 checksum incorrect");
  }
  if (payload[0] >= 1 && payload[0] <= 4) {
    // Error messages quote the invoking packet; too short to contain an
    // IPv6 header means the excerpt rule was violated.
    if (payload.size() < 8 + net::Ipv6Header::kHeaderBytes) {
      r.warnings.push_back(
          "ICMPv6 error payload too short to contain the invoking packet's "
          "IPv6 header (" + std::to_string(payload.size() - 8) + " bytes)");
    } else if (!net::Ipv6Header::parse(payload.subspan(8))) {
      r.warnings.push_back("quoted invoking packet is not valid IPv6");
    }
    // RFC 4443 §2.4(c): header + message must not exceed 1280 bytes.
    if (payload.size() > 1280 - net::Ipv6Header::kHeaderBytes) {
      r.warnings.push_back("ICMPv6 error message exceeds the minimum IPv6 MTU");
    }
  }
  if (payload[0] == 4) {
    r.summary += ", pointer " + std::to_string(util::get_be32({payload.data() + 4, 4}));
  }
}

InspectionResult inspect_ipv6(std::span<const std::uint8_t> packet) {
  InspectionResult r;
  const auto ip = net::Ipv6Header::parse(packet);
  if (!ip) {
    r.errors.push_back("not a decodable IPv6 packet (" +
                       std::to_string(packet.size()) + " bytes)");
    r.summary = "[malformed]";
    return r;
  }
  r.summary = "IP6 " + ip->src.to_string() + " > " + ip->dst.to_string() + ": ";
  const auto payload = packet.subspan(net::Ipv6Header::kHeaderBytes);
  if (ip->payload_length != payload.size()) {
    if (ip->payload_length > payload.size()) {
      r.errors.push_back("packet truncated: payload length " +
                         std::to_string(ip->payload_length) + " but only " +
                         std::to_string(payload.size()) + " bytes captured");
    } else {
      r.warnings.push_back("IPv6 payload length " +
                           std::to_string(ip->payload_length) + " < captured " +
                           std::to_string(payload.size()) + " bytes");
    }
  }
  if (ip->hop_limit == 0) r.warnings.push_back("hop limit is zero");
  if (ip->next_header == net::kIpProtoIcmp6) {
    check_icmp6(*ip, payload, r);
  } else {
    r.summary += "next header " + std::to_string(ip->next_header) +
                 ", length " + std::to_string(payload.size());
  }
  return r;
}

}  // namespace

InspectionResult PacketInspector::inspect(
    std::span<const std::uint8_t> packet) const {
  InspectionResult r;
  if (!packet.empty() && (packet[0] >> 4) == 6) return inspect_ipv6(packet);
  const auto ip = net::Ipv4Header::parse(packet);
  if (!ip) {
    r.errors.push_back("not a decodable IPv4 packet (" +
                       std::to_string(packet.size()) + " bytes)");
    r.summary = "[malformed]";
    return r;
  }

  r.summary = "IP " + ip->src.to_string() + " > " + ip->dst.to_string() + ": ";

  if (ip->total_length != packet.size()) {
    if (ip->total_length > packet.size()) {
      r.errors.push_back("packet truncated: total length " +
                         std::to_string(ip->total_length) + " but only " +
                         std::to_string(packet.size()) + " bytes captured");
    } else {
      r.warnings.push_back("IP total length " +
                           std::to_string(ip->total_length) + " < captured " +
                           std::to_string(packet.size()) + " bytes");
    }
  }

  const std::uint16_t expect_ck = net::Ipv4Header::compute_checksum(
      packet.subspan(0, ip->header_length()));
  if (expect_ck != ip->checksum) {
    r.warnings.push_back("IP header checksum incorrect");
  }
  if (ip->ttl == 0) {
    r.warnings.push_back("TTL is zero");
  }

  const std::size_t payload_len =
      ip->total_length >= ip->header_length() &&
              ip->total_length <= packet.size()
          ? ip->total_length - ip->header_length()
          : packet.size() - ip->header_length();
  const std::span<const std::uint8_t> payload(
      packet.data() + ip->header_length(), payload_len);

  switch (static_cast<net::IpProto>(ip->protocol)) {
    case net::IpProto::kIcmp:
      check_icmp(*ip, payload, r);
      break;
    case net::IpProto::kUdp:
      check_udp(*ip, payload, r);
      break;
    case net::IpProto::kIgmp:
      check_igmp(payload, r);
      break;
    default:
      r.summary += "proto " + std::to_string(ip->protocol) + ", length " +
                   std::to_string(payload.size());
      break;
  }
  return r;
}

std::vector<InspectionResult> PacketInspector::inspect_pcap(
    std::span<const std::uint8_t> pcap_bytes) const {
  const auto records = net::parse_pcap(pcap_bytes);
  if (!records) {
    InspectionResult r;
    r.summary = "[malformed pcap]";
    r.errors.push_back("pcap stream is malformed or truncated");
    return {r};
  }
  std::vector<InspectionResult> out;
  out.reserve(records->size());
  for (const auto& rec : *records) out.push_back(inspect(rec.data));
  return out;
}

bool PacketInspector::all_clean(std::span<const std::uint8_t> pcap_bytes) const {
  for (const auto& r : inspect_pcap(pcap_bytes)) {
    if (!r.clean()) return false;
  }
  return true;
}

std::vector<std::string> PacketInspector::decode(
    std::span<const std::uint8_t> packet) const {
  const auto& registry = net::schema::SchemaRegistry::instance();
  std::vector<std::string> lines;
  if (!packet.empty() && (packet[0] >> 4) == 6) {
    // Version nibble 6: decode through the ip6 schema layer, and the
    // icmp6 layer when the next header says so.
    const auto ip6 = net::Ipv6Header::parse(packet);
    if (!ip6) {
      lines.push_back("[not IPv6]");
      return lines;
    }
    for (auto& line : registry.decode_layer(
             "ip6", packet.subspan(0, net::Ipv6Header::kHeaderBytes))) {
      lines.push_back(std::move(line));
    }
    if (ip6->next_header == net::kIpProtoIcmp6) {
      for (auto& line : registry.decode_layer(
               "icmp6", packet.subspan(net::Ipv6Header::kHeaderBytes))) {
        lines.push_back(std::move(line));
      }
    }
    return lines;
  }
  // A standalone DHCP message (fixed BOOTP header + magic cookie at
  // offset 236) is not IP; recognize it by the cookie so TLV decode —
  // including the <truncated option>/<option length lie> markers — shows
  // up in differential captures.
  if (packet.size() >= 240 && packet[236] == 0x63 && packet[237] == 0x82 &&
      packet[238] == 0x53 && packet[239] == 0x63) {
    return registry.decode_layer("dhcp", packet);
  }
  const auto ip = net::Ipv4Header::parse(packet);
  if (!ip) {
    lines.push_back("[not IPv4]");
    return lines;
  }
  for (auto& line : registry.decode_layer(
           "ip", packet.subspan(0, ip->header_length()))) {
    lines.push_back(std::move(line));
  }
  const auto payload = packet.subspan(ip->header_length());
  switch (static_cast<net::IpProto>(ip->protocol)) {
    case net::IpProto::kIcmp:
      for (auto& line : registry.decode_layer("icmp", payload)) {
        lines.push_back(std::move(line));
      }
      break;
    case net::IpProto::kIgmp:
      for (auto& line : registry.decode_layer("igmp", payload)) {
        lines.push_back(std::move(line));
      }
      break;
    case net::IpProto::kUdp: {
      for (auto& line : registry.decode_layer("udp", payload)) {
        lines.push_back(std::move(line));
      }
      const auto udp = net::UdpHeader::parse(payload);
      if (udp && (udp->src_port == net::kNtpPort ||
                  udp->dst_port == net::kNtpPort)) {
        for (auto& line : registry.decode_layer("ntp", payload.subspan(8))) {
          lines.push_back(std::move(line));
        }
      }
      break;
    }
    default:
      break;
  }
  return lines;
}

}  // namespace sage::sim
