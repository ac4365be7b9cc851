#include "fuzz/generator.hpp"

#include <algorithm>
#include <cstdlib>

#include "net/bfd.hpp"
#include "net/icmp.hpp"
#include "net/igmp.hpp"
#include "net/ipv4.hpp"
#include "net/ipv6.hpp"
#include "net/ntp.hpp"
#include "net/udp.hpp"
#include "util/bytes.hpp"

namespace sage::fuzz {

namespace schema = net::schema;

namespace {

const schema::FieldSpec* find_field(const schema::LayerSpec& layer,
                                    std::string_view name) {
  for (const auto& f : layer.fields) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

/// All kScalar fields of a layer (mutation targets).
std::vector<const schema::FieldSpec*> scalar_fields(
    const schema::LayerSpec& layer) {
  std::vector<const schema::FieldSpec*> out;
  for (const auto& f : layer.fields) {
    if (f.kind == schema::FieldKind::kScalar) out.push_back(&f);
  }
  return out;
}

net::IpAddr client_addr() { return net::IpAddr(10, 0, 1, 100); }
net::IpAddr router_addr() { return net::IpAddr(10, 0, 1, 1); }
net::IpAddr server1_addr() { return net::IpAddr(192, 168, 2, 100); }
net::Ip6Addr client6_addr() {
  return net::Ip6Addr::from_groups(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1);
}
net::Ip6Addr server6_addr() {
  return net::Ip6Addr::from_groups(0x2001, 0xdb8, 0, 0, 0, 0, 0, 2);
}

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

std::vector<std::uint8_t> wrap_ip(std::uint8_t protocol, net::IpAddr src,
                                  net::IpAddr dst, std::uint8_t ttl,
                                  std::uint8_t tos,
                                  std::span<const std::uint8_t> payload) {
  net::Ipv4Header ip;
  ip.protocol = protocol;
  ip.ttl = ttl;
  ip.tos = tos;
  ip.src = src;
  ip.dst = dst;
  return net::build_ipv4_packet(ip, payload);
}

/// One TLV option's position inside a packet with an options region:
/// `pos` is the type byte, `len` the full span including type + length.
struct TlvAt {
  std::size_t pos = 0;
  std::size_t len = 0;
};

/// Walk the well-formed prefix of the options region (grammar per the
/// layer: pad skipped, end stops, truncation stops). Mutations splice at
/// these boundaries so they perturb the TLV *grammar*, not random bytes.
std::vector<TlvAt> tlv_positions(const std::vector<std::uint8_t>& bytes,
                                 std::size_t options_offset,
                                 std::uint8_t pad_code, std::uint8_t end_code) {
  std::vector<TlvAt> out;
  std::size_t i = options_offset;
  while (i < bytes.size()) {
    const std::uint8_t type = bytes[i];
    if (type == pad_code) {
      ++i;
      continue;
    }
    if (type == end_code || i + 1 >= bytes.size()) break;
    const std::size_t value_len = bytes[i + 1];
    if (i + 2 + value_len > bytes.size()) break;
    out.push_back({i, 2 + value_len});
    i += 2 + value_len;
  }
  return out;
}

}  // namespace

const char* mutation_kind_name(MutationKind kind) {
  switch (kind) {
    case MutationKind::kValid: return "valid";
    case MutationKind::kBoundary: return "boundary";
    case MutationKind::kBitFlip: return "bitflip";
    case MutationKind::kFieldSwap: return "field-swap";
    case MutationKind::kTruncate: return "truncate";
    case MutationKind::kOversizePayload: return "oversize";
    case MutationKind::kBadChecksum: return "bad-checksum";
    case MutationKind::kBadVersion: return "bad-version";
    case MutationKind::kTlvInsert: return "tlv-insert";
    case MutationKind::kTlvDelete: return "tlv-delete";
    case MutationKind::kTlvDuplicate: return "tlv-duplicate";
    case MutationKind::kTlvLengthLie: return "tlv-length-lie";
    case MutationKind::kHandWritten: return "hand-written";
  }
  return "?";
}

PacketGenerator::PacketGenerator(std::string protocol)
    : protocol_(std::move(protocol)) {}

const std::vector<std::string>& PacketGenerator::known_protocols() {
  static const std::vector<std::string> kProtocols = {
      "icmp", "icmp6", "igmp", "ntp", "bfd", "udp", "dhcp"};
  return kProtocols;
}

FuzzPacket PacketGenerator::base_packet(Rng& rng) const {
  FuzzPacket pkt;
  pkt.protocol = protocol_;

  if (protocol_ == "icmp") {
    net::IcmpMessage icmp;
    icmp.type = net::IcmpType::kEcho;
    icmp.code = 0;
    icmp.set_identifier(static_cast<std::uint16_t>(rng.below(0x10000)));
    icmp.set_sequence_number(static_cast<std::uint16_t>(rng.below(0x10000)));
    net::IpAddr dst = router_addr();
    std::uint8_t ttl = 64;
    std::uint8_t tos = 0;
    switch (rng.below(11)) {
      case 0:
      case 1:
        pkt.scenario = "echo-router";
        icmp.payload = random_bytes(rng, rng.below(48));
        break;
      case 2:
        pkt.scenario = "echo-forward";
        dst = server1_addr();
        icmp.payload = random_bytes(rng, rng.below(48));
        break;
      case 3:
        pkt.scenario = "timestamp";
        icmp.type = net::IcmpType::kTimestamp;
        icmp.set_timestamps(
            static_cast<std::uint32_t>(rng.below(86400000)), 0, 0);
        break;
      case 4:
        pkt.scenario = "info";
        icmp.type = net::IcmpType::kInformationRequest;
        break;
      case 5:
        pkt.scenario = "unknown-subnet";
        dst = net::IpAddr(203, 0, 113,
                          static_cast<std::uint8_t>(1 + rng.below(250)));
        icmp.payload = random_bytes(rng, rng.below(16));
        break;
      case 6:
        pkt.scenario = "ttl-exceeded";
        dst = server1_addr();
        ttl = 1;
        icmp.payload = random_bytes(rng, rng.below(16));
        break;
      case 7:
        pkt.scenario = "tos-param-problem";
        dst = server1_addr();
        tos = static_cast<std::uint8_t>(1 + rng.below(255));
        pkt.require_tos_zero = true;
        break;
      case 8:
        pkt.scenario = "source-quench";
        dst = server1_addr();
        pkt.full_outbound = 1;
        break;
      case 9:
        pkt.scenario = "redirect";
        dst = net::IpAddr(10, 0, 1,
                          static_cast<std::uint8_t>(2 + rng.below(90)));
        pkt.via_router = true;
        break;
      default: {
        pkt.scenario = "udp-closed-port";
        net::UdpHeader udp;
        udp.src_port = static_cast<std::uint16_t>(33000 + rng.below(1000));
        udp.dst_port = 33434;
        const auto payload = random_bytes(rng, rng.below(16));
        pkt.bytes = wrap_ip(17, client_addr(), server1_addr(), 64, 0,
                            udp.serialize(client_addr(), server1_addr(),
                                          payload));
        return pkt;
      }
    }
    pkt.bytes = wrap_ip(1, client_addr(), dst, ttl, tos, icmp.serialize());
    return pkt;
  }

  if (protocol_ == "icmp6") {
    net::Ipv6Header ip;
    ip.src = client6_addr();
    ip.dst = server6_addr();
    switch (rng.below(8)) {
      case 0:
      case 1:
      case 2: {
        // A valid echo request: the receiver path (reply-by-mutation).
        pkt.scenario = "echo";
        ip.next_header = net::kIpProtoIcmp6;
        std::vector<std::uint8_t> msg(8, 0);
        msg[0] = 128;
        util::put_be16({msg.data() + 4, 2},
                       static_cast<std::uint16_t>(rng.below(0x10000)));
        util::put_be16({msg.data() + 6, 2},
                       static_cast<std::uint16_t>(rng.below(0x10000)));
        const auto data = random_bytes(rng, rng.below(48));
        msg.insert(msg.end(), data.begin(), data.end());
        const std::uint16_t ck = net::icmp6_checksum(ip.src, ip.dst, msg);
        util::put_be16({msg.data() + 2, 2}, ck);
        pkt.bytes = net::build_ipv6_packet(ip, msg);
        return pkt;
      }
      case 3:
        pkt.scenario = "hop-limit";
        ip.hop_limit = 1;
        break;
      case 4:
        // Oversized datagram: the Packet Too Big trigger, and the case
        // that exercises the error-excerpt cap at the minimum IPv6 MTU.
        pkt.scenario = "too-big";
        break;
      case 5:
        pkt.scenario = "param-problem";
        break;
      case 6:
        pkt.scenario = "addr-unreachable";
        ip.dst = net::Ip6Addr::from_groups(0x2001, 0xdb8, 0xdead, 0, 0, 0, 0,
                                           static_cast<std::uint16_t>(
                                               1 + rng.below(250)));
        break;
      default:
        pkt.scenario = "udp-closed-port";
        break;
    }
    // The error-sender triggers are all UDP-in-IPv6 datagrams; only size
    // and header knobs differ per scenario.
    ip.next_header = 17;
    const std::size_t payload_bytes = pkt.scenario == "too-big"
                                          ? 1400 + rng.below(600)
                                          : rng.below(64);
    std::vector<std::uint8_t> udp(8, 0);
    util::put_be16({udp.data() + 0, 2},
                   static_cast<std::uint16_t>(33000 + rng.below(1000)));
    util::put_be16({udp.data() + 2, 2}, 33434);
    const auto payload = random_bytes(rng, payload_bytes);
    udp.insert(udp.end(), payload.begin(), payload.end());
    util::put_be16({udp.data() + 4, 2},
                   static_cast<std::uint16_t>(udp.size()));
    pkt.bytes = net::build_ipv6_packet(ip, udp);
    return pkt;
  }

  if (protocol_ == "dhcp") {
    // A DHCPOFFER-shaped message: 240-byte fixed image (incl. the RFC
    // 2132 magic cookie) followed by a TLV options region.
    pkt.scenario = "offer";
    std::vector<std::uint8_t> msg(240, 0);
    msg[0] = 2;  // op = BOOTREPLY
    msg[1] = 1;  // htype = ethernet
    msg[2] = 6;  // hlen
    util::put_be32({msg.data() + 4, 4}, static_cast<std::uint32_t>(rng.next()));
    util::put_be32({msg.data() + 16, 4}, 0x0a000164);  // yiaddr
    util::put_be32({msg.data() + 236, 4}, 0x63825363);
    using schema::OptionsView;
    OptionsView::append_scalar(msg, 53, 2, 1);  // message type = offer
    if (rng.below(2) != 0) OptionsView::append_scalar(msg, 1, 0xffffff00, 4);
    if (rng.below(2) != 0) {
      OptionsView::append_scalar(msg, 51,
                                 static_cast<long>(rng.below(1u << 24)), 4);
    }
    if (rng.below(2) != 0) OptionsView::append_scalar(msg, 54, 0x0a000101, 4);
    if (rng.below(2) != 0) {
      OptionsView::append(msg, 55, random_bytes(rng, 1 + rng.below(6)));
    }
    OptionsView::append_end(msg);
    pkt.bytes = std::move(msg);
    return pkt;
  }

  if (protocol_ == "igmp") {
    pkt.scenario = "membership-report";
    net::IgmpMessage igmp;
    igmp.version = 1;
    igmp.type = net::IgmpType::kHostMembershipReport;
    igmp.group_address = net::IpAddr(
        224, 0, 0, static_cast<std::uint8_t>(1 + rng.below(250)));
    pkt.bytes = wrap_ip(2, client_addr(), igmp.group_address, 1, 0,
                        igmp.serialize());
    return pkt;
  }

  if (protocol_ == "ntp" || protocol_ == "udp") {
    net::UdpHeader udp;
    udp.src_port = static_cast<std::uint16_t>(49152 + rng.below(1000));
    std::vector<std::uint8_t> payload;
    if (protocol_ == "ntp") {
      pkt.scenario = "client-request";
      udp.dst_port = net::kNtpPort;
      net::NtpPacket ntp;
      ntp.version = 1;
      ntp.mode = net::NtpMode::kClient;
      ntp.stratum = static_cast<std::uint8_t>(rng.below(16));
      ntp.poll = 6;
      ntp.precision = -6;
      ntp.root_delay = static_cast<std::uint32_t>(rng.next());
      ntp.root_dispersion = static_cast<std::uint32_t>(rng.next());
      ntp.reference_clock_id = static_cast<std::uint32_t>(rng.next());
      ntp.reference_timestamp.seconds = static_cast<std::uint32_t>(rng.next());
      ntp.originate_timestamp.seconds = static_cast<std::uint32_t>(rng.next());
      ntp.receive_timestamp.seconds = static_cast<std::uint32_t>(rng.next());
      ntp.transmit_timestamp.seconds = static_cast<std::uint32_t>(rng.next());
      payload = ntp.serialize();
    } else {
      static const std::uint16_t kPorts[] = {33434, 123, 7};
      pkt.scenario = "datagram";
      udp.dst_port = kPorts[rng.below(3)];
      payload = random_bytes(rng, rng.below(32));
    }
    pkt.bytes = wrap_ip(17, client_addr(), server1_addr(), 64, 0,
                        udp.serialize(client_addr(), server1_addr(), payload));
    return pkt;
  }

  if (protocol_ == "bfd") {
    pkt.scenario = "control";
    net::BfdControlPacket bfd;
    bfd.version = 1;
    bfd.state = static_cast<net::BfdState>(rng.below(4));
    bfd.diag = static_cast<net::BfdDiag>(rng.below(8));
    bfd.detect_mult = static_cast<std::uint8_t>(1 + rng.below(5));
    bfd.my_discriminator = static_cast<std::uint32_t>(rng.next());
    bfd.your_discriminator = static_cast<std::uint32_t>(rng.next());
    bfd.desired_min_tx_interval = static_cast<std::uint32_t>(rng.below(1u << 24));
    bfd.required_min_rx_interval = static_cast<std::uint32_t>(rng.below(1u << 24));
    pkt.bytes = bfd.serialize();
    return pkt;
  }

  pkt.scenario = "unknown-protocol";
  return pkt;
}

void PacketGenerator::mutate(FuzzPacket& pkt, Rng& rng) const {
  if (pkt.bytes.empty()) return;
  const auto layers = layer_layout(pkt.protocol, pkt.bytes);
  // ~35% of inputs stay valid so agreeing-reply coverage never starves.
  if (rng.below(100) < 35) return;
  // Layers with a TLV options region draw from the widened taxonomy; the
  // fixed-header protocols keep the original 7-kind stream so their
  // pinned digests are unchanged.
  const auto* tlv_layer =
      pkt.protocol == "dhcp" ? schema::SchemaRegistry::instance().layer("dhcp")
                             : nullptr;
  const bool has_tlv_region =
      tlv_layer != nullptr && tlv_layer->has_options &&
      pkt.bytes.size() > tlv_layer->options_offset;
  pkt.mutation =
      static_cast<MutationKind>(1 + rng.below(has_tlv_region ? 11 : 7));

  switch (pkt.mutation) {
    case MutationKind::kBoundary: {
      const auto& at = layers[rng.below(layers.size())];
      auto img = layer_image(std::span(pkt.bytes), at);
      if (at.spec == nullptr) return;
      const auto fields = scalar_fields(*at.spec);
      if (fields.empty()) return;
      const auto* f = fields[rng.below(fields.size())];
      const std::uint64_t max =
          f->bit_width >= 64 ? ~0ULL : (1ULL << f->bit_width) - 1;
      const std::uint64_t kBoundaries[] = {0, 1, max, max - 1,
                                           1ULL << (f->bit_width - 1)};
      schema::SchemaRegistry::write_scalar(
          *f, img, static_cast<long>(kBoundaries[rng.below(5)]));
      return;
    }
    case MutationKind::kBitFlip: {
      const std::size_t flips = 1 + rng.below(8);
      for (std::size_t i = 0; i < flips; ++i) {
        const std::size_t bit = rng.below(pkt.bytes.size() * 8);
        pkt.bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      }
      return;
    }
    case MutationKind::kFieldSwap: {
      const auto& at = layers[rng.below(layers.size())];
      auto img = layer_image(std::span(pkt.bytes), at);
      if (at.spec == nullptr) return;
      const auto fields = scalar_fields(*at.spec);
      if (fields.size() < 2) return;
      const auto* a = fields[rng.below(fields.size())];
      const auto* b = fields[rng.below(fields.size())];
      const auto va = schema::SchemaRegistry::read_scalar(*a, img);
      const auto vb = schema::SchemaRegistry::read_scalar(*b, img);
      if (!va || !vb) return;
      schema::SchemaRegistry::write_scalar(*a, img, *vb);
      schema::SchemaRegistry::write_scalar(*b, img, *va);
      return;
    }
    case MutationKind::kTruncate: {
      if (pkt.bytes.size() <= 1) return;
      pkt.bytes.resize(1 + rng.below(pkt.bytes.size() - 1));
      return;
    }
    case MutationKind::kOversizePayload: {
      const auto extra = random_bytes(rng, 1 + rng.below(600));
      pkt.bytes.insert(pkt.bytes.end(), extra.begin(), extra.end());
      return;
    }
    case MutationKind::kBadChecksum: {
      // Corrupt the innermost declared checksum field; fall back to the
      // IP header checksum (BFD declares none -> flip a byte instead).
      for (auto it = layers.rbegin(); it != layers.rend(); ++it) {
        if (it->spec == nullptr) continue;
        const auto* f = find_field(*it->spec, "checksum");
        if (f == nullptr) continue;
        auto img = layer_image(std::span(pkt.bytes), *it);
        const auto v = schema::SchemaRegistry::read_scalar(*f, img);
        if (!v) return;
        schema::SchemaRegistry::write_scalar(*f, img, *v ^ 0x5a5a);
        return;
      }
      pkt.bytes[rng.below(pkt.bytes.size())] ^= 0xa5;
      return;
    }
    case MutationKind::kBadVersion: {
      // Innermost declared version field first (ntp/igmp/bfd), falling
      // back to ip.version.
      for (auto it = layers.rbegin(); it != layers.rend(); ++it) {
        if (it->spec == nullptr) continue;
        const auto* f = find_field(*it->spec, "version");
        if (f == nullptr) continue;
        auto img = layer_image(std::span(pkt.bytes), *it);
        schema::SchemaRegistry::write_scalar(
            *f, img, static_cast<long>(rng.below(1ULL << f->bit_width)));
        return;
      }
      return;
    }
    case MutationKind::kTlvInsert:
    case MutationKind::kTlvDelete:
    case MutationKind::kTlvDuplicate:
    case MutationKind::kTlvLengthLie: {
      if (!has_tlv_region) return;
      const auto options = tlv_positions(pkt.bytes, tlv_layer->options_offset,
                                         tlv_layer->option_pad,
                                         tlv_layer->option_end);
      if (pkt.mutation == MutationKind::kTlvInsert) {
        // Splice a fresh option at a random option boundary (including
        // the region start and the end of the well-formed prefix).
        std::size_t at = tlv_layer->options_offset;
        if (!options.empty()) {
          const std::size_t slot = rng.below(options.size() + 1);
          at = slot == options.size()
                   ? options.back().pos + options.back().len
                   : options[slot].pos;
        }
        const auto value = random_bytes(rng, rng.below(9));
        std::vector<std::uint8_t> option;
        option.push_back(static_cast<std::uint8_t>(1 + rng.below(254)));
        option.push_back(static_cast<std::uint8_t>(value.size()));
        option.insert(option.end(), value.begin(), value.end());
        pkt.bytes.insert(pkt.bytes.begin() + static_cast<long>(at),
                         option.begin(), option.end());
        return;
      }
      if (options.empty()) return;
      const auto& target = options[rng.below(options.size())];
      if (pkt.mutation == MutationKind::kTlvDelete) {
        pkt.bytes.erase(
            pkt.bytes.begin() + static_cast<long>(target.pos),
            pkt.bytes.begin() + static_cast<long>(target.pos + target.len));
        return;
      }
      if (pkt.mutation == MutationKind::kTlvDuplicate) {
        const std::vector<std::uint8_t> copy(
            pkt.bytes.begin() + static_cast<long>(target.pos),
            pkt.bytes.begin() + static_cast<long>(target.pos + target.len));
        pkt.bytes.insert(
            pkt.bytes.begin() + static_cast<long>(target.pos + target.len),
            copy.begin(), copy.end());
        return;
      }
      // kTlvLengthLie: the length byte claims more bytes than remain
      // after it — the malformation OptionsView must flag, never read
      // through.
      const std::size_t remaining = pkt.bytes.size() - target.pos - 2;
      pkt.bytes[target.pos + 1] = static_cast<std::uint8_t>(
          std::min<std::size_t>(255, remaining + 1 + rng.below(100)));
      return;
    }
    default:
      return;
  }
}

FuzzPacket PacketGenerator::generate(Rng& rng) const {
  FuzzPacket pkt = base_packet(rng);
  mutate(pkt, rng);
  return pkt;
}

std::vector<LayerAt> layer_layout(std::string_view protocol,
                                  std::span<const std::uint8_t> bytes) {
  const auto& reg = schema::SchemaRegistry::instance();
  std::vector<LayerAt> out;
  if (protocol == "bfd") {
    out.push_back({reg.layer("bfd"), 0});
    return out;
  }
  if (protocol == "dhcp") {
    out.push_back({reg.layer("dhcp"), 0});
    return out;
  }
  if (protocol == "icmp6") {
    out.push_back({reg.layer("ip6"), 0});
    const auto ip6 = net::Ipv6Header::parse(bytes);
    if (ip6 && ip6->next_header == net::kIpProtoIcmp6) {
      out.push_back({reg.layer("icmp6"), net::Ipv6Header::kHeaderBytes});
    }
    return out;
  }
  out.push_back({reg.layer("ip"), 0});
  const auto ip = net::Ipv4Header::parse(bytes);
  if (!ip) return out;
  const std::size_t hl = ip->header_length();
  if (protocol == "icmp") {
    out.push_back({reg.layer("icmp"), hl});
  } else if (protocol == "igmp") {
    out.push_back({reg.layer("igmp"), hl});
  } else if (protocol == "udp") {
    out.push_back({reg.layer("udp"), hl});
  } else if (protocol == "ntp") {
    out.push_back({reg.layer("udp"), hl});
    out.push_back({reg.layer("ntp"), hl + 8});
  }
  return out;
}

// ---- round-trip helpers ---------------------------------------------------

std::vector<std::uint8_t> random_layer_image(const schema::LayerSpec& layer,
                                             Rng& rng) {
  std::vector<std::uint8_t> image(layer.header_bytes, 0);
  for (const auto& f : layer.fields) {
    if (f.kind != schema::FieldKind::kScalar) continue;
    schema::SchemaRegistry::write_scalar(f, image,
                                         static_cast<long>(rng.next()));
  }
  return image;
}

std::vector<std::uint8_t> reserialize_layer(
    const schema::LayerSpec& layer, std::span<const std::uint8_t> image) {
  std::vector<std::uint8_t> out(layer.header_bytes, 0);
  for (const auto& f : layer.fields) {
    if (f.kind != schema::FieldKind::kScalar) continue;
    const auto v = schema::SchemaRegistry::read_scalar(f, image);
    if (v) schema::SchemaRegistry::write_scalar(f, out, *v);
  }
  return out;
}

RebuiltImages images_from_decode(const std::vector<std::string>& lines) {
  const auto& reg = schema::SchemaRegistry::instance();
  RebuiltImages out;
  for (const auto& line : lines) {
    const auto dot = line.find('.');
    const auto eq = line.find(" = ");
    if (dot == std::string::npos || eq == std::string::npos || dot > eq) {
      out.complete = false;
      continue;
    }
    const std::string layer_name = line.substr(0, dot);
    const std::string field_name = line.substr(dot + 1, eq - dot - 1);
    const std::string value_text = line.substr(eq + 3);
    const auto* layer = reg.layer(layer_name);
    const auto* field = reg.field(layer_name, field_name);
    if (layer == nullptr || field == nullptr) {
      out.complete = false;
      continue;
    }
    char* end = nullptr;
    const long value = std::strtol(value_text.c_str(), &end, 10);
    if (end == value_text.c_str() || *end != '\0') {
      out.complete = false;  // "<short read>" and friends
      continue;
    }
    auto* entry = [&]() -> std::vector<std::uint8_t>* {
      for (auto& [name, image] : out.layers) {
        if (name == layer_name) return &image;
      }
      out.layers.emplace_back(layer_name,
                              std::vector<std::uint8_t>(layer->header_bytes, 0));
      return &out.layers.back().second;
    }();
    schema::SchemaRegistry::write_scalar(*field, *entry, value);
  }
  return out;
}

}  // namespace sage::fuzz
