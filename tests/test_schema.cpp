// Tests for the packet-schema registry (net/schema.hpp): per-entry
// round-trip properties, width/offset consistency against the real
// serializers, the shared FNV-1a symbol hash, and the SchemaExecEnv
// behaviors the registry newly makes possible (honored PacketSel on
// NTP, schema-driven packet decode).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "codegen/ir.hpp"
#include "net/bfd.hpp"
#include "net/icmp.hpp"
#include "net/igmp.hpp"
#include "net/ntp.hpp"
#include "net/schema.hpp"
#include "net/udp.hpp"
#include "net/wire_image.hpp"
#include "runtime/schema_env.hpp"
#include "sim/inspector.hpp"
#include "sim/ping.hpp"
#include "util/arena.hpp"
#include "util/symbols.hpp"

namespace sage {
namespace {

using net::schema::FieldKind;
using net::schema::FieldLoc;
using net::schema::SchemaRegistry;

// ---- symbol_value (util/symbols.hpp) ---------------------------------------

TEST(SymbolValue, PinnedFnv1aValues) {
  // FNV-1a over the lowercased name, masked to 31 bits. These exact
  // values are baked into generated comparisons ("scenario ==
  // SYM_NET_UNREACHABLE") and into the run-signature goldens; changing
  // the hash changes generated behavior.
  EXPECT_EQ(util::symbol_value("net unreachable"), 487613614L);
  EXPECT_EQ(util::symbol_value("port unreachable"), 692713628L);
  EXPECT_EQ(util::symbol_value("echo"), 637813092L);
  EXPECT_EQ(util::symbol_value("Up"), 895932800L);
}

TEST(SymbolValue, CaseInsensitive) {
  EXPECT_EQ(util::symbol_value("Net Unreachable"),
            util::symbol_value("net unreachable"));
  EXPECT_EQ(util::symbol_value("ADMINDOWN"), util::symbol_value("admindown"));
}

TEST(SymbolValue, FitsInPositive31Bits) {
  for (const char* name : {"a", "source quench", "redirect", "timestamp"}) {
    const long v = util::symbol_value(name);
    EXPECT_GE(v, 0L) << name;
    EXPECT_LE(v, 0x7fffffffL) << name;
  }
}

// ---- registry shape --------------------------------------------------------

TEST(SchemaRegistry, IdsAreDenseAndConsistent) {
  const auto& reg = SchemaRegistry::instance();
  std::size_t counted = 0;
  for (const auto& layer : reg.layers()) {
    for (const auto& field : layer.fields) {
      ++counted;
      ASSERT_GE(field.id, 0) << layer.name << "." << field.name;
      const auto* by_id = reg.field_by_id(field.id);
      ASSERT_NE(by_id, nullptr);
      EXPECT_EQ(by_id, &field);
      const auto* owner = reg.layer_by_id(field.id);
      ASSERT_NE(owner, nullptr);
      EXPECT_EQ(owner->name, layer.name);
    }
  }
  EXPECT_EQ(counted, reg.field_count());
  EXPECT_EQ(reg.field_by_id(-1), nullptr);
  EXPECT_EQ(reg.field_by_id(static_cast<int>(reg.field_count())), nullptr);
}

TEST(SchemaRegistry, WireFieldsFitTheirHeader) {
  const auto& reg = SchemaRegistry::instance();
  for (const auto& layer : reg.layers()) {
    for (const auto& field : layer.fields) {
      if (field.kind != FieldKind::kScalar) continue;
      EXPECT_GT(field.bit_width, 0u) << layer.name << "." << field.name;
      EXPECT_LE(field.bit_width, 32u) << layer.name << "." << field.name;
      if (field.loc == FieldLoc::kTlvOption) {
        // TLV scalars live in the options region, not the fixed header;
        // their offset is relative to the option value.
        EXPECT_TRUE(layer.has_options) << layer.name << "." << field.name;
        continue;
      }
      EXPECT_LE(field.bit_offset + field.bit_width, layer.header_bytes * 8)
          << layer.name << "." << field.name;
    }
  }
}

TEST(SchemaRegistry, PayloadScalarsRequireAPayload) {
  const auto& reg = SchemaRegistry::instance();
  for (const auto& layer : reg.layers()) {
    const bool has_bytes_field =
        std::any_of(layer.fields.begin(), layer.fields.end(),
                    [](const auto& f) { return f.kind == FieldKind::kBytes; });
    for (const auto& field : layer.fields) {
      if (field.kind == FieldKind::kPayloadScalar) {
        EXPECT_TRUE(layer.has_payload) << layer.name << "." << field.name;
      }
      if (field.kind == FieldKind::kBytes &&
          field.loc != FieldLoc::kLengthPrefixed) {
        EXPECT_TRUE(layer.has_payload) << layer.name << "." << field.name;
      }
    }
    if (!layer.payload_patterns.empty()) {
      EXPECT_TRUE(has_bytes_field) << layer.name;
    }
  }
}

TEST(SchemaRegistry, ProtocolsBindKnownLayersAndFields) {
  const auto& reg = SchemaRegistry::instance();
  ASSERT_FALSE(reg.protocols().empty());
  for (const auto& proto : reg.protocols()) {
    for (const auto& layer_name : proto.layers) {
      EXPECT_NE(reg.layer(layer_name), nullptr)
          << proto.protocol << " binds unknown layer " << layer_name;
    }
    for (const auto& d : proto.defaults) {
      EXPECT_NE(reg.field(d.layer, d.field), nullptr)
          << proto.protocol << " defaults unknown field " << d.layer << "."
          << d.field;
    }
    for (const auto& sym : proto.symbols) {
      // Symbol names are stored lowercased (resolve is case-insensitive).
      std::string lower = sym.name;
      std::transform(lower.begin(), lower.end(), lower.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      EXPECT_EQ(sym.name, lower) << proto.protocol;
    }
  }
  for (const char* name : {"ICMP", "IGMP", "NTP", "BFD", "TCP"}) {
    EXPECT_NE(reg.protocol(name), nullptr) << name;
  }
}

TEST(SchemaRegistry, PayloadPatternFallbackResolvesExcerptNames) {
  const auto& reg = SchemaRegistry::instance();
  const auto* spec =
      reg.field("icmp", "internet_header_64_bits_of_original_data_datagram");
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(spec->kind, FieldKind::kBytes);
  EXPECT_EQ(reg.field("icmp", "bogus_field_name"), nullptr);
  EXPECT_EQ(reg.field("no_such_layer", "type"), nullptr);
}

// ---- per-entry scalar round-trip property ----------------------------------

TEST(SchemaRegistry, EveryWireScalarRoundTripsThroughItsImage) {
  const auto& reg = SchemaRegistry::instance();
  for (const auto& layer : reg.layers()) {
    if (layer.header_bytes == 0) continue;
    for (const auto& field : layer.fields) {
      if (field.kind != FieldKind::kScalar) continue;
      if (field.loc == FieldLoc::kTlvOption) {
        // Option-resident scalars have no fixed offset; the direct
        // scalar accessors must refuse them rather than misread bits.
        std::vector<std::uint8_t> image(layer.header_bytes, 0);
        EXPECT_FALSE(SchemaRegistry::read_scalar(field, image).has_value())
            << layer.name << "." << field.name;
        EXPECT_FALSE(SchemaRegistry::write_scalar(field, image, 1))
            << layer.name << "." << field.name;
        continue;
      }
      std::vector<std::uint8_t> image(layer.header_bytes, 0);
      // An alternating pattern that exercises every bit position.
      for (const long pattern : {0x5555555555L, 0x2aaaaaaaaaL, 1L, 0L}) {
        const long masked =
            field.bit_width >= 64
                ? pattern
                : pattern & ((1L << field.bit_width) - 1);
        ASSERT_TRUE(SchemaRegistry::write_scalar(field, image, pattern))
            << layer.name << "." << field.name;
        const auto back = SchemaRegistry::read_scalar(field, image);
        ASSERT_TRUE(back.has_value()) << layer.name << "." << field.name;
        long expect = masked;
        if (field.is_signed && field.bit_width < 64 &&
            (masked & (1L << (field.bit_width - 1))) != 0) {
          expect = masked - (1L << field.bit_width);
        }
        EXPECT_EQ(*back, expect) << layer.name << "." << field.name;
      }
      // Writes must not disturb a too-short image, reads must refuse one.
      std::vector<std::uint8_t> short_image(
          (field.bit_offset + field.bit_width - 1) / 8, 0);
      EXPECT_FALSE(SchemaRegistry::read_scalar(field, short_image).has_value())
          << layer.name << "." << field.name;
    }
  }
}

// ---- offsets agree with the real serializers -------------------------------

TEST(SchemaRegistry, IcmpOffsetsMatchSerializer) {
  net::IcmpMessage msg;
  msg.type = net::IcmpType::kEcho;
  msg.code = 0;
  msg.set_identifier(0x2a17);
  msg.set_sequence_number(7);
  const auto bytes = msg.serialize();
  const auto& reg = SchemaRegistry::instance();
  EXPECT_EQ(reg.read_wire("icmp", "type", bytes).value, 8);
  EXPECT_EQ(reg.read_wire("icmp", "code", bytes).value, 0);
  EXPECT_EQ(reg.read_wire("icmp", "identifier", bytes).value, 0x2a17);
  EXPECT_EQ(reg.read_wire("icmp", "sequence_number", bytes).value, 7);

  net::IcmpMessage redirect;
  redirect.type = net::IcmpType::kRedirect;
  redirect.set_gateway_address(net::IpAddr(10, 0, 1, 50));
  const auto rbytes = redirect.serialize();
  EXPECT_EQ(reg.read_wire("icmp", "gateway_internet_address", rbytes).value,
            static_cast<long>(net::IpAddr(10, 0, 1, 50).value()));

  net::IcmpMessage param;
  param.type = net::IcmpType::kParameterProblem;
  param.set_pointer(20);
  const auto pbytes = param.serialize();
  EXPECT_EQ(reg.read_wire("icmp", "pointer", pbytes).value, 20);
}

TEST(SchemaRegistry, IgmpOffsetsMatchSerializer) {
  net::IgmpMessage msg;
  msg.version = 1;
  msg.type = net::IgmpType::kHostMembershipReport;
  msg.group_address = net::IpAddr(224, 1, 2, 3);
  const auto bytes = msg.serialize();
  const auto& reg = SchemaRegistry::instance();
  EXPECT_EQ(reg.read_wire("igmp", "version", bytes).value, 1);
  EXPECT_EQ(reg.read_wire("igmp", "type", bytes).value,
            static_cast<long>(net::IgmpType::kHostMembershipReport));
  EXPECT_EQ(reg.read_wire("igmp", "group_address", bytes).value,
            static_cast<long>(net::IpAddr(224, 1, 2, 3).value()));
  // Checksum read must match the serializer's computed value.
  const auto parsed = net::IgmpMessage::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(reg.read_wire("igmp", "checksum", bytes).value, parsed->checksum);
}

TEST(SchemaRegistry, NtpOffsetsMatchSerializer) {
  net::NtpPacket pkt;
  pkt.leap_indicator = 1;
  pkt.version = 3;
  pkt.mode = net::NtpMode::kServer;
  pkt.stratum = 2;
  pkt.poll = 6;
  pkt.precision = -6;
  pkt.transmit_timestamp.seconds = 0x83aa7e80;
  const auto bytes = pkt.serialize();
  const auto& reg = SchemaRegistry::instance();
  EXPECT_EQ(reg.read_wire("ntp", "leap_indicator", bytes).value, 1);
  EXPECT_EQ(reg.read_wire("ntp", "version", bytes).value, 3);
  EXPECT_EQ(reg.read_wire("ntp", "mode", bytes).value,
            static_cast<long>(net::NtpMode::kServer));
  EXPECT_EQ(reg.read_wire("ntp", "stratum", bytes).value, 2);
  EXPECT_EQ(reg.read_wire("ntp", "poll", bytes).value, 6);
  // precision is sign-extended on read (schema is_signed).
  EXPECT_EQ(reg.read_wire("ntp", "precision", bytes).value, -6);
  EXPECT_EQ(reg.read_wire("ntp", "transmit_timestamp", bytes).value,
            0x83aa7e80L);
}

TEST(SchemaRegistry, BfdOffsetsMatchSerializer) {
  net::BfdControlPacket pkt;
  pkt.state = net::BfdState::kInit;
  pkt.poll = true;
  pkt.demand = true;
  pkt.detect_mult = 5;
  pkt.my_discriminator = 42;
  pkt.your_discriminator = 99;
  pkt.desired_min_tx_interval = 250000;
  pkt.required_min_rx_interval = 300000;
  const auto bytes = pkt.serialize();
  const auto& reg = SchemaRegistry::instance();
  EXPECT_EQ(reg.read_wire("bfd", "state", bytes).value,
            static_cast<long>(net::BfdState::kInit));
  EXPECT_EQ(reg.read_wire("bfd", "poll_bit", bytes).value, 1);
  EXPECT_EQ(reg.read_wire("bfd", "demand_bit", bytes).value, 1);
  EXPECT_EQ(reg.read_wire("bfd", "multipoint_bit", bytes).value, 0);
  EXPECT_EQ(reg.read_wire("bfd", "detect_mult_field", bytes).value, 5);
  EXPECT_EQ(reg.read_wire("bfd", "my_discriminator", bytes).value, 42);
  EXPECT_EQ(reg.read_wire("bfd", "your_discriminator", bytes).value, 99);
  EXPECT_EQ(reg.read_wire("bfd", "required_min_rx_interval_field", bytes).value,
            300000);
}

TEST(SchemaRegistry, UdpOffsetsMatchSerializer) {
  net::UdpHeader udp;
  udp.src_port = 49152;
  udp.dst_port = net::kNtpPort;
  const std::vector<std::uint8_t> payload(8, 0xab);
  const auto bytes = udp.serialize(net::IpAddr(10, 0, 1, 100),
                                   net::IpAddr(10, 0, 1, 1), payload);
  const auto& reg = SchemaRegistry::instance();
  EXPECT_EQ(reg.read_wire("udp", "src_port", bytes).value, 49152);
  EXPECT_EQ(reg.read_wire("udp", "dst_port", bytes).value, net::kNtpPort);
  EXPECT_EQ(reg.read_wire("udp", "length", bytes).value,
            static_cast<long>(8 + payload.size()));
}

// ---- NTP PacketSel regression (the legacy env discarded the selector) ------

TEST(SchemaEnv, NtpHonorsPacketSelector) {
  net::NtpPacket incoming;
  incoming.mode = net::NtpMode::kClient;
  incoming.transmit_timestamp.seconds = 0x11111111;
  auto env = runtime::SchemaExecEnv::ntp(net::IpAddr(10, 0, 1, 100),
                                         0x83aa7e80, incoming);

  using codegen::PacketSel;
  // Incoming reads see the client's packet...
  EXPECT_EQ(*env.read_field({"ntp", "transmit_timestamp"},
                            PacketSel::kIncoming),
            0x11111111L);
  EXPECT_EQ(*env.read_field({"ntp", "mode"}, PacketSel::kIncoming),
            static_cast<long>(net::NtpMode::kClient));

  // ...writes land only in the outgoing image...
  ASSERT_TRUE(env.write_field({"ntp", "transmit_timestamp"}, 0x22222222));
  EXPECT_EQ(*env.read_field({"ntp", "transmit_timestamp"},
                            PacketSel::kOutgoing),
            0x22222222L);
  // ...and the incoming packet still reads its original value.
  EXPECT_EQ(*env.read_field({"ntp", "transmit_timestamp"},
                            PacketSel::kIncoming),
            0x11111111L);
}

// ---- schema-driven decode (inspector / tools) ------------------------------

TEST(SchemaDecode, EchoRequestRendersKnownFields) {
  const auto request = sim::PingClient::make_echo_request(
      net::IpAddr(10, 0, 1, 100), net::IpAddr(10, 0, 1, 1), {});
  const auto lines = sim::PacketInspector().decode(request);
  const auto has = [&lines](const std::string& needle) {
    return std::any_of(lines.begin(), lines.end(),
                       [&needle](const std::string& line) {
                         return line.find(needle) != std::string::npos;
                       });
  };
  EXPECT_TRUE(has("ip.ttl = 64"));
  EXPECT_TRUE(has("ip.protocol = 1"));
  EXPECT_TRUE(has("icmp.type = 8"));
  EXPECT_TRUE(has("icmp.code = 0"));
}

// ---- truncation (read_wire short-read status) ------------------------------

TEST(SchemaShortRead, TruncatedImageReportsShortNotZero) {
  // A 1-byte ICMP image holds the type and nothing else. Fields past the
  // end must come back kShortRead — the old behavior (zero-fill) let a
  // truncated packet impersonate "checksum = 0, identifier = 0".
  const auto& reg = SchemaRegistry::instance();
  const std::vector<std::uint8_t> one_byte{8};
  const auto type = reg.read_wire("icmp", "type", one_byte);
  ASSERT_TRUE(type.ok());
  EXPECT_EQ(type.value, 8);
  for (const auto* field : {"code", "checksum", "identifier", "sequence_number"}) {
    const auto r = reg.read_wire("icmp", field, one_byte);
    EXPECT_EQ(r.status, net::schema::ReadStatus::kShortRead) << field;
  }
  EXPECT_EQ(reg.read_wire("icmp", "bogus", one_byte).status,
            net::schema::ReadStatus::kUnknownField);
}

// ---- span/vector decode equivalence (zero-copy packet path) ----------------
//
// The arena/span refactor made every decode site accept spans — the
// simulator hands the inspector WireImage views straight into arena
// chunks instead of copied vectors. Property: for random layer images
// (truncated, exact, and overlong), decoding through an arena-backed
// span is indistinguishable from decoding the owning vector, field by
// field and line by line.

TEST(SchemaSpanDecode, MatchesVectorDecodeOnRandomImages) {
  const auto& reg = SchemaRegistry::instance();
  util::Arena arena;
  std::mt19937 rng(0x5A9E0007);
  for (const auto& proto : reg.protocols()) {
    for (const auto& layer_name : proto.layers) {
      const auto* layer = reg.layer(layer_name);
      ASSERT_NE(layer, nullptr) << proto.protocol << "/" << layer_name;
      if (layer->header_bytes == 0) continue;  // state-only, no wire image
      for (int iter = 0; iter < 1000; ++iter) {
        // Sweep truncated through overlong images so short-read
        // handling is covered, not just the happy path.
        const std::size_t len = rng() % (layer->header_bytes + 32);
        std::vector<std::uint8_t> vec(len);
        for (auto& b : vec) b = static_cast<std::uint8_t>(rng());

        const net::WireImage img(arena.intern(vec));
        ASSERT_TRUE(img == vec);

        for (const auto& field : layer->fields) {
          if (field.kind != net::schema::FieldKind::kScalar) continue;
          const auto via_span = reg.read_wire(layer->name, field.name, img);
          const auto via_vec = reg.read_wire(layer->name, field.name, vec);
          ASSERT_EQ(via_span.status, via_vec.status)
              << layer->name << "." << field.name << " len=" << len;
          ASSERT_EQ(via_span.value, via_vec.value)
              << layer->name << "." << field.name << " len=" << len;
        }
        ASSERT_EQ(reg.decode_layer(layer->name, img.span()),
                  reg.decode_layer(layer->name, vec))
            << layer->name << " len=" << len;
      }
      // One run's worth of images dies here, exactly as a Network's
      // per-run arena would; the next layer starts on reused chunks.
      arena.reset();
    }
  }
}

TEST(SchemaShortRead, DecodeRendersShortReadMarkers) {
  const auto& reg = SchemaRegistry::instance();
  const std::vector<std::uint8_t> one_byte{8};
  const auto lines = reg.decode_layer("icmp", one_byte);
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines[0], "icmp.type = 8");
  bool any_short = false;
  for (const auto& line : lines) {
    any_short |= line.find("<short read>") != std::string::npos;
    EXPECT_EQ(line.find("= 0"), std::string::npos)
        << "fabricated zero in: " << line;
  }
  EXPECT_TRUE(any_short);
}

}  // namespace
}  // namespace sage
