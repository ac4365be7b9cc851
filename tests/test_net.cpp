// Unit tests for sage::net — checksum, headers, pcap.
#include <gtest/gtest.h>

#include "net/bfd.hpp"
#include "net/checksum.hpp"
#include "net/icmp.hpp"
#include "net/igmp.hpp"
#include "net/ipv4.hpp"
#include "net/ntp.hpp"
#include "net/pcap.hpp"
#include "net/udp.hpp"

namespace sage::net {
namespace {

TEST(Checksum, Rfc1071Example) {
  // Classic RFC 1071 example: {0001, f203, f4f5, f6f7} -> sum 2ddf0 ->
  // folded ddf2, checksum ~ddf2 = 220d.
  const std::vector<std::uint8_t> data = {0x00, 0x01, 0xf2, 0x03,
                                          0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(ones_complement_sum(data), 0xddf2);
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(Checksum, OddLengthPadsWithZero) {
  const std::vector<std::uint8_t> even = {0x12, 0x34, 0x56, 0x00};
  const std::vector<std::uint8_t> odd = {0x12, 0x34, 0x56};
  EXPECT_EQ(ones_complement_sum(even), ones_complement_sum(odd));
}

TEST(Checksum, VerifiesToAllOnes) {
  std::vector<std::uint8_t> data = {0x45, 0x00, 0x00, 0x1c, 0xab, 0xcd};
  const std::uint16_t ck = internet_checksum(data);
  data.push_back(static_cast<std::uint8_t>(ck >> 8));
  data.push_back(static_cast<std::uint8_t>(ck & 0xff));
  EXPECT_EQ(ones_complement_sum(data), 0xffff);
}

TEST(Checksum, ChunkedSumMatchesWordByWordDefinition) {
  // ones_complement_sum adds 32-bit host-order chunks; it must equal the
  // RFC 1071 definition (big-endian 16-bit words, odd byte padded on the
  // right, end-around carries) for every length, alignment and initial,
  // including the all-zero and all-ones inputs whose folded sums sit on
  // the two one's-complement zeros.
  const auto definition = [](std::span<const std::uint8_t> data,
                             std::uint16_t initial) {
    std::uint32_t sum = initial;
    for (std::size_t i = 0; i < data.size(); i += 2) {
      sum += std::uint32_t{data[i]} << 8 |
             (i + 1 < data.size() ? data[i + 1] : 0);
    }
    while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
    return static_cast<std::uint16_t>(sum);
  };
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<std::uint8_t> buffer(1600 + 3);
  for (int trial = 0; trial < 4000; ++trial) {
    const std::size_t len = trial < 400 ? trial % 100 : next() % 1600;
    const std::size_t offset = next() % 4;
    const int fill = trial % 4;  // 0: zeros, 1: 0xff, else random
    for (auto& b : buffer) {
      b = fill == 0 ? 0 : fill == 1 ? 0xff : static_cast<std::uint8_t>(next());
    }
    const std::uint16_t initial =
        trial % 3 == 0 ? 0 : static_cast<std::uint16_t>(next());
    const std::span<const std::uint8_t> data(buffer.data() + offset, len);
    ASSERT_EQ(ones_complement_sum(data, initial), definition(data, initial))
        << "len " << len << " offset " << offset << " initial " << initial;
  }
}

TEST(Checksum, IncrementalUpdateMatchesRecompute) {
  // Patch one 16-bit word and compare incremental vs full recompute.
  std::vector<std::uint8_t> data = {0x45, 0x00, 0x00, 0x54, 0x40, 0x11};
  const std::uint16_t old_ck = internet_checksum(data);
  const std::uint16_t old_word = 0x4011;
  const std::uint16_t new_word = 0x3f11;  // TTL decremented
  data[4] = 0x3f;
  const std::uint16_t full = internet_checksum(data);
  EXPECT_EQ(incremental_checksum_update(old_ck, old_word, new_word), full);
}

TEST(IpAddr, ParseAndFormat) {
  const auto a = IpAddr::parse("10.0.1.100");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->to_string(), "10.0.1.100");
  EXPECT_EQ(a->value(), 0x0a000164U);
  EXPECT_FALSE(IpAddr::parse("10.0.1").has_value());
  EXPECT_FALSE(IpAddr::parse("10.0.1.256").has_value());
  EXPECT_FALSE(IpAddr::parse("10.0.one.1").has_value());
}

TEST(IpAddr, SameSubnet) {
  const IpAddr a(10, 0, 1, 1), b(10, 0, 1, 200), c(10, 0, 2, 1);
  EXPECT_TRUE(a.same_subnet(b, 24));
  EXPECT_FALSE(a.same_subnet(c, 24));
  EXPECT_TRUE(a.same_subnet(c, 16));
  EXPECT_TRUE(a.same_subnet(c, 0));
}

TEST(Ipv4, SerializeParseRoundTrip) {
  Ipv4Header hdr;
  hdr.tos = 0;
  hdr.identification = 0x1234;
  hdr.ttl = 63;
  hdr.protocol = static_cast<std::uint8_t>(IpProto::kIcmp);
  hdr.src = IpAddr(10, 0, 1, 100);
  hdr.dst = IpAddr(192, 168, 2, 100);

  std::vector<std::uint8_t> out;
  hdr.serialize(out, 8);
  ASSERT_EQ(out.size(), 20u);

  const auto parsed = Ipv4Header::parse(out);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->src, hdr.src);
  EXPECT_EQ(parsed->dst, hdr.dst);
  EXPECT_EQ(parsed->ttl, 63);
  EXPECT_EQ(parsed->total_length, 28);
  EXPECT_EQ(Ipv4Header::compute_checksum(out), parsed->checksum);
}

TEST(Ipv4, OptionsPaddedAndParsed) {
  Ipv4Header hdr;
  hdr.src = IpAddr(1, 2, 3, 4);
  hdr.dst = IpAddr(5, 6, 7, 8);
  hdr.options = {0x07, 0x04, 0x00};  // 3 bytes -> padded to 4
  std::vector<std::uint8_t> out;
  hdr.serialize(out, 0);
  EXPECT_EQ(out.size(), 24u);
  const auto parsed = Ipv4Header::parse(out);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->ihl, 6);
  EXPECT_EQ(parsed->options.size(), 4u);
}

TEST(Ipv4, ParseRejectsTruncatedAndNonV4) {
  std::vector<std::uint8_t> tiny(10, 0);
  EXPECT_FALSE(Ipv4Header::parse(tiny).has_value());
  std::vector<std::uint8_t> v6(20, 0);
  v6[0] = 0x65;
  EXPECT_FALSE(Ipv4Header::parse(v6).has_value());
}

TEST(Icmp, EchoRoundTrip) {
  IcmpMessage m;
  m.type = IcmpType::kEcho;
  m.set_identifier(0xbeef);
  m.set_sequence_number(7);
  m.payload = {1, 2, 3, 4, 5};
  const auto bytes = m.serialize();
  ASSERT_EQ(bytes.size(), 13u);
  EXPECT_TRUE(IcmpMessage::verify_checksum(bytes));

  const auto parsed = IcmpMessage::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, IcmpType::kEcho);
  EXPECT_EQ(parsed->identifier(), 0xbeef);
  EXPECT_EQ(parsed->sequence_number(), 7);
  EXPECT_EQ(parsed->payload, m.payload);
}

TEST(Icmp, ForcedChecksumFailsVerification) {
  IcmpMessage m;
  m.type = IcmpType::kEchoReply;
  m.payload = {9, 9};
  const auto bytes = m.serialize_with_checksum(0x1111);
  EXPECT_FALSE(IcmpMessage::verify_checksum(bytes));
}

TEST(Icmp, TimestampAccessors) {
  IcmpMessage m;
  m.type = IcmpType::kTimestampReply;
  m.set_timestamps(100, 200, 300);
  EXPECT_EQ(m.originate_timestamp(), 100u);
  EXPECT_EQ(m.receive_timestamp(), 200u);
  EXPECT_EQ(m.transmit_timestamp(), 300u);
  EXPECT_EQ(m.serialize().size(), 20u);
}

TEST(Icmp, GatewayAndPointerAccessors) {
  IcmpMessage m;
  m.set_gateway_address(IpAddr(10, 0, 1, 1));
  EXPECT_EQ(m.gateway_address(), IpAddr(10, 0, 1, 1));
  m.set_pointer(20);
  EXPECT_EQ(m.pointer(), 20);
}

TEST(Icmp, OriginalDatagramExcerptIsHeaderPlus64Bits) {
  Ipv4Header hdr;
  hdr.src = IpAddr(1, 1, 1, 1);
  hdr.dst = IpAddr(2, 2, 2, 2);
  std::vector<std::uint8_t> payload(100, 0xaa);
  const auto pkt = build_ipv4_packet(hdr, payload);
  const auto excerpt = original_datagram_excerpt(pkt);
  EXPECT_EQ(excerpt.size(), 20u + 8u);
}

TEST(Icmp, ExcerptOfShortDatagramTakesWhatExists) {
  Ipv4Header hdr;
  hdr.src = IpAddr(1, 1, 1, 1);
  hdr.dst = IpAddr(2, 2, 2, 2);
  std::vector<std::uint8_t> payload(3, 0xbb);
  const auto pkt = build_ipv4_packet(hdr, payload);
  EXPECT_EQ(original_datagram_excerpt(pkt).size(), 23u);
}

TEST(Icmp, TypeNames) {
  EXPECT_EQ(icmp_type_name(IcmpType::kEchoReply), "echo reply");
  EXPECT_EQ(icmp_type_name(IcmpType::kTimeExceeded), "time exceeded");
}

TEST(Igmp, RoundTripAndChecksum) {
  IgmpMessage m;
  m.type = IgmpType::kHostMembershipReport;
  m.group_address = IpAddr(224, 0, 0, 1);
  const auto bytes = m.serialize();
  ASSERT_EQ(bytes.size(), 8u);
  EXPECT_TRUE(IgmpMessage::verify_checksum(bytes));
  const auto parsed = IgmpMessage::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->version, 1);
  EXPECT_EQ(parsed->type, IgmpType::kHostMembershipReport);
  EXPECT_EQ(parsed->group_address, IpAddr(224, 0, 0, 1));
}

TEST(Udp, RoundTripWithPseudoHeaderChecksum) {
  UdpHeader udp;
  udp.src_port = 40000;
  udp.dst_port = 33434;
  const std::vector<std::uint8_t> payload = {1, 2, 3};
  const IpAddr src(10, 0, 1, 100), dst(192, 168, 2, 100);
  const auto bytes = udp.serialize(src, dst, payload);
  ASSERT_EQ(bytes.size(), 11u);
  EXPECT_TRUE(UdpHeader::verify_checksum(src, dst, bytes));
  // Corrupt a payload byte: checksum must fail.
  auto bad = bytes;
  bad[9] ^= 0xff;
  EXPECT_FALSE(UdpHeader::verify_checksum(src, dst, bad));
  const auto parsed = UdpHeader::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->src_port, 40000);
  EXPECT_EQ(parsed->length, 11);
}

TEST(Ntp, RoundTrip48Bytes) {
  NtpPacket p;
  p.version = 1;
  p.mode = NtpMode::kClient;
  p.stratum = 2;
  p.poll = 6;
  p.precision = -18;
  p.transmit_timestamp = {0x83aa7e80, 0x40000000};
  const auto bytes = p.serialize();
  ASSERT_EQ(bytes.size(), 48u);
  const auto parsed = NtpPacket::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->version, 1);
  EXPECT_EQ(parsed->mode, NtpMode::kClient);
  EXPECT_EQ(parsed->precision, -18);
  EXPECT_EQ(parsed->transmit_timestamp, p.transmit_timestamp);
}

TEST(Bfd, ControlPacketRoundTrip) {
  BfdControlPacket p;
  p.state = BfdState::kInit;
  p.poll = true;
  p.my_discriminator = 0x11223344;
  p.your_discriminator = 0x55667788;
  const auto bytes = p.serialize();
  ASSERT_EQ(bytes.size(), 24u);
  const auto parsed = BfdControlPacket::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->state, BfdState::kInit);
  EXPECT_TRUE(parsed->poll);
  EXPECT_FALSE(parsed->final);
  EXPECT_EQ(parsed->my_discriminator, 0x11223344U);
  EXPECT_EQ(parsed->your_discriminator, 0x55667788U);
}

TEST(Bfd, StateNames) {
  EXPECT_EQ(bfd_state_name(BfdState::kUp), "Up");
  EXPECT_EQ(bfd_state_name(BfdState::kAdminDown), "AdminDown");
}

TEST(Pcap, WriteParseRoundTrip) {
  PcapWriter w;
  const std::vector<std::uint8_t> p1 = {1, 2, 3};
  const std::vector<std::uint8_t> p2 = {4, 5};
  w.add_packet(p1, 10, 20);
  w.add_packet(p2, 11, 21);
  const auto bytes = w.to_bytes();
  const auto records = parse_pcap(bytes);
  ASSERT_TRUE(records.has_value());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].data, p1);
  EXPECT_EQ((*records)[1].ts_sec, 11u);
}

TEST(Pcap, RejectsTruncatedStream) {
  PcapWriter w;
  w.add_packet(std::vector<std::uint8_t>(10, 7));
  auto bytes = w.to_bytes();
  bytes.resize(bytes.size() - 3);
  EXPECT_FALSE(parse_pcap(bytes).has_value());
}

TEST(Pcap, RejectsBadMagic) {
  std::vector<std::uint8_t> junk(24, 0);
  EXPECT_FALSE(parse_pcap(junk).has_value());
}

}  // namespace
}  // namespace sage::net

namespace sage::net {
namespace {

TEST(Pcap, WriteFileRoundTrip) {
  PcapWriter w;
  const std::vector<std::uint8_t> payload = {0xde, 0xad, 0xbe, 0xef};
  w.add_packet(payload, 1, 2);
  const std::string path = ::testing::TempDir() + "sage_test.pcap";
  ASSERT_TRUE(w.write_file(path));

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::vector<std::uint8_t> bytes(4096);
  const std::size_t n = std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  bytes.resize(n);
  const auto records = parse_pcap(bytes);
  ASSERT_TRUE(records.has_value());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].data, payload);
  EXPECT_EQ((*records)[0].ts_sec, 1u);
}

TEST(Pcap, WriteFileFailsOnBadPath) {
  PcapWriter w;
  EXPECT_FALSE(w.write_file("/nonexistent-dir/x/y.pcap"));
}

}  // namespace
}  // namespace sage::net
