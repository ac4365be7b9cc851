#include "fuzz/differential.hpp"

#include <algorithm>
#include <exception>
#include <iomanip>
#include <sstream>
#include <string_view>

#include "core/generated_icmp.hpp"
#include "eval/interop_harness.hpp"
#include "net/bfd.hpp"
#include "net/icmp.hpp"
#include "net/igmp.hpp"
#include "net/ipv4.hpp"
#include "net/ipv6.hpp"
#include "net/ntp.hpp"
#include "net/udp.hpp"
#include "runtime/schema_env.hpp"
#include "sim/network.hpp"
#include "sim/reference_responder.hpp"
#include "sim/reference_responder6.hpp"
#include "util/bytes.hpp"
#include "util/thread_pool.hpp"

namespace sage::fuzz {

namespace {

using net::schema::FieldKind;
using net::schema::FieldSpec;
using net::schema::LayerSpec;
using net::schema::SchemaRegistry;

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
constexpr std::uint64_t kFaultSalt = 0x9e3779b97f4a7c15ULL;

std::uint64_t fnv_bytes(std::uint64_t h, std::span<const std::uint8_t> data) {
  for (const auto b : data) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv_text(std::uint64_t h, std::string_view text) {
  for (const char c : text) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
  // Separator so {"ab","c"} and {"a","bc"} hash apart.
  h ^= 0xff;
  h *= kFnvPrime;
  return h;
}

std::string hex64(std::uint64_t v) {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << v;
  return out.str();
}

std::string fmt_value(const std::optional<long>& v) {
  return v ? std::to_string(*v) : std::string("<none>");
}

std::optional<long> be32_at(std::span<const std::uint8_t> data,
                            std::size_t offset) {
  if (data.size() < offset + 4) return std::nullopt;
  return static_cast<long>((std::uint32_t{data[offset]} << 24) |
                           (std::uint32_t{data[offset + 1]} << 16) |
                           (std::uint32_t{data[offset + 2]} << 8) |
                           std::uint32_t{data[offset + 3]});
}

/// Canonicalize a struct-derived value the way read_scalar encodes the
/// field: mask to bit_width, then sign-extend when the spec is signed.
long canonical_value(long value, const FieldSpec& spec) {
  if (spec.bit_width >= 64) return value;
  const auto mask = (std::uint64_t{1} << spec.bit_width) - 1;
  auto v = static_cast<std::uint64_t>(value) & mask;
  if (spec.is_signed && (v & (std::uint64_t{1} << (spec.bit_width - 1))) != 0) {
    v |= ~mask;
  }
  return static_cast<long>(v);
}

/// Universal oracle 1: read→write→read stability for every full-length
/// layer image, plus inspector determinism. Holds for arbitrary bytes —
/// a violation means the schema reader and writer disagree about where a
/// field lives.
std::string structural_mismatch(const FuzzPacket& pkt) {
  for (const auto& slice : layer_layout(pkt.protocol, pkt.bytes)) {
    const auto image = layer_image(std::span(pkt.bytes), slice);
    if (slice.spec == nullptr || image.size() < slice.spec->header_bytes) {
      continue;  // truncated layer: field reads are nullopt by design
    }
    const auto rebuilt = reserialize_layer(*slice.spec, image);
    for (const auto& f : slice.spec->fields) {
      if (f.kind != FieldKind::kScalar) continue;
      const auto before = SchemaRegistry::read_scalar(f, image);
      const auto after = SchemaRegistry::read_scalar(f, rebuilt);
      if (before != after) {
        return "round-trip " + slice.spec->name + "." + f.name + " before=" +
               fmt_value(before) + " after=" + fmt_value(after);
      }
    }
  }
  const auto first = eval::decode_packet(pkt.bytes);
  const auto second = eval::decode_packet(pkt.bytes);
  if (first != second) return "inspector decode is not deterministic";
  return "";
}

/// ICMP oracle: the table-driven exec env (what generated code reads)
/// must agree with raw schema wire reads on the incoming message. This
/// is what pins the short-read semantics — a truncated header must read
/// as <none> on both sides, never as a fabricated zero.
std::string icmp_env_wire_mismatch(const FuzzPacket& pkt) {
  const auto ip = net::Ipv4Header::parse(pkt.bytes);
  if (!ip || ip->protocol != static_cast<std::uint8_t>(net::IpProto::kIcmp)) {
    return "";
  }
  // Receiver view (reply-by-mutation): the strict short-read semantics
  // apply. Error-sender envs deliberately blank unparseable payloads.
  auto env = runtime::SchemaExecEnv::icmp(pkt.bytes, net::IpAddr(10, 0, 1, 1),
                                          /*start_from_incoming=*/true);
  if (!env.valid()) return "";

  const std::span<const std::uint8_t> icmp_wire =
      std::span<const std::uint8_t>(pkt.bytes).subspan(ip->header_length());
  const auto* layer = SchemaRegistry::instance().layer("icmp");
  const auto image = icmp_wire.first(
      std::min<std::size_t>(icmp_wire.size(), layer->header_bytes));
  const std::span<const std::uint8_t> payload =
      icmp_wire.size() > layer->header_bytes
          ? icmp_wire.subspan(layer->header_bytes)
          : std::span<const std::uint8_t>{};

  for (const auto& f : layer->fields) {
    if (!f.readable) continue;
    std::optional<long> expected;
    if (f.kind == FieldKind::kScalar) {
      expected = SchemaRegistry::read_scalar(f, image);
    } else if (f.kind == FieldKind::kPayloadScalar) {
      if (icmp_wire.size() < layer->header_bytes) continue;  // no payload view
      expected = be32_at(payload, f.payload_offset);
    } else {
      continue;
    }
    codegen::FieldRef ref{"icmp", f.name, f.id};
    const auto got = env.read_field(ref, codegen::PacketSel::kIncoming);
    if (got != expected) {
      return "env-vs-wire icmp." + f.name + " env=" + fmt_value(got) +
             " wire=" + fmt_value(expected);
    }
  }
  return "";
}

/// One (field name, expected value) row of the struct-parser oracle.
struct ExpectedField {
  const char* name;
  long value;
};

std::string compare_expected(const LayerSpec& layer,
                             std::span<const std::uint8_t> image,
                             const std::vector<ExpectedField>& expected) {
  const auto& reg = SchemaRegistry::instance();
  for (const auto& e : expected) {
    const auto* spec = reg.field(layer.name, e.name);
    if (spec == nullptr) continue;
    const auto read = reg.read_wire(layer.name, e.name, image);
    if (!read.ok() || read.value != canonical_value(e.value, *spec)) {
      return "parser-vs-schema " + layer.name + "." + e.name + " struct=" +
             std::to_string(canonical_value(e.value, *spec)) +
             " schema=" +
             (read.ok() ? std::to_string(read.value)
                        : net::schema::read_status_name(read.status));
    }
  }
  return "";
}

/// Compare exec-env reads of `layer`'s readable wire scalars against raw
/// schema reads of `image` (the env's own canonical serialization).
std::string compare_env_wire(runtime::SchemaExecEnv& env, const LayerSpec& layer,
                             std::span<const std::uint8_t> image) {
  for (const auto& f : layer.fields) {
    if (f.kind != FieldKind::kScalar || !f.readable) continue;
    codegen::FieldRef ref{layer.name, f.name, f.id};
    const auto got = env.read_field(ref, codegen::PacketSel::kIncoming);
    const auto expected = SchemaRegistry::read_scalar(f, image);
    if (got != expected) {
      return "env-vs-wire " + layer.name + "." + f.name + " env=" +
             fmt_value(got) + " wire=" + fmt_value(expected);
    }
  }
  return "";
}

/// Protocol-specific oracles for the sender protocols (no reference
/// responder to diff against): the net/ struct parser, the schema
/// registry, and the exec env must tell one story about the same bytes.
/// `parsed` reports whether the primary parser accepted the input at all
/// (drives the agree-bytes vs agree-silent verdict).
std::string parser_mismatch(const FuzzPacket& pkt, bool* parsed) {
  *parsed = false;
  const auto& reg = SchemaRegistry::instance();
  const std::span<const std::uint8_t> bytes(pkt.bytes);

  if (pkt.protocol == "bfd") {
    const auto p = net::BfdControlPacket::parse(bytes);
    if (!p) return "";
    *parsed = true;
    const auto canonical = p->serialize();
    const std::vector<ExpectedField> expected = {
        {"version", p->version},
        {"diag", static_cast<long>(p->diag)},
        {"state", static_cast<long>(p->state)},
        {"poll_bit", p->poll ? 1 : 0},
        {"final_bit", p->final ? 1 : 0},
        {"demand_bit", p->demand ? 1 : 0},
        {"multipoint_bit", p->multipoint ? 1 : 0},
        {"detect_mult_field", p->detect_mult},
        {"my_discriminator", static_cast<long>(p->my_discriminator)},
        {"your_discriminator", static_cast<long>(p->your_discriminator)},
        {"required_min_rx_interval_field",
         static_cast<long>(p->required_min_rx_interval)},
    };
    const auto* layer = reg.layer("bfd");
    if (auto d = compare_expected(*layer, canonical, expected); !d.empty()) {
      return d;
    }
    net::BfdSessionState state;
    auto env = runtime::SchemaExecEnv::bfd(&state, &*p);
    return compare_env_wire(env, *layer, canonical);
  }

  if (pkt.protocol == "icmp6") {
    const auto ip6 = net::Ipv6Header::parse(bytes);
    if (!ip6) return "";
    *parsed = true;
    const std::vector<ExpectedField> expected = {
        {"version", ip6->version},
        {"traffic_class", ip6->traffic_class},
        {"flow_label", static_cast<long>(ip6->flow_label)},
        {"payload_length", ip6->payload_length},
        {"next_header", ip6->next_header},
        {"hop_limit", ip6->hop_limit},
    };
    return compare_expected(*reg.layer("ip6"),
                            bytes.first(net::Ipv6Header::kHeaderBytes),
                            expected);
  }

  if (pkt.protocol == "dhcp") {
    const auto* layer = reg.layer("dhcp");
    if (bytes.size() < layer->header_bytes) return "";
    if (util::get_be32(bytes.subspan(236, 4)) != 0x63825363u) return "";
    // TLV round-trip oracle: re-encoding the well-formed prefix of the
    // options region through OptionsView::append must yield a region the
    // view walks to the identical option sequence. A violation means the
    // TLV decoder and encoder disagree about the grammar.
    const net::schema::OptionsView view(*layer, bytes);
    std::vector<std::uint8_t> rebuilt(bytes.begin(),
                                      bytes.begin() + layer->options_offset);
    for (const auto& opt : view) {
      net::schema::OptionsView::append(rebuilt, opt.type, opt.value);
    }
    net::schema::OptionsView::append_end(rebuilt, layer->option_end);
    const net::schema::OptionsView reread(*layer, rebuilt);
    auto a = view.begin();
    auto b = reread.begin();
    for (; a != view.end() && b != reread.end(); ++a, ++b) {
      if (a->type != b->type ||
          !std::equal(a->value.begin(), a->value.end(), b->value.begin(),
                      b->value.end())) {
        return "dhcp TLV round-trip mismatch at option type " +
               std::to_string(a->type);
      }
    }
    if ((a != view.end()) || (b != reread.end())) {
      return "dhcp TLV round-trip option count mismatch";
    }
    if (!reread.ok()) {
      return "dhcp TLV re-encoded region malformed: " +
             net::schema::tlv_status_name(reread.status());
    }
    *parsed = view.ok();
    return "";
  }

  const auto ip = net::Ipv4Header::parse(bytes);
  if (!ip) return "";
  const auto payload = bytes.subspan(ip->header_length());

  if (pkt.protocol == "icmp") {
    const auto icmp = net::IcmpMessage::parse(payload);
    if (!icmp) return "";
    *parsed = true;
    const std::vector<ExpectedField> expected = {
        {"type", static_cast<long>(icmp->type)},
        {"code", icmp->code},
        {"checksum", icmp->checksum},
        {"identifier", icmp->identifier()},
        {"sequence_number", icmp->sequence_number()},
        {"gateway_internet_address",
         static_cast<long>(icmp->gateway_address().value())},
        {"pointer", icmp->pointer()},
    };
    return compare_expected(*reg.layer("icmp"), payload, expected);
  }

  if (pkt.protocol == "igmp") {
    const auto igmp = net::IgmpMessage::parse(payload);
    if (!igmp) return "";
    *parsed = true;
    const std::vector<ExpectedField> expected = {
        {"version", igmp->version},
        {"type", static_cast<long>(igmp->type)},
        {"unused", igmp->unused},
        {"checksum", igmp->checksum},
        {"group_address", static_cast<long>(igmp->group_address.value())},
    };
    return compare_expected(*reg.layer("igmp"), payload, expected);
  }

  if (pkt.protocol == "udp" || pkt.protocol == "ntp") {
    const auto udp = net::UdpHeader::parse(payload);
    if (!udp) return "";
    const std::vector<ExpectedField> udp_expected = {
        {"src_port", udp->src_port},
        {"dst_port", udp->dst_port},
        {"length", udp->length},
        {"checksum", udp->checksum},
    };
    if (auto d = compare_expected(*reg.layer("udp"), payload, udp_expected);
        !d.empty()) {
      return d;
    }
    if (pkt.protocol == "udp") {
      *parsed = true;
      return "";
    }
    const auto ntp_bytes = payload.size() > 8 ? payload.subspan(8)
                                              : std::span<const std::uint8_t>{};
    const auto ntp = net::NtpPacket::parse(ntp_bytes);
    if (!ntp) return "";
    *parsed = true;
    const std::vector<ExpectedField> expected = {
        {"leap_indicator", ntp->leap_indicator},
        {"version", ntp->version},
        {"mode", static_cast<long>(ntp->mode)},
        {"stratum", ntp->stratum},
        {"poll", ntp->poll},
        {"precision", ntp->precision},
        {"root_delay", static_cast<long>(ntp->root_delay)},
        {"root_dispersion", static_cast<long>(ntp->root_dispersion)},
        {"reference_clock_id", static_cast<long>(ntp->reference_clock_id)},
        {"reference_timestamp",
         static_cast<long>(ntp->reference_timestamp.seconds)},
        {"originate_timestamp",
         static_cast<long>(ntp->originate_timestamp.seconds)},
        {"receive_timestamp", static_cast<long>(ntp->receive_timestamp.seconds)},
        {"transmit_timestamp",
         static_cast<long>(ntp->transmit_timestamp.seconds)},
    };
    const auto canonical = ntp->serialize();
    const auto* layer = reg.layer("ntp");
    if (auto d = compare_expected(*layer, canonical, expected); !d.empty()) {
      return d;
    }
    auto env = runtime::SchemaExecEnv::ntp(net::IpAddr(10, 0, 1, 100),
                                           /*clock_seconds=*/1000, *ntp);
    return compare_env_wire(env, *layer, canonical);
  }

  return "";
}

/// Run one side of the ICMP differential: a fresh Appendix-A network with
/// `responder` on the router and both servers, the scenario knobs from the
/// packet, and a fault wrapper seeded with `fault_rng`. Both sides get
/// the same rng by value, so the injected weather is byte-identical.
std::vector<sim::OwnedCaptureEntry> run_icmp_side(
    sim::IcmpResponder* responder, const FuzzPacket& pkt,
    const FaultPlan& faults, Rng fault_rng) {
  sim::Network net = sim::make_appendix_a_network();
  net.router()->set_responder(responder);
  net.find_host("server1")->set_responder(responder);
  net.find_host("server2")->set_responder(responder);
  if (pkt.require_tos_zero) net.router()->behavior().require_tos_zero = true;
  if (pkt.full_outbound) {
    net.router()->behavior().full_outbound_interface = *pkt.full_outbound;
  }
  FaultyNetwork wire(net, faults, fault_rng);
  wire.send("client", pkt.bytes, pkt.via_router);
  wire.flush();
  // The capture views alias `net`'s arena, which dies with this frame —
  // deep-copy them out before the network goes away.
  return sim::own_capture(net.capture());
}

std::uint64_t hash_captures(const std::vector<sim::OwnedCaptureEntry>& a,
                            const std::vector<sim::OwnedCaptureEntry>& b) {
  std::uint64_t h = kFnvOffset;
  for (const auto* side : {&a, &b}) {
    for (const auto& entry : *side) {
      h = fnv_text(h, entry.node);
      h = fnv_bytes(h, entry.packet);
    }
    h = fnv_text(h, "|");
  }
  return h;
}

std::string describe_capture_diff(
    const std::vector<sim::OwnedCaptureEntry>& gen,
    const std::vector<sim::OwnedCaptureEntry>& ref) {
  if (gen.size() != ref.size()) {
    return "capture length generated=" + std::to_string(gen.size()) +
           " reference=" + std::to_string(ref.size());
  }
  for (std::size_t i = 0; i < gen.size(); ++i) {
    if (gen[i].node != ref[i].node) {
      return "entry " + std::to_string(i) + " node generated=" + gen[i].node +
             " reference=" + ref[i].node;
    }
    if (gen[i].packet != ref[i].packet) {
      const auto& a = gen[i].packet;
      const auto& b = ref[i].packet;
      std::size_t pos = 0;
      while (pos < std::min(a.size(), b.size()) && a[pos] == b[pos]) ++pos;
      return "entry " + std::to_string(i) + " bytes differ at offset " +
             std::to_string(pos) + " (generated len " + std::to_string(a.size()) +
             ", reference len " + std::to_string(b.size()) + ")";
    }
  }
  return "";
}

/// The minimizer's target shape: the smallest well-formed packet of each
/// protocol. Failing inputs are greedily rewritten toward this donor one
/// schema field at a time, keeping only rewrites that still fail.
std::vector<std::uint8_t> donor_bytes(const std::string& protocol) {
  if (protocol == "bfd") return net::BfdControlPacket{}.serialize();

  if (protocol == "icmp6") {
    // The smallest well-formed echo request.
    net::Ipv6Header ip6;
    ip6.next_header = net::kIpProtoIcmp6;
    ip6.src = net::Ip6Addr::from_groups(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1);
    ip6.dst = net::Ip6Addr::from_groups(0x2001, 0xdb8, 0, 0, 0, 0, 0, 2);
    std::vector<std::uint8_t> msg(8, 0);
    msg[0] = 128;
    const std::uint16_t ck = net::icmp6_checksum(ip6.src, ip6.dst, msg);
    util::put_be16({msg.data() + 2, 2}, ck);
    return net::build_ipv6_packet(ip6, msg);
  }

  if (protocol == "dhcp") {
    // The smallest plausible BOOTP message: fixed header, magic cookie,
    // a message-type option, and the end marker.
    const auto* layer = SchemaRegistry::instance().layer("dhcp");
    std::vector<std::uint8_t> bytes(layer->options_offset, 0);
    bytes[0] = 2;  // op: BOOTREPLY
    bytes[1] = 1;  // htype: ethernet
    bytes[2] = 6;  // hlen
    util::put_be32({bytes.data() + 236, 4}, 0x63825363u);
    net::schema::OptionsView::append_scalar(bytes, 53, 2, 1);  // DHCPOFFER
    net::schema::OptionsView::append_end(bytes, layer->option_end);
    return bytes;
  }

  net::Ipv4Header ip;
  ip.src = net::IpAddr(10, 0, 1, 100);
  ip.dst = net::IpAddr(10, 0, 1, 1);
  if (protocol == "icmp") {
    net::IcmpMessage msg;
    msg.type = net::IcmpType::kEcho;
    msg.set_identifier(0x1234);
    msg.set_sequence_number(1);
    ip.protocol = static_cast<std::uint8_t>(net::IpProto::kIcmp);
    return net::build_ipv4_packet(ip, msg.serialize());
  }
  if (protocol == "igmp") {
    net::IgmpMessage msg;
    msg.type = net::IgmpType::kHostMembershipReport;
    msg.group_address = net::IpAddr(224, 0, 0, 1);
    ip.protocol = static_cast<std::uint8_t>(net::IpProto::kIgmp);
    ip.ttl = 1;
    return net::build_ipv4_packet(ip, msg.serialize());
  }
  ip.protocol = static_cast<std::uint8_t>(net::IpProto::kUdp);
  if (protocol == "ntp") {
    const auto ntp = net::NtpPacket{}.serialize();
    net::UdpHeader udp;
    udp.src_port = net::kNtpPort;
    udp.dst_port = net::kNtpPort;
    return net::build_ipv4_packet(ip, udp.serialize(ip.src, ip.dst, ntp));
  }
  net::UdpHeader udp;
  udp.src_port = 40000;
  udp.dst_port = 33434;
  const std::vector<std::uint8_t> payload = {'p', 'r', 'o', 'b', 'e'};
  return net::build_ipv4_packet(ip, udp.serialize(ip.src, ip.dst, payload));
}

}  // namespace

const char* verdict_name(Verdict verdict) {
  switch (verdict) {
    case Verdict::kAgreeBytes: return "agree-bytes";
    case Verdict::kAgreeSemantic: return "agree-semantic";
    case Verdict::kAgreeSilent: return "agree-silent";
    case Verdict::kDivergent: return "divergent";
    case Verdict::kCrash: return "crash";
  }
  return "?";
}

DifferentialFuzzer::DifferentialFuzzer(FuzzOptions options)
    : options_(std::move(options)) {}

CaseResult DifferentialFuzzer::run_case(const FuzzPacket& packet,
                                        Rng fault_rng) const {
  if (packet.protocol == "icmp") return run_icmp_case(packet, fault_rng);
  if (packet.protocol == "icmp6") return run_icmp6_case(packet);
  return run_layer_case(packet);
}

CaseResult DifferentialFuzzer::run_icmp_case(const FuzzPacket& packet,
                                             Rng fault_rng) const {
  CaseResult result;
  result.packet = packet;

  std::string crash_detail;
  std::optional<std::vector<sim::OwnedCaptureEntry>> cap_gen;
  std::optional<std::vector<sim::OwnedCaptureEntry>> cap_ref;
  try {
    auto generated = core::canonical_icmp_responder(options_.backend);
    cap_gen = run_icmp_side(&generated, packet, options_.faults, fault_rng);
  } catch (const std::exception& e) {
    crash_detail = std::string("generated responder threw: ") + e.what();
  }
  try {
    sim::ReferenceIcmpResponder reference;
    cap_ref = run_icmp_side(&reference, packet, options_.faults, fault_rng);
  } catch (const std::exception& e) {
    if (!crash_detail.empty()) crash_detail += "; ";
    crash_detail += std::string("reference responder threw: ") + e.what();
  }
  if (!cap_gen || !cap_ref) {
    result.verdict = Verdict::kCrash;
    result.detail = crash_detail;
    return result;
  }
  result.capture_hash = hash_captures(*cap_gen, *cap_ref);

  // Structural oracles run even when the networks agree: the exec env
  // misreading a field is a divergence whether or not it changed traffic.
  if (auto d = icmp_env_wire_mismatch(packet); !d.empty()) {
    result.verdict = Verdict::kDivergent;
    result.detail = d;
    return result;
  }
  if (auto d = structural_mismatch(packet); !d.empty()) {
    result.verdict = Verdict::kDivergent;
    result.detail = d;
    return result;
  }
  bool parsed = false;
  if (auto d = parser_mismatch(packet, &parsed); !d.empty()) {
    result.verdict = Verdict::kDivergent;
    result.detail = d;
    return result;
  }

  const auto diff = describe_capture_diff(*cap_gen, *cap_ref);
  if (diff.empty()) {
    const bool replied = std::any_of(
        cap_gen->begin(), cap_gen->end(),
        [](const sim::OwnedCaptureEntry& e) { return e.node != "client"; });
    result.verdict = replied ? Verdict::kAgreeBytes : Verdict::kAgreeSilent;
    return result;
  }

  // Bytes differ. Accept semantic equality: same traffic shape and every
  // packet decodes identically through the shared inspector.
  if (cap_gen->size() == cap_ref->size()) {
    bool semantic = true;
    for (std::size_t i = 0; i < cap_gen->size() && semantic; ++i) {
      semantic = (*cap_gen)[i].node == (*cap_ref)[i].node &&
                 eval::decode_packet((*cap_gen)[i].packet) ==
                     eval::decode_packet((*cap_ref)[i].packet);
    }
    if (semantic) {
      result.verdict = Verdict::kAgreeSemantic;
      result.detail = diff;
      return result;
    }
  }

  result.verdict = Verdict::kDivergent;
  result.detail = diff;
  return result;
}

CaseResult DifferentialFuzzer::run_icmp6_case(const FuzzPacket& packet) const {
  CaseResult result;
  result.packet = packet;

  // There is no Appendix-A IPv6 network, so the twin responders are
  // driven directly: every RFC 4443 event fires at both implementations
  // with the fuzzed packet as the trigger. Event codes derive from the
  // packet bytes, keeping the whole case a pure function of the input.
  const net::Ip6Addr own =
      net::Ip6Addr::from_groups(0x2001, 0xdb8, 0, 0, 0, 0, 0, 2);
  const std::uint8_t tail = packet.bytes.empty() ? 0 : packet.bytes.back();
  const std::uint8_t unreachable_code = tail % 5;
  const std::uint8_t exceeded_code = tail % 2;
  const std::uint8_t problem_code = tail % 3;
  const std::uint8_t pointer = static_cast<std::uint8_t>(tail ^ 0x5a);

  // The echo event only fires for a request a host's dispatch would hand
  // to the echo path: ICMPv6 next header with at least a full message
  // header. (A truncated request must draw silence from the reference;
  // the generated side would start from a partial image — the gate keeps
  // the comparison on inputs both sides define behavior for.)
  bool echo_event = false;
  if (const auto ip6 = net::Ipv6Header::parse(packet.bytes);
      ip6 && ip6->next_header == net::kIpProtoIcmp6) {
    echo_event = packet.bytes.size() >= net::Ipv6Header::kHeaderBytes + 8;
  }

  const sim::Responder6Context ctx{own, packet.bytes};
  using Reply = std::optional<std::vector<std::uint8_t>>;
  std::vector<std::pair<const char*, Reply>> gen_replies;
  std::vector<std::pair<const char*, Reply>> ref_replies;
  const auto drive = [&](sim::Icmp6Responder& r,
                         std::vector<std::pair<const char*, Reply>>& out) {
    if (echo_event) out.emplace_back("echo", r.on_echo_request(ctx));
    out.emplace_back("dest-unreachable",
                     r.on_destination_unreachable(ctx, unreachable_code));
    out.emplace_back("packet-too-big", r.on_packet_too_big(ctx));
    out.emplace_back("time-exceeded", r.on_time_exceeded(ctx, exceeded_code));
    out.emplace_back("parameter-problem",
                     r.on_parameter_problem(ctx, problem_code, pointer));
  };

  std::string crash_detail;
  try {
    auto generated = core::canonical_icmp6_responder(options_.backend);
    drive(generated, gen_replies);
  } catch (const std::exception& e) {
    crash_detail = std::string("generated responder threw: ") + e.what();
  }
  try {
    sim::ReferenceIcmp6Responder reference;
    drive(reference, ref_replies);
  } catch (const std::exception& e) {
    if (!crash_detail.empty()) crash_detail += "; ";
    crash_detail += std::string("reference responder threw: ") + e.what();
  }
  if (!crash_detail.empty()) {
    result.verdict = Verdict::kCrash;
    result.detail = crash_detail;
    return result;
  }

  std::uint64_t h = kFnvOffset;
  for (const auto* side : {&gen_replies, &ref_replies}) {
    for (const auto& [name, reply] : *side) {
      h = fnv_text(h, name);
      if (reply) h = fnv_bytes(h, *reply);
      h = fnv_text(h, reply ? "+" : "-");
    }
    h = fnv_text(h, "|");
  }
  result.capture_hash = h;

  if (auto d = structural_mismatch(packet); !d.empty()) {
    result.verdict = Verdict::kDivergent;
    result.detail = d;
    return result;
  }
  bool parsed = false;
  if (auto d = parser_mismatch(packet, &parsed); !d.empty()) {
    result.verdict = Verdict::kDivergent;
    result.detail = d;
    return result;
  }

  for (std::size_t i = 0; i < gen_replies.size(); ++i) {
    const auto& [name, a] = gen_replies[i];
    const auto& b = ref_replies[i].second;
    if (a.has_value() != b.has_value()) {
      result.verdict = Verdict::kDivergent;
      result.detail = std::string(name) + " generated=" +
                      (a ? "reply" : "silent") + " reference=" +
                      (b ? "reply" : "silent");
      return result;
    }
    if (a && *a != *b) {
      std::size_t pos = 0;
      while (pos < std::min(a->size(), b->size()) && (*a)[pos] == (*b)[pos]) {
        ++pos;
      }
      result.verdict = Verdict::kDivergent;
      result.detail = std::string(name) + " bytes differ at offset " +
                      std::to_string(pos) + " (generated len " +
                      std::to_string(a->size()) + ", reference len " +
                      std::to_string(b->size()) + ")";
      return result;
    }
  }

  const bool replied =
      std::any_of(gen_replies.begin(), gen_replies.end(),
                  [](const auto& e) { return e.second.has_value(); });
  result.verdict = replied ? Verdict::kAgreeBytes : Verdict::kAgreeSilent;
  return result;
}

CaseResult DifferentialFuzzer::run_layer_case(const FuzzPacket& packet) const {
  CaseResult result;
  result.packet = packet;
  try {
    const auto lines = eval::decode_packet(packet.bytes);
    std::uint64_t h = kFnvOffset;
    for (const auto& line : lines) h = fnv_text(h, line);
    h = fnv_bytes(h, packet.bytes);
    result.capture_hash = h;

    if (auto d = structural_mismatch(packet); !d.empty()) {
      result.verdict = Verdict::kDivergent;
      result.detail = d;
      return result;
    }
    bool parsed = false;
    if (auto d = parser_mismatch(packet, &parsed); !d.empty()) {
      result.verdict = Verdict::kDivergent;
      result.detail = d;
      return result;
    }
    result.verdict = parsed ? Verdict::kAgreeBytes : Verdict::kAgreeSilent;
  } catch (const std::exception& e) {
    result.verdict = Verdict::kCrash;
    result.detail = std::string("threw: ") + e.what();
  }
  return result;
}

void DifferentialFuzzer::minimize_case(CaseResult& result,
                                       Rng fault_rng) const {
  const auto fails = [&](std::vector<std::uint8_t> candidate) {
    FuzzPacket probe = result.packet;
    probe.bytes = std::move(candidate);
    const CaseResult r = run_case(probe, fault_rng);
    return r.verdict == Verdict::kDivergent || r.verdict == Verdict::kCrash;
  };

  std::vector<std::uint8_t> best = result.packet.bytes;

  // Phase 1: drop as much of the tail as possible (largest cut first).
  bool shrunk = true;
  while (shrunk && best.size() > 1) {
    shrunk = false;
    for (std::size_t cut = best.size() - 1; cut >= 1; cut /= 2) {
      std::vector<std::uint8_t> candidate(best.begin(),
                                          best.end() - static_cast<long>(cut));
      if (fails(candidate)) {
        best = std::move(candidate);
        shrunk = true;
        break;
      }
      if (cut == 1) break;
    }
  }

  // Phase 2: rewrite schema fields toward the canonical donor packet, one
  // at a time, keeping only rewrites that preserve the failure. Two
  // passes, because fixing one field can unlock another.
  const auto donor = donor_bytes(result.packet.protocol);
  for (int pass = 0; pass < 2; ++pass) {
    const auto donor_slices = layer_layout(result.packet.protocol, donor);
    for (const auto& slice : layer_layout(result.packet.protocol, best)) {
      if (slice.spec == nullptr) continue;
      const LayerAt* donor_slice = nullptr;
      for (const auto& d : donor_slices) {
        if (d.spec == slice.spec) donor_slice = &d;
      }
      if (donor_slice == nullptr) continue;
      for (const auto& f : slice.spec->fields) {
        if (f.kind != FieldKind::kScalar) continue;
        const auto target = SchemaRegistry::read_scalar(
            f, layer_image(std::span(donor), *donor_slice));
        const auto current =
            SchemaRegistry::read_scalar(f, layer_image(std::span(best), slice));
        if (!target || !current || *target == *current) continue;
        std::vector<std::uint8_t> candidate = best;
        const auto image = layer_image(std::span(candidate), slice);
        if (!SchemaRegistry::write_scalar(f, image, *target)) continue;
        if (fails(candidate)) best = std::move(candidate);
      }
    }
  }
  result.minimized = std::move(best);
}

std::string DifferentialFuzzer::log_line(std::size_t index,
                                         const CaseResult& result) {
  std::ostringstream out;
  out << "[" << std::setw(4) << std::setfill('0') << index << "] proto="
      << result.packet.protocol << " scenario=" << result.packet.scenario
      << " mutation=" << mutation_kind_name(result.packet.mutation)
      << " len=" << result.packet.bytes.size()
      << " verdict=" << verdict_name(result.verdict)
      << " hash=" << hex64(result.capture_hash);
  if (!result.detail.empty()) out << " detail=" << result.detail;
  return out.str();
}

FuzzReport DifferentialFuzzer::run() const {
  FuzzReport report;
  report.options = options_;

  const PacketGenerator generator(options_.protocol);
  const std::size_t n = options_.iterations;
  std::vector<CaseResult> results(n);

  const auto one = [&](std::size_t i) {
    Rng packet_rng = Rng(options_.seed).fork(i);
    const FuzzPacket packet = generator.generate(packet_rng);
    const Rng fault_rng = Rng(options_.seed ^ kFaultSalt).fork(i);
    results[i] = run_case(packet, fault_rng);
    if (options_.minimize && (results[i].verdict == Verdict::kDivergent ||
                              results[i].verdict == Verdict::kCrash)) {
      minimize_case(results[i], fault_rng);
    }
  };

  if (options_.jobs > 1 && n > 1) {
    // The canonical responders memoize under a static guard; building
    // them before the fan-out keeps the pipeline pass and the compile
    // out of the measured/parallel region.
    const auto backend = options_.backend;
    if (options_.protocol == "icmp") core::canonical_icmp_responder(backend);
    if (options_.protocol == "icmp6") core::canonical_icmp6_responder(backend);
    util::ThreadPool pool(options_.jobs);
    pool.parallel_for(n, one);
  } else {
    for (std::size_t i = 0; i < n; ++i) one(i);
  }

  // Serial assembly: the log is index-ordered regardless of which worker
  // ran which iteration.
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& r = results[i];
    switch (r.verdict) {
      case Verdict::kAgreeBytes: ++report.agree_bytes; break;
      case Verdict::kAgreeSemantic: ++report.agree_semantic; break;
      case Verdict::kAgreeSilent: ++report.agree_silent; break;
      case Verdict::kDivergent: ++report.divergent; break;
      case Verdict::kCrash: ++report.crashes; break;
    }
    report.log.push_back(log_line(i, r));
    h = fnv_text(h, report.log.back());
    if (r.verdict == Verdict::kDivergent || r.verdict == Verdict::kCrash) {
      report.failures.push_back(r);
    }
  }
  report.log_hash = h;
  return report;
}

std::string FuzzReport::summary() const {
  std::ostringstream out;
  out << options.protocol << " seed=" << options.seed
      << " iters=" << options.iterations << " faults=" << options.faults.to_string()
      << ": " << agree_bytes << " byte-equal, " << agree_semantic
      << " semantic, " << agree_silent << " silent, " << divergent
      << " divergent, " << crashes << " crashes (log hash 0x" << hex64(log_hash)
      << ")";
  return out.str();
}

}  // namespace sage::fuzz
