#include "sim/reference_responder.hpp"

#include "net/icmp.hpp"
#include "net/schema.hpp"
#include "sim/network.hpp"

namespace sage::sim {

namespace {

/// Parse the triggering packet's IP header and ICMP message.
struct Incoming {
  net::Ipv4Header ip;
  net::IcmpMessage icmp;  // only meaningful when the packet is ICMP
  bool has_icmp = false;
};

std::optional<Incoming> decode(const ResponderContext& ctx) {
  const auto ip = net::Ipv4Header::parse(ctx.triggering_packet);
  if (!ip) return std::nullopt;
  Incoming in;
  in.ip = *ip;
  if (ip->protocol == static_cast<std::uint8_t>(net::IpProto::kIcmp) &&
      ctx.triggering_packet.size() >= ip->header_length() + 8) {
    const auto icmp =
        net::IcmpMessage::parse(ctx.triggering_packet.subspan(ip->header_length()));
    if (icmp) {
      in.icmp = *icmp;
      in.has_icmp = true;
    }
  }
  return in;
}

/// Wrap an ICMP message in a fresh IP header back to the trigger's source.
/// RFC 792: "the source and destination addresses are simply reversed" —
/// except for error messages generated by an intermediate node, where the
/// source is the node's own address.
std::vector<std::uint8_t> wrap(const net::IcmpMessage& icmp, net::IpAddr src,
                               net::IpAddr dst) {
  net::Ipv4Header ip;
  // Outgoing-header defaults come from the ICMP schema entry — the same
  // table SchemaExecEnv applies, so reference and generated responders
  // cannot drift.
  ip.protocol = static_cast<std::uint8_t>(net::IpProto::kIcmp);
  ip.ttl = 64;
  if (const auto* schema =
          net::schema::SchemaRegistry::instance().protocol("ICMP")) {
    for (const auto& d : schema->defaults) {
      if (d.layer != "ip") continue;
      if (d.field == "protocol") ip.protocol = static_cast<std::uint8_t>(d.value);
      if (d.field == "ttl") ip.ttl = static_cast<std::uint8_t>(d.value);
    }
  }
  ip.src = src;
  ip.dst = dst;
  return net::build_ipv4_packet(ip, icmp.serialize());
}

/// Build the common error-message shape: type/code, zeroed rest, payload
/// quoting the original internet header + first 64 bits of data.
net::IcmpMessage make_error(net::IcmpType type, std::uint8_t code,
                            const ResponderContext& ctx) {
  net::IcmpMessage icmp;
  icmp.type = type;
  icmp.code = code;
  icmp.rest = 0;
  icmp.payload = net::original_datagram_excerpt(ctx.triggering_packet);
  return icmp;
}

}  // namespace

std::optional<std::vector<std::uint8_t>> ReferenceIcmpResponder::on_echo_request(
    const ResponderContext& ctx) {
  const auto in = decode(ctx);
  if (!in || !in->has_icmp) return std::nullopt;
  // RFC 792 echo reply: type 0; identifier, sequence number, and data are
  // returned unchanged; addresses reversed; checksum recomputed.
  net::IcmpMessage reply = in->icmp;
  reply.type = net::IcmpType::kEchoReply;
  reply.code = 0;
  return wrap(reply, in->ip.dst, in->ip.src);
}

std::optional<std::vector<std::uint8_t>>
ReferenceIcmpResponder::on_timestamp_request(const ResponderContext& ctx) {
  const auto in = decode(ctx);
  if (!in || !in->has_icmp) return std::nullopt;
  // A request without the full three-timestamp block is malformed; the
  // network's input gate never delivers one, and a direct caller gets the
  // same silence instead of a reply built from missing bytes.
  if (!icmp_request_well_formed(in->icmp.type, in->icmp.code,
                                in->icmp.payload.size())) {
    return std::nullopt;
  }
  net::IcmpMessage reply = in->icmp;
  reply.type = net::IcmpType::kTimestampReply;
  reply.code = 0;
  // Originate is copied from the request; receive/transmit are stamped by
  // the replying node.
  reply.set_timestamps(in->icmp.originate_timestamp(), kReceiveTimestamp,
                       kTransmitTimestamp);
  return wrap(reply, in->ip.dst, in->ip.src);
}

std::optional<std::vector<std::uint8_t>>
ReferenceIcmpResponder::on_information_request(const ResponderContext& ctx) {
  const auto in = decode(ctx);
  if (!in || !in->has_icmp) return std::nullopt;
  if (!icmp_request_well_formed(in->icmp.type, in->icmp.code,
                                in->icmp.payload.size())) {
    return std::nullopt;
  }
  net::IcmpMessage reply = in->icmp;
  reply.type = net::IcmpType::kInformationReply;
  reply.code = 0;
  reply.payload.clear();  // information messages carry no data
  return wrap(reply, in->ip.dst, in->ip.src);
}

std::optional<std::vector<std::uint8_t>>
ReferenceIcmpResponder::on_destination_unreachable(const ResponderContext& ctx,
                                                   std::uint8_t code) {
  const auto in = decode(ctx);
  if (!in) return std::nullopt;
  return wrap(make_error(net::IcmpType::kDestinationUnreachable, code, ctx),
              ctx.own_address, in->ip.src);
}

std::optional<std::vector<std::uint8_t>> ReferenceIcmpResponder::on_time_exceeded(
    const ResponderContext& ctx) {
  const auto in = decode(ctx);
  if (!in) return std::nullopt;
  return wrap(make_error(net::IcmpType::kTimeExceeded, 0, ctx),
              ctx.own_address, in->ip.src);
}

std::optional<std::vector<std::uint8_t>>
ReferenceIcmpResponder::on_parameter_problem(const ResponderContext& ctx,
                                             std::uint8_t pointer) {
  const auto in = decode(ctx);
  if (!in) return std::nullopt;
  net::IcmpMessage icmp =
      make_error(net::IcmpType::kParameterProblem, 0, ctx);
  icmp.set_pointer(pointer);
  return wrap(icmp, ctx.own_address, in->ip.src);
}

std::optional<std::vector<std::uint8_t>> ReferenceIcmpResponder::on_source_quench(
    const ResponderContext& ctx) {
  const auto in = decode(ctx);
  if (!in) return std::nullopt;
  return wrap(make_error(net::IcmpType::kSourceQuench, 0, ctx),
              ctx.own_address, in->ip.src);
}

std::optional<std::vector<std::uint8_t>> ReferenceIcmpResponder::on_redirect(
    const ResponderContext& ctx, net::IpAddr gateway) {
  const auto in = decode(ctx);
  if (!in) return std::nullopt;
  net::IcmpMessage icmp = make_error(net::IcmpType::kRedirect, 1, ctx);
  icmp.set_gateway_address(gateway);
  return wrap(icmp, ctx.own_address, in->ip.src);
}

}  // namespace sage::sim
