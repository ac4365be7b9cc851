#include "codegen/context.hpp"

#include "net/schema.hpp"
#include "util/strings.hpp"

namespace sage::codegen {

DynamicContext DynamicContext::from_map(
    const std::map<std::string, std::string>& m) {
  DynamicContext ctx;
  const auto get = [&m](const char* key) {
    const auto it = m.find(key);
    return it == m.end() ? std::string() : it->second;
  };
  ctx.protocol = get("protocol");
  ctx.message = get("message");
  ctx.field = get("field");
  ctx.role = get("role");
  return ctx;
}

std::string DynamicContext::to_string() const {
  return "{\"protocol\": \"" + protocol + "\", \"message\": \"" + message +
         "\", \"field\": \"" + field + "\", \"role\": \"" + role + "\"}";
}

std::string layer_for_protocol(std::string_view protocol) {
  return util::to_lower(protocol);
}

void StaticContext::add_field(std::string_view phrase, FieldRef ref) {
  // Annotate the ref against the packet-schema registry at table-build
  // time so every ref handed out by resolve_field carries its dense id.
  if (const auto* spec = field_spec(ref)) ref.field_id = spec->id;
  fields_[util::to_lower(phrase)].push_back(std::move(ref));
}

void StaticContext::add_function(std::string_view phrase, std::string_view fn) {
  functions_[util::to_lower(phrase)] = std::string(fn);
}

std::optional<FieldRef> StaticContext::field(
    std::string_view lowered_phrase,
    std::span<const std::string> preferred_layers) const {
  const auto it = fields_.find(lowered_phrase);
  if (it == fields_.end() || it->second.empty()) return std::nullopt;
  for (const auto& layer : preferred_layers) {
    for (const auto& ref : it->second) {
      if (ref.layer == layer) return ref;
    }
  }
  return it->second.front();
}

std::optional<std::string> StaticContext::function(
    std::string_view lowered_phrase) const {
  const auto it = functions_.find(lowered_phrase);
  if (it == functions_.end()) return std::nullopt;
  return it->second;
}

std::size_t StaticContext::field_count() const {
  std::size_t n = 0;
  for (const auto& [phrase, refs] : fields_) n += refs.size();
  return n;
}

StaticContext StaticContext::standard() {
  StaticContext ctx;

  // ---- IP layer (lower-layer protocol knowledge, §5.1) -------------------
  ctx.add_field("source address", {"ip", "src"});
  ctx.add_field("destination address", {"ip", "dst"});
  ctx.add_field("source and destination addresses", {"ip", "addresses"});
  ctx.add_field("time to live", {"ip", "ttl"});
  ctx.add_field("type of service", {"ip", "tos"});
  ctx.add_field("total length", {"ip", "total_length"});
  ctx.add_field("internet header", {"ip", "header"});

  // ---- ICMP fields --------------------------------------------------------
  ctx.add_field("type", {"icmp", "type"});
  ctx.add_field("code", {"icmp", "code"});
  ctx.add_field("checksum", {"icmp", "checksum"});
  ctx.add_field("identifier", {"icmp", "identifier"});
  ctx.add_field("sequence number", {"icmp", "sequence_number"});
  ctx.add_field("gateway internet address", {"icmp", "gateway_internet_address"});
  ctx.add_field("gateway address", {"icmp", "gateway_internet_address"});
  ctx.add_field("pointer", {"icmp", "pointer"});
  ctx.add_field("originate timestamp", {"icmp", "originate_timestamp"});
  ctx.add_field("receive timestamp", {"icmp", "receive_timestamp"});
  ctx.add_field("transmit timestamp", {"icmp", "transmit_timestamp"});
  ctx.add_field("data", {"icmp", "data"});
  ctx.add_field("unused", {"icmp", "unused"});
  ctx.add_field("checksum field", {"icmp", "checksum"});
  ctx.add_field("icmp message", {"icmp", "message"});

  // ---- IPv6 layer (ICMPv6 lower-layer knowledge, RFC 8200) ----------------
  ctx.add_field("source address", {"ip6", "src"});
  ctx.add_field("destination address", {"ip6", "dst"});
  ctx.add_field("source and destination addresses", {"ip6", "addresses"});
  ctx.add_field("hop limit", {"ip6", "hop_limit"});
  ctx.add_field("ipv6 header", {"ip6", "header"});

  // ---- ICMPv6 fields (RFC 4443) -------------------------------------------
  ctx.add_field("type", {"icmp6", "type"});
  ctx.add_field("code", {"icmp6", "code"});
  ctx.add_field("checksum", {"icmp6", "checksum"});
  ctx.add_field("checksum field", {"icmp6", "checksum"});
  ctx.add_field("identifier", {"icmp6", "identifier"});
  ctx.add_field("sequence number", {"icmp6", "sequence_number"});
  ctx.add_field("pointer", {"icmp6", "pointer"});
  ctx.add_field("mtu", {"icmp6", "mtu"});
  ctx.add_field("unused", {"icmp6", "unused"});
  ctx.add_field("data", {"icmp6", "data"});
  ctx.add_field("icmpv6 message", {"icmp6", "message"});
  ctx.add_field("invoking packet", {"icmp6", "data"});

  // ---- DHCP option fields (RFC 2132, TLV-located) -------------------------
  ctx.add_field("subnet mask", {"dhcp", "subnet_mask"});
  ctx.add_field("requested ip address", {"dhcp", "requested_ip"});
  ctx.add_field("lease time", {"dhcp", "lease_time"});
  ctx.add_field("message type", {"dhcp", "message_type"});
  ctx.add_field("server identifier", {"dhcp", "server_identifier"});
  ctx.add_field("transaction id", {"dhcp", "xid"});

  // ---- IGMP fields (§6.3) -------------------------------------------------
  ctx.add_field("version", {"igmp", "version"});
  ctx.add_field("group address", {"igmp", "group_address"});
  ctx.add_field("group address field", {"igmp", "group_address"});
  ctx.add_field("host group address", {"igmp", "host_group_address"});
  ctx.add_field("type", {"igmp", "type"});
  ctx.add_field("checksum", {"igmp", "checksum"});
  ctx.add_field("unused", {"igmp", "unused"});
  ctx.add_field("unused field", {"igmp", "unused"});
  ctx.add_field("checksum field", {"igmp", "checksum"});
  ctx.add_field("igmp message", {"igmp", "message"});

  // ---- NTP fields (§6.3, RFC 1059 Appendix B) ------------------------------
  ctx.add_field("leap indicator", {"ntp", "leap_indicator"});
  ctx.add_field("version number", {"ntp", "version"});
  ctx.add_field("stratum", {"ntp", "stratum"});
  ctx.add_field("poll", {"ntp", "poll"});
  ctx.add_field("precision", {"ntp", "precision"});
  ctx.add_field("reference timestamp", {"ntp", "reference_timestamp"});
  ctx.add_field("originate timestamp", {"ntp", "originate_timestamp"});
  ctx.add_field("receive timestamp", {"ntp", "receive_timestamp"});
  ctx.add_field("transmit timestamp", {"ntp", "transmit_timestamp"});
  ctx.add_field("mode", {"ntp", "mode"});
  ctx.add_field("peer timer", {"ntp", "peer_timer"});

  // ---- UDP fields (NTP encapsulation, RFC 1059 Appendix A) ----------------
  ctx.add_field("source port", {"udp", "src_port"});
  ctx.add_field("destination port", {"udp", "dst_port"});
  ctx.add_field("length", {"udp", "length"});

  // ---- BFD state variables (§6.4, RFC 5880 §6.8.1) ------------------------
  ctx.add_field("bfd.sessionstate", {"bfd", "session_state"});
  ctx.add_field("bfd.remotesessionstate", {"bfd", "remote_session_state"});
  ctx.add_field("bfd.localdiscr", {"bfd", "local_discr"});
  ctx.add_field("bfd.remotediscr", {"bfd", "remote_discr"});
  ctx.add_field("bfd.localdiag", {"bfd", "local_diag"});
  ctx.add_field("bfd.desiredmintxinterval", {"bfd", "desired_min_tx_interval"});
  ctx.add_field("bfd.requiredminrxinterval", {"bfd", "required_min_rx_interval"});
  ctx.add_field("bfd.remoteminrxinterval", {"bfd", "remote_min_rx_interval"});
  ctx.add_field("bfd.demandmode", {"bfd", "demand_mode"});
  ctx.add_field("bfd.remotedemandmode", {"bfd", "remote_demand_mode"});
  ctx.add_field("bfd.detectmult", {"bfd", "detect_mult"});
  ctx.add_field("bfd.authtype", {"bfd", "auth_type"});
  ctx.add_field("your discriminator field", {"bfd", "your_discriminator"});
  ctx.add_field("your discriminator", {"bfd", "your_discriminator"});
  ctx.add_field("my discriminator field", {"bfd", "my_discriminator"});
  ctx.add_field("my discriminator", {"bfd", "my_discriminator"});
  ctx.add_field("state field", {"bfd", "state"});
  ctx.add_field("detect mult field", {"bfd", "detect_mult_field"});
  ctx.add_field("demand bit", {"bfd", "demand_bit"});
  ctx.add_field("poll bit", {"bfd", "poll_bit"});
  ctx.add_field("multipoint bit", {"bfd", "multipoint_bit"});
  ctx.add_field("required min rx interval field",
                {"bfd", "required_min_rx_interval_field"});
  ctx.add_field("required min echo rx interval field",
                {"bfd", "required_min_echo_rx_interval_field"});

  // ---- TCP probe fields (§7 reach experiment) ------------------------------
  ctx.add_field("syn bit", {"tcp", "syn_bit"});
  ctx.add_field("ack bit", {"tcp", "ack_bit"});
  ctx.add_field("rst bit", {"tcp", "rst_bit"});
  ctx.add_field("fin bit", {"tcp", "fin_bit"});
  ctx.add_field("connection state", {"tcp", "connection_state"});
  ctx.add_field("segment", {"tcp", "segment"});

  // ---- BGP probe fields (§7 reach experiment) -------------------------------
  ctx.add_field("hold timer", {"bgp", "hold_timer"});
  ctx.add_field("marker field", {"bgp", "marker"});
  ctx.add_field("version field", {"bgp", "version"});

  // ---- framework functions (§5.1: one's complement, OS services) ----------
  ctx.add_function("one's complement sum", "ones_complement_sum");
  ctx.add_function("ones complement sum", "ones_complement_sum");
  ctx.add_function("16-bit one's complement", "ones_complement");
  ctx.add_function("reverse", "reverse_addresses");
  ctx.add_function("reversed", "reverse_addresses");
  ctx.add_function("recompute", "recompute_checksum");
  ctx.add_function("recomputed", "recompute_checksum");
  ctx.add_function("compute", "compute_checksum");
  ctx.add_function("copy", "copy_field");
  ctx.add_function("discard", "discard");
  ctx.add_function("send", "send");
  ctx.add_function("select_session", "select_session");
  ctx.add_function("cease_transmission", "cease_transmission");
  ctx.add_function("timeout", "timeout");
  // OS/event services the RFC text references but never defines (§5.1):
  ctx.add_function("better gateway", "better_gateway");
  // The router service RFC 4443's Packet Too Big rewrite references: the
  // MTU of the next-hop link, served by the framework deterministically.
  ctx.add_function("link mtu", "link_mtu");
  ctx.add_function("octet", "error_octet");
  ctx.add_function("current time", "current_time");
  ctx.add_function("time the sender last touched the message", "current_time");
  ctx.add_function("time the echoer first touched the message", "receive_time");
  ctx.add_function("time the echoer last touched the message", "transmit_time");

  return ctx;
}

ResolutionContext::ResolutionContext(DynamicContext dynamic,
                                     const StaticContext* statics)
    : dynamic_(std::move(dynamic)),
      statics_(statics),
      layers_{layer_for_protocol(dynamic_.protocol)},
      field_key_(util::to_lower(dynamic_.field)) {
  // A multi-layer protocol like ICMPv6 resolves "source address" to
  // ip6.src, not whichever layer registered the phrase first; protocols
  // outside the registry keep the single-layer behavior.
  if (const auto* schema =
          net::schema::SchemaRegistry::instance().protocol(dynamic_.protocol)) {
    for (const auto& bound : schema->layers) {
      if (bound != layers_.front()) layers_.push_back(bound);
    }
  }
}

std::optional<FieldRef> ResolutionContext::resolve_field(
    std::string_view phrase) const {
  const std::string key = util::to_lower(util::trim(phrase));

  // Dynamic context first (§5.2): a bare reference to the field being
  // described ("type", or an empty phrase meaning "this field") resolves
  // through the document structure.
  if (!dynamic_.field.empty()) {
    const std::string_view k = key;
    if (k.empty() || k == field_key_ ||
        (k.starts_with("the ") && k.substr(4) == field_key_)) {
      // The group tells us which layer's field is being described
      // ("IP Fields" vs "ICMP Fields").
      if (auto from_static =
              statics_->field(key.empty() ? field_key_ : key, layers_)) {
        return from_static;
      }
      return FieldRef{layers_.front(), util::to_snake_case(dynamic_.field)};
    }
  }

  // Then the static context.
  return statics_->field(key, layers_);
}

std::optional<std::string> ResolutionContext::resolve_function(
    std::string_view phrase) const {
  return statics_->function(util::to_lower(util::trim(phrase)));
}

}  // namespace sage::codegen
