#include "runtime/schema_env.hpp"

#include <algorithm>
#include <unordered_map>

#include "net/checksum.hpp"
#include "net/udp.hpp"
#include "util/arena.hpp"
#include "util/bytes.hpp"
#include "util/strings.hpp"
#include "util/symbols.hpp"

namespace sage::runtime {

namespace schema = net::schema;

namespace {

/// Live SchemaExecEnv count on this thread (see EnvArenaScope).
thread_local std::size_t g_env_depth = 0;

util::Arena& env_arena() {
  static thread_local util::Arena arena;
  return arena;
}

}  // namespace

std::pmr::memory_resource* SchemaExecEnv::image_arena() {
  return &env_arena();
}

SchemaExecEnv::EnvArenaScope::EnvArenaScope() {
  if (g_env_depth == 0) env_arena().reset();
  ++g_env_depth;
}

SchemaExecEnv::EnvArenaScope::EnvArenaScope(const EnvArenaScope&) {
  ++g_env_depth;
}

SchemaExecEnv::EnvArenaScope::~EnvArenaScope() { --g_env_depth; }

namespace {

/// RFC 5880 §6.8.1 variables in slot order; must match the BFD cases of
/// read_struct/write_struct below.
constexpr const char* kBfdStateOrder[] = {
    "session_state",           "remote_session_state",
    "local_discr",             "remote_discr",
    "local_diag",              "desired_min_tx_interval",
    "required_min_rx_interval", "remote_min_rx_interval",
    "demand_mode",             "remote_demand_mode",
    "detect_mult",             "auth_type",
};

/// Struct-backed IP pseudo-layer in slot order; must match
/// read_struct/write_struct below.
constexpr const char* kIpSlotOrder[] = {"src", "dst", "ttl", "tos",
                                        "total_length"};

/// Struct-backed IPv6 pseudo-layer in slot order; must match
/// read_ip6/write_ip6 below.
constexpr const char* kIp6SlotOrder[] = {
    "src",     "dst",        "hop_limit",      "traffic_class",
    "version", "flow_label", "payload_length", "next_header"};

/// Opaque ip6 address handles (see read_ip6). Values sit far outside any
/// wire field's masked range, so a handle accidentally stored into a
/// scalar is visibly wrong instead of silently plausible.
constexpr long kAddr6HandleBase = 0x6B600000000L;
constexpr long kH6InSrc = kAddr6HandleBase + 0;
constexpr long kH6InDst = kAddr6HandleBase + 1;
constexpr long kH6OutSrc = kAddr6HandleBase + 2;
constexpr long kH6OutDst = kAddr6HandleBase + 3;
constexpr long kH6Own = kAddr6HandleBase + 4;

/// ICMPv6 link MTU: the framework serves the IPv6 minimum MTU so both
/// responders agree deterministically.
constexpr long kIcmp6LinkMtu = 1280;

using codegen::framework::Kind;
using FrameworkOp = codegen::framework::Op;

int index_in(const char* const* names, std::size_t n, const std::string& name) {
  for (std::size_t i = 0; i < n; ++i) {
    if (name == names[i]) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

const SchemaExecEnv::ProtocolBinding& SchemaExecEnv::binding_for(
    const std::string& protocol) {
  static const std::unordered_map<std::string, ProtocolBinding>* tables = [] {
    const auto& registry = schema::SchemaRegistry::instance();
    auto* t = new std::unordered_map<std::string, ProtocolBinding>();
    for (const auto& p : registry.protocols()) {
      ProtocolBinding pb;
      pb.schema = &p;
      pb.profile = codegen::framework::profile_of(p.protocol);
      pb.by_id.resize(registry.field_count());
      for (const auto& layer_name : p.layers) {
        const auto* layer = registry.layer(layer_name);
        if (layer == nullptr) continue;
        if (layer->name == "ip" || layer->name == "ip6") {
          // Struct-backed pseudo-layers: only the fields the framework
          // serves are bound; the rest stay kNone (unknown at runtime).
          // Both versions share Binding::Kind::kStruct with BFD's session
          // — read_struct/write_struct dispatch on the env's profile, and
          // a protocol only ever binds one of the three structs.
          const bool v6 = layer->name == "ip6";
          const char* const* order = v6 ? kIp6SlotOrder : kIpSlotOrder;
          const std::size_t order_n =
              v6 ? std::size(kIp6SlotOrder) : std::size(kIpSlotOrder);
          for (const auto& f : layer->fields) {
            const int slot = index_in(order, order_n, f.name);
            if (slot < 0) continue;
            auto& b = pb.by_id[static_cast<std::size_t>(f.id)];
            b.kind = Binding::Kind::kStruct;
            b.spec = &f;
            b.slot = static_cast<std::uint8_t>(slot);
          }
          continue;
        }
        const bool image_backed = layer->header_bytes > 0;
        std::uint8_t layer_slot = 0;
        if (image_backed) {
          layer_slot = static_cast<std::uint8_t>(pb.wire_layers.size());
          pb.wire_layers.push_back(layer);
        }
        for (const auto& f : layer->fields) {
          // No env stores TLV-located fields (DHCP's options): whatever
          // they are typed as, they stay kNone.
          if (f.loc == schema::FieldLoc::kTlvOption ||
              f.loc == schema::FieldLoc::kLengthPrefixed) {
            continue;
          }
          auto& b = pb.by_id[static_cast<std::size_t>(f.id)];
          b.spec = &f;
          b.layer_slot = layer_slot;
          switch (f.kind) {
            case schema::FieldKind::kScalar:
              b.kind = Binding::Kind::kWire;
              b.write_fills_rest_word =
                  layer->name == "icmp" && f.name == "pointer";
              break;
            case schema::FieldKind::kPayloadScalar:
              b.kind = Binding::Kind::kPayloadScalar;
              break;
            case schema::FieldKind::kBytes:
              b.kind = Binding::Kind::kBytes;
              break;
            case schema::FieldKind::kState: {
              if (layer->name == "bfd") {
                const int slot = index_in(
                    kBfdStateOrder, std::size(kBfdStateOrder), f.name);
                if (slot >= 0) {
                  b.kind = Binding::Kind::kStruct;
                  b.slot = static_cast<std::uint8_t>(slot);
                  break;
                }
              }
              b.kind = Binding::Kind::kState;
              b.slot = static_cast<std::uint8_t>(pb.state_slot_count++);
              break;
            }
            case schema::FieldKind::kToken:
            case schema::FieldKind::kVirtual:
              // Virtual fields share the token binding: readable tokens
              // read as 0, and write_is_noop virtuals (icmp.unused)
              // accept-and-discard writes.
              b.kind = Binding::Kind::kToken;
              break;
          }
        }
      }
      // Env templates: every per-protocol fact a fresh env needs,
      // resolved here once instead of per env.
      for (const auto* layer : pb.wire_layers) {
        LayerTemplate tmpl;
        tmpl.writable = std::any_of(
            layer->fields.begin(), layer->fields.end(), [](const auto& f) {
              return f.writable && !f.write_is_noop &&
                     f.kind != schema::FieldKind::kState &&
                     f.kind != schema::FieldKind::kVirtual;
            });
        if (tmpl.writable) tmpl.out_image.assign(layer->header_bytes, 0);
        pb.templates.push_back(std::move(tmpl));
      }
      for (const auto& d : p.defaults) {
        const auto v = static_cast<std::uint8_t>(d.value);
        if (d.layer == "ip" && d.field == "protocol") pb.ip_template.protocol = v;
        if (d.layer == "ip" && d.field == "ttl") pb.ip_template.ttl = v;
        if (d.layer == "ip6" && d.field == "next_header") {
          pb.ip6_template.next_header = v;
        }
        if (d.layer == "ip6" && d.field == "hop_limit") {
          pb.ip6_template.hop_limit = v;
        }
        const auto* spec = registry.field(d.layer, d.field);
        for (std::size_t i = 0; i < pb.wire_layers.size(); ++i) {
          if (spec != nullptr && pb.templates[i].writable &&
              pb.wire_layers[i]->name == d.layer) {
            schema::SchemaRegistry::write_scalar(*spec,
                                                 pb.templates[i].out_image,
                                                 d.value);
          }
        }
      }
      t->emplace(p.protocol, std::move(pb));
    }
    return t;
  }();
  const auto it = tables->find(protocol);
  if (it != tables->end()) return it->second;
  static const ProtocolBinding* empty = [] {
    auto* pb = new ProtocolBinding();
    pb->by_id.resize(schema::SchemaRegistry::instance().field_count());
    return pb;
  }();
  return *empty;
}

SchemaExecEnv::SchemaExecEnv(const ProtocolBinding& pb)
    : pb_(&pb), profile_(pb.profile) {
  wire_.resize(pb.wire_layers.size());
  for (std::size_t i = 0; i < wire_.size(); ++i) {
    wire_[i].spec = pb.wire_layers[i];
    const LayerTemplate& tmpl = pb.templates[i];
    if (tmpl.writable) {
      wire_[i].has_out = true;
      wire_[i].out_image.assign(tmpl.out_image.begin(), tmpl.out_image.end());
    }
  }
  state_slots_.assign(pb.state_slot_count, 0);
}

// -- factories --------------------------------------------------------------

SchemaExecEnv SchemaExecEnv::icmp(std::span<const std::uint8_t> raw_incoming,
                                  net::IpAddr own_address,
                                  bool start_from_incoming) {
  static const ProtocolBinding& pb = binding_for("ICMP");
  SchemaExecEnv env(pb);
  env.raw_incoming_ = raw_incoming;
  env.own_address_ = own_address;
  env.clock_ = 36000000;  // deterministic OS clock (ms since midnight UT)

  const auto ip = net::Ipv4Header::parse(raw_incoming);
  if (!ip) {
    env.valid_ = false;
    env.take_icmp_message({}, false, false);
    return env;
  }
  env.in_ip_ = *ip;
  env.take_icmp_message(
      raw_incoming.subspan(ip->header_length()),
      ip->protocol == static_cast<std::uint8_t>(net::IpProto::kIcmp),
      start_from_incoming);
  env.out_ip_ = pb.ip_template;
  env.out_ip_.src = own_address;
  return env;
}

SchemaExecEnv SchemaExecEnv::icmp6(std::span<const std::uint8_t> raw_incoming,
                                   net::Ip6Addr own_address,
                                   bool start_from_incoming) {
  static const ProtocolBinding& pb = binding_for("ICMP6");
  SchemaExecEnv env(pb);
  env.raw_incoming_ = raw_incoming;
  env.own6_ = own_address;
  env.clock_ = 36000000;  // deterministic OS clock (ms since midnight UT)

  const auto ip6 = net::Ipv6Header::parse(raw_incoming);
  if (!ip6) {
    env.valid_ = false;
    env.take_icmp_message({}, false, false);
    return env;
  }
  env.in_ip6_ = *ip6;
  env.take_icmp_message(raw_incoming.subspan(net::Ipv6Header::kHeaderBytes),
                        ip6->next_header == net::kIpProtoIcmp6,
                        start_from_incoming);
  // ip6 serialization defaults land on the struct-backed header — the
  // analogue of the image layers' templates.
  env.out_ip6_ = pb.ip6_template;
  env.out_ip6_.src = own_address;
  return env;
}

void SchemaExecEnv::take_icmp_message(std::span<const std::uint8_t> message,
                                      bool is_icmp, bool start_from_incoming) {
  auto& layer = wire_[0];
  layer.has_in = true;
  if (start_from_incoming && is_icmp && message.size() >= 8) {
    layer.in_image.assign(message.begin(), message.begin() + 8);
    layer.in_payload = message.subspan(8);
    // Reply-by-mutation (RFC 792): the outgoing message starts as a byte
    // copy of the request — the request's checksum included, stale on
    // purpose.
    layer.out_image = layer.in_image;
    layer.out_payload.assign(layer.in_payload.begin(), layer.in_payload.end());
    return;
  }
  input_truncated_ = is_icmp && message.size() < 8;
  if (start_from_incoming && input_truncated_) {
    // Truncated message on a receiver path (reply-by-mutation): keep only
    // the bytes that exist. Reads whose bit range falls past the end
    // report a short read (nullopt) instead of fabricating zeros from a
    // full-size blank image, so no reply is built from invented values.
    layer.in_image.assign(message.begin(), message.end());
  } else {
    // Undecodable packets, error-sender flows (any trigger) and receivers
    // of another protocol: RFC 792's field prose ("if code = 0, ...")
    // describes the error message under construction, not the offending
    // datagram, so the message view is a blank image. The offending
    // datagram stays reachable through the ip/ip6 layer and the
    // invoking-packet excerpt (raw_incoming_).
    layer.in_image.assign(layer.spec->header_bytes, 0);
  }
}

SchemaExecEnv SchemaExecEnv::igmp(net::IpAddr own_address,
                                  net::IpAddr host_group) {
  static const ProtocolBinding& pb = binding_for("IGMP");
  static const std::uint8_t group_slot =
      binding(pb, {"igmp", "host_group_address"})->slot;
  SchemaExecEnv env(pb);
  env.own_address_ = own_address;
  env.state_slots_[group_slot] = static_cast<long>(host_group.value());
  return env;
}

SchemaExecEnv SchemaExecEnv::ntp(net::IpAddr own_address,
                                 std::uint32_t clock_seconds) {
  SchemaExecEnv env(binding_for("NTP"));
  env.own_address_ = own_address;
  env.clock_ = clock_seconds;
  return env;
}

SchemaExecEnv SchemaExecEnv::ntp(net::IpAddr own_address,
                                 std::uint32_t clock_seconds,
                                 const net::NtpPacket& incoming) {
  SchemaExecEnv env = ntp(own_address, clock_seconds);
  for (auto& L : env.wire_) {
    if (L.spec->name == "ntp") {
      L.has_in = true;
      const auto bytes = incoming.serialize();
      L.in_image.assign(bytes.begin(), bytes.end());
    }
  }
  return env;
}

SchemaExecEnv SchemaExecEnv::bfd(net::BfdSessionState* state,
                                 const net::BfdControlPacket* packet) {
  SchemaExecEnv env(binding_for("BFD"));
  env.bfd_state_ = state;
  if (packet != nullptr) {
    auto& L = env.wire_[0];
    L.has_in = true;
    const auto bytes = packet->serialize();
    L.in_image.assign(bytes.begin(), bytes.end());
  }
  return env;
}

// -- field dispatch ---------------------------------------------------------

const SchemaExecEnv::Binding* SchemaExecEnv::binding(
    const ProtocolBinding& pb, const codegen::FieldRef& ref) {
  const auto* spec = codegen::field_spec(ref);
  if (spec == nullptr) return nullptr;
  return &pb.by_id[static_cast<std::size_t>(spec->id)];
}

std::optional<long> SchemaExecEnv::read_field(const codegen::FieldRef& ref,
                                              codegen::PacketSel sel) {
  const Binding* b = binding(ref);
  if (b == nullptr || b->kind == Binding::Kind::kNone) return std::nullopt;
  const auto& spec = *b->spec;
  if (!spec.readable) return std::nullopt;
  switch (b->kind) {
    case Binding::Kind::kWire: {
      const auto* img = wire_[b->layer_slot].image(sel);
      if (img == nullptr) return std::nullopt;
      return schema::SchemaRegistry::read_scalar(spec, *img);
    }
    case Binding::Kind::kPayloadScalar: {
      const LayerImages& L = wire_[b->layer_slot];
      const bool from_incoming =
          sel == codegen::PacketSel::kIncoming ? L.has_in : !L.has_out;
      const std::span<const std::uint8_t> pl =
          from_incoming ? L.in_payload
                        : std::span<const std::uint8_t>(L.out_payload);
      if (pl.size() < spec.payload_offset + 4) {
        // An outgoing block that has not been written yet reads as 0 (it
        // is under construction); an incoming packet that ends before the
        // field is a short read, not a zero.
        if (from_incoming) return std::nullopt;
        return 0;
      }
      return static_cast<long>(
          util::get_be32({pl.data() + spec.payload_offset, 4}));
    }
    case Binding::Kind::kStruct:
      return read_struct(b->slot, sel);
    case Binding::Kind::kState:
      return state_slots_[b->slot];
    case Binding::Kind::kToken:
      return 0;
    case Binding::Kind::kBytes:
    case Binding::Kind::kNone:
      return std::nullopt;
  }
  return std::nullopt;
}

bool SchemaExecEnv::write_field(const codegen::FieldRef& ref, long value) {
  const Binding* b = binding(ref);
  if (b == nullptr || b->kind == Binding::Kind::kNone) return false;
  const auto& spec = *b->spec;
  if (!spec.writable) return false;
  if (spec.write_is_noop) return true;
  switch (b->kind) {
    case Binding::Kind::kWire: {
      LayerImages& L = wire_[b->layer_slot];
      if (!L.has_out) return false;
      if (b->write_fills_rest_word) {
        // RFC 792 pointer: the write owns the whole rest word —
        // value << 24, unused octets zeroed.
        util::put_be32({L.out_image.data() + 4, 4},
                       static_cast<std::uint32_t>(
                           static_cast<std::uint8_t>(value))
                           << 24);
        return true;
      }
      return schema::SchemaRegistry::write_scalar(spec, L.out_image, value);
    }
    case Binding::Kind::kPayloadScalar: {
      LayerImages& L = wire_[b->layer_slot];
      if (!L.has_out) return false;
      // The payload-scalar block (the three ICMP timestamps) is sized as
      // a unit, matching the message format.
      const std::size_t block = L.spec->payload_scalar_bytes;
      if (L.out_payload.size() < block) L.out_payload.resize(block, 0);
      util::put_be32({L.out_payload.data() + spec.payload_offset, 4},
                     static_cast<std::uint32_t>(value));
      return true;
    }
    case Binding::Kind::kStruct:
      return write_struct(b->slot, value);
    case Binding::Kind::kState:
      state_slots_[b->slot] = value;
      return true;
    case Binding::Kind::kToken:
    case Binding::Kind::kBytes:
    case Binding::Kind::kNone:
      return false;
  }
  return false;
}

std::optional<long> SchemaExecEnv::read_struct(std::uint8_t slot,
                                               codegen::PacketSel sel) const {
  // Kind::kStruct covers every struct-backed field; the profile says which
  // struct this env carries (a protocol binds fields of only one).
  if (profile_ == Profile::kIcmp6) return read_ip6(slot, sel);
  if (profile_ == Profile::kBfd) {
    const auto& s = *bfd_state_;
    switch (slot) {
      case 0: return static_cast<long>(s.session_state);
      case 1: return static_cast<long>(s.remote_session_state);
      case 2: return static_cast<long>(s.local_discr);
      case 3: return static_cast<long>(s.remote_discr);
      case 4: return static_cast<long>(s.local_diag);
      case 5: return static_cast<long>(s.desired_min_tx_interval);
      case 6: return static_cast<long>(s.required_min_rx_interval);
      case 7: return static_cast<long>(s.remote_min_rx_interval);
      case 8: return s.demand_mode ? 1 : 0;
      case 9: return s.remote_demand_mode ? 1 : 0;
      case 10: return s.detect_mult;
      case 11: return s.auth_type;
      default: return std::nullopt;
    }
  }
  const net::Ipv4Header& ip =
      sel == codegen::PacketSel::kIncoming ? in_ip_ : out_ip_;
  switch (slot) {
    case 0: return static_cast<long>(ip.src.value());
    case 1: return static_cast<long>(ip.dst.value());
    case 2: return ip.ttl;
    case 3: return ip.tos;
    case 4: return ip.total_length;
    default: return std::nullopt;
  }
}

bool SchemaExecEnv::write_struct(std::uint8_t slot, long value) {
  if (profile_ == Profile::kIcmp6) return write_ip6(slot, value);
  if (profile_ == Profile::kBfd) {
    auto& s = *bfd_state_;
    switch (slot) {
      case 0: s.session_state = static_cast<net::BfdState>(value); return true;
      case 1: s.remote_session_state = static_cast<net::BfdState>(value); return true;
      case 2: s.local_discr = static_cast<std::uint32_t>(value); return true;
      case 3: s.remote_discr = static_cast<std::uint32_t>(value); return true;
      case 4: s.local_diag = static_cast<net::BfdDiag>(value); return true;
      case 5: s.desired_min_tx_interval = static_cast<std::uint32_t>(value); return true;
      case 6: s.required_min_rx_interval = static_cast<std::uint32_t>(value); return true;
      case 7: s.remote_min_rx_interval = static_cast<std::uint32_t>(value); return true;
      case 8: s.demand_mode = value != 0; return true;
      case 9: s.remote_demand_mode = value != 0; return true;
      case 10: s.detect_mult = static_cast<std::uint8_t>(value); return true;
      case 11: s.auth_type = static_cast<std::uint8_t>(value); return true;
      default: return false;
    }
  }
  switch (slot) {
    case 0: out_ip_.src = net::IpAddr(static_cast<std::uint32_t>(value)); return true;
    case 1: out_ip_.dst = net::IpAddr(static_cast<std::uint32_t>(value)); return true;
    case 2: out_ip_.ttl = static_cast<std::uint8_t>(value); return true;
    case 3: out_ip_.tos = static_cast<std::uint8_t>(value); return true;
    default: return false;
  }
}

std::optional<long> SchemaExecEnv::read_ip6(std::uint8_t slot,
                                            codegen::PacketSel sel) const {
  const bool incoming = sel == codegen::PacketSel::kIncoming;
  const net::Ipv6Header& ip = incoming ? in_ip6_ : out_ip6_;
  switch (slot) {
    // The 128-bit addresses read as opaque handles; write_ip6 resolves
    // them back to the stored Ip6Addr. Generated code only ever moves
    // these values between address fields, so the round trip is lossless.
    case 0: return incoming ? kH6InSrc : kH6OutSrc;
    case 1: return incoming ? kH6InDst : kH6OutDst;
    case 2: return ip.hop_limit;
    case 3: return ip.traffic_class;
    case 4: return ip.version;
    case 5: return static_cast<long>(ip.flow_label);
    case 6: return ip.payload_length;
    case 7: return ip.next_header;
    default: return std::nullopt;
  }
}

const net::Ip6Addr* SchemaExecEnv::resolve_addr6(long handle) const {
  if (handle == kH6InSrc) return &in_ip6_.src;
  if (handle == kH6InDst) return &in_ip6_.dst;
  if (handle == kH6OutSrc) return &out_ip6_.src;
  if (handle == kH6OutDst) return &out_ip6_.dst;
  if (handle == kH6Own) return &own6_;
  return nullptr;
}

bool SchemaExecEnv::write_ip6(std::uint8_t slot, long value) {
  switch (slot) {
    case 0:
    case 1: {
      const net::Ip6Addr* addr = resolve_addr6(value);
      if (addr == nullptr) return false;  // not an address handle
      const net::Ip6Addr resolved = *addr;  // copy: target may alias
      (slot == 0 ? out_ip6_.src : out_ip6_.dst) = resolved;
      return true;
    }
    case 2: out_ip6_.hop_limit = static_cast<std::uint8_t>(value); return true;
    case 3: out_ip6_.traffic_class = static_cast<std::uint8_t>(value); return true;
    default: return false;
  }
}

// -- bytes ------------------------------------------------------------------

bool SchemaExecEnv::is_bytes_field(const codegen::FieldRef& ref) const {
  const Binding* b = binding(ref);
  return b != nullptr && b->kind == Binding::Kind::kBytes;
}

std::optional<std::vector<std::uint8_t>> SchemaExecEnv::read_bytes(
    const codegen::FieldRef& ref, codegen::PacketSel sel) {
  const Binding* b = binding(ref);
  if (b == nullptr || b->kind != Binding::Kind::kBytes) return std::nullopt;
  const LayerImages& L = wire_[b->layer_slot];
  const std::span<const std::uint8_t> payload =
      sel == codegen::PacketSel::kIncoming
          ? L.in_payload
          : std::span<const std::uint8_t>(L.out_payload);
  return std::vector<std::uint8_t>(payload.begin(), payload.end());
}

bool SchemaExecEnv::write_bytes(const codegen::FieldRef& ref,
                                std::vector<std::uint8_t> value) {
  const Binding* b = binding(ref);
  if (b == nullptr || b->kind != Binding::Kind::kBytes) return false;
  wire_[b->layer_slot].out_payload.assign(value.begin(), value.end());
  return true;
}

// -- framework functions (the per-protocol profiles) ------------------------

std::vector<std::uint8_t> SchemaExecEnv::out_message_bytes() const {
  const LayerImages& L = wire_[0];
  std::vector<std::uint8_t> bytes(L.out_image.begin(), L.out_image.end());
  bytes.insert(bytes.end(), L.out_payload.begin(), L.out_payload.end());
  return bytes;
}

bool SchemaExecEnv::is_bytes_function(const std::string& fn) const {
  return codegen::framework::find(profile_, fn, Kind::kBytes) != nullptr;
}

std::optional<long> SchemaExecEnv::call_scalar(const std::string& fn,
                                               const std::vector<long>& args) {
  const auto* f = codegen::framework::find(profile_, fn, Kind::kScalar);
  if (f == nullptr) return std::nullopt;
  return framework_value(f->op, args);
}

long SchemaExecEnv::framework_value(FrameworkOp op,
                                    std::span<const long> args) const {
  switch (op) {
    case FrameworkOp::kClock: return static_cast<long>(clock_);
    case FrameworkOp::kClockPlusOne: return static_cast<long>(clock_) + 1;
    case FrameworkOp::kErrorOctet: return error_pointer_;
    case FrameworkOp::kBetterGateway:
      return static_cast<long>(better_gateway_.value());
    case FrameworkOp::kLinkMtu: return kIcmp6LinkMtu;
    case FrameworkOp::kOwnAddress:
      // ICMPv6 serves its address as an opaque handle, like every other
      // 128-bit address (write_ip6 resolves it).
      return profile_ == Profile::kIcmp6
                 ? kH6Own
                 : static_cast<long>(own_address_.value());
    case FrameworkOp::kChecksum:
      if (args.size() == 1) return (~args[0]) & 0xffff;
      [[fallthrough]];
    case FrameworkOp::kChecksumSum: {
      // Over the outgoing message as currently constructed, including
      // whatever sits in the checksum field (stale-value semantics; see
      // finish_reply). ICMPv6 chains the RFC 4443 §2.3 pseudo-header in.
      const auto bytes = out_message_bytes();
      const std::uint16_t pseudo =
          profile_ == Profile::kIcmp6
              ? net::pseudo_header_sum_v6(
                    out_ip6_.src.bytes(), out_ip6_.dst.bytes(),
                    static_cast<std::uint32_t>(bytes.size()),
                    net::kIpProtoIcmp6)
              : 0;
      return op == FrameworkOp::kChecksum
                 ? net::internet_checksum(bytes, pseudo)
                 : net::ones_complement_sum(bytes, pseudo);
    }
    case FrameworkOp::kSessionLookup: return session_lookup_fails_ ? 0 : 1;
    default: return 0;  // kDeferredZero: finish() computes the checksum
  }
}

std::optional<std::vector<std::uint8_t>> SchemaExecEnv::call_bytes(
    const std::string& fn) {
  const auto* f = codegen::framework::find(profile_, fn, Kind::kBytes);
  if (f == nullptr) return std::nullopt;
  // kIncomingPayload: the echoed data, copied out of the raw packet.
  const auto bytes = f->op == FrameworkOp::kExcerpt ? datagram_excerpt()
                                                    : wire_[0].in_payload;
  return std::vector<std::uint8_t>(bytes.begin(), bytes.end());
}

std::span<const std::uint8_t> SchemaExecEnv::datagram_excerpt() const {
  if (profile_ == Profile::kIcmp6) {
    // RFC 4443 §3.1: as much of the invoking packet as possible without
    // the ICMPv6 packet exceeding the minimum IPv6 MTU.
    constexpr std::size_t kMaxExcerpt =
        1280 - net::Ipv6Header::kHeaderBytes - 8;
    return raw_incoming_.first(std::min(raw_incoming_.size(), kMaxExcerpt));
  }
  // RFC 792: the internet header + the first 64 bits of data. The icmp
  // factory parsed that header into in_ip_; an undecodable packet
  // quotes nothing (net::original_datagram_excerpt's contract).
  if (!valid_) return {};
  return raw_incoming_.first(
      std::min(raw_incoming_.size(), in_ip_.header_length() + 8));
}

bool SchemaExecEnv::call_effect(const std::string& fn,
                                const std::vector<long>& /*args*/) {
  const auto* f = codegen::framework::find(profile_, fn, Kind::kEffect);
  if (f == nullptr) return false;
  framework_effect(f->op);
  return true;
}

void SchemaExecEnv::set_scenario(std::string_view name) {
  // Hashed once so the threaded backend's kPushScenario is a plain load
  // (the tree's resolve_symbol reads the same value).
  scenario_value_ = util::symbol_value(name);
}

long SchemaExecEnv::resolve_symbol(const std::string& name) {
  if (pb_->schema != nullptr && pb_->schema->scenario_symbol &&
      util::to_lower(name) == "scenario") {
    return scenario_value_;
  }
  return schema::symbol_value(pb_->schema, name);
}

// -- finalization -----------------------------------------------------------

std::vector<std::uint8_t> SchemaExecEnv::finish_reply() {
  // One exact reservation: the IP header is serialized first, the
  // message image and payload appended after it, and the checksum runs
  // in place over that message span.
  const LayerImages& L = wire_[0];
  const std::size_t message_bytes = L.out_image.size() + L.out_payload.size();
  const bool v6 = profile_ == Profile::kIcmp6;
  if (v6) {
    if (out_ip6_.src == net::Ip6Addr()) out_ip6_.src = own6_;
  } else if (out_ip_.src == net::IpAddr()) {
    out_ip_.src = own_address_;
  }
  const std::size_t header_bytes =
      v6 ? net::Ipv6Header::kHeaderBytes
         : 20 + (out_ip_.options.size() + 3) / 4 * 4;
  std::vector<std::uint8_t> out;
  out.reserve(header_bytes + message_bytes);
  if (v6) {
    net::Ipv6Header hdr = out_ip6_;
    hdr.payload_length = static_cast<std::uint16_t>(message_bytes);
    hdr.serialize(out);
  } else {
    out_ip_.serialize(out, message_bytes);
  }
  out.insert(out.end(), L.out_image.begin(), L.out_image.end());
  out.insert(out.end(), L.out_payload.begin(), L.out_payload.end());
  if (checksum_explicitly_computed_) {
    // The framework checksum covers the message *including* the field's
    // current value. Generated code that followed the @AdvBefore advice
    // zeroed the field first, yielding the RFC-correct checksum; code
    // that skipped it bakes a stale value into the sum. ICMPv6 chains
    // the RFC 4443 §2.3 pseudo-header in.
    const std::span<std::uint8_t> message(out.data() + header_bytes,
                                          message_bytes);
    const std::uint16_t ck =
        v6 ? net::icmp6_checksum(out_ip6_.src, out_ip6_.dst, message)
           : net::internet_checksum(message);
    util::put_be16(message.subspan(2, 2), ck);
  }
  return out;
}

std::vector<std::uint8_t> SchemaExecEnv::finish(net::IpAddr destination) const {
  net::Ipv4Header ip = pb_->ip_template;
  ip.src = own_address_;
  ip.dst = destination;

  if (profile_ == Profile::kIgmp) {
    // The IGMP checksum is always computed at serialization time over
    // the 8-byte message, whatever the checksum field was set to.
    std::vector<std::uint8_t> bytes(wire_[0].out_image.begin(),
                                    wire_[0].out_image.end());
    bytes[2] = 0;
    bytes[3] = 0;
    const std::uint16_t ck = net::internet_checksum(bytes);
    util::put_be16({bytes.data() + 2, 2}, ck);
    return net::build_ipv4_packet(ip, bytes);
  }

  // NTP: the packet image inside UDP inside IP, well-known port 123 when
  // generated code didn't set one.
  std::size_t udp_slot = 0;
  std::size_t ntp_slot = 0;
  for (std::size_t i = 0; i < wire_.size(); ++i) {
    if (wire_[i].spec->name == "udp") udp_slot = i;
    if (wire_[i].spec->name == "ntp") ntp_slot = i;
  }
  const auto& ntp_bytes = wire_[ntp_slot].out_image;
  net::UdpHeader udp;
  udp.src_port = util::get_be16({wire_[udp_slot].out_image.data(), 2});
  udp.dst_port = util::get_be16({wire_[udp_slot].out_image.data() + 2, 2});
  if (udp.src_port == 0) udp.src_port = net::kNtpPort;
  if (udp.dst_port == 0) udp.dst_port = net::kNtpPort;
  const auto udp_bytes = udp.serialize(own_address_, destination, ntp_bytes);
  return net::build_ipv4_packet(ip, udp_bytes);
}

}  // namespace sage::runtime
