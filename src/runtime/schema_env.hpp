// Table-driven execution environment: ONE env for every protocol,
// configured from the packet-schema registry (net/schema.hpp).
//
// This replaces the four bespoke Icmp/Igmp/Ntp/BfdExecEnv classes. A
// protocol environment is a registry entry (which layers exist, where
// fields live) plus a small per-protocol profile for the behaviors that
// are genuinely special: ICMP's deliberately-stale echo checksum, IGMP's
// serialize-time checksum, BFD's session-state storage. The framework
// functions each profile serves are rows of one table
// (codegen/framework.hpp). Everything else — field reads, writes, payload
// rows, symbols — is generic table dispatch:
//
//   read_field(ref, sel)  ->  bindings[ref.field_id]  ->  bit extraction
//
// so the interpreter hot path does no string comparisons once codegen
// has attached field ids (refs without ids fall back to a registry
// lookup by name and behave identically).
//
// Outgoing headers are kept as serialized byte images, not structs: a
// write lands the bits exactly where the wire format puts them, and
// finish()/finish_reply() emit the image directly. This is what makes
// the stale-checksum semantics fall out naturally — the checksum field
// is just bytes 2..3 of the image, emitted as generated code left them.
#pragma once

#include <cstdint>
#include <memory_resource>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "codegen/framework.hpp"
#include "codegen/ir.hpp"
#include "net/bfd.hpp"
#include "net/ipv4.hpp"
#include "net/ipv6.hpp"
#include "net/ntp.hpp"
#include "net/schema.hpp"
#include "util/symbols.hpp"

namespace sage::runtime {

namespace vm {
struct EnvAccess;
}  // namespace vm

class SchemaExecEnv {
 public:
  // -- factories (one per protocol environment) ----------------------------

  /// ICMP responder environment. `raw_incoming` must start at the IP
  /// header and outlive the env. `start_from_incoming` models the
  /// reply-by-mutation idiom of RFC 792: the outgoing message starts as a
  /// byte copy of the incoming one — including its stale checksum, which
  /// is what makes the zero-before-compute advice (@AdvBefore) observable.
  static SchemaExecEnv icmp(std::span<const std::uint8_t> raw_incoming,
                            net::IpAddr own_address,
                            bool start_from_incoming = false);

  /// ICMPv6 responder environment. `raw_incoming` must start at the IPv6
  /// header. The 128-bit addresses are served to generated code as opaque
  /// long handles (reads of ip6.src/ip6.dst return a handle constant;
  /// writes resolve the handle back to the stored Ip6Addr), which is
  /// lossless because generated code only ever *moves* addresses
  /// ("out->ip6.dst = in->ip6.src"), never computes on them.
  static SchemaExecEnv icmp6(std::span<const std::uint8_t> raw_incoming,
                             net::Ip6Addr own_address,
                             bool start_from_incoming = false);

  /// IGMP sender environment. `host_group` is the group a report
  /// announces (the framework's "which group am I joining" service): the
  /// read-only state slot igmp.host_group_address starts with it.
  static SchemaExecEnv igmp(net::IpAddr own_address, net::IpAddr host_group);

  /// NTP sender environment (no incoming packet: the timeout procedure).
  static SchemaExecEnv ntp(net::IpAddr own_address,
                           std::uint32_t clock_seconds);

  /// NTP environment with an incoming packet: kIncoming field reads see
  /// `incoming`, kOutgoing reads see the reply under construction. (The
  /// legacy NtpExecEnv discarded PacketSel; this overload is the fix.)
  static SchemaExecEnv ntp(net::IpAddr own_address, std::uint32_t clock_seconds,
                           const net::NtpPacket& incoming);

  /// BFD reception environment: `state` receives the generated state
  /// updates; `packet` (may be null) backs the wire-field reads.
  static SchemaExecEnv bfd(net::BfdSessionState* state,
                           const net::BfdControlPacket* packet);

  // -- per-run knobs (same surface the legacy envs had) --------------------

  bool valid() const { return valid_; }
  /// ICMP: the incoming packet claimed to carry an ICMP message but ended
  /// before the 8-byte ICMP header. Field reads over the missing bytes
  /// return nullopt (short read) instead of the old silent zero-fill.
  bool input_truncated() const { return input_truncated_; }
  /// The scenario symbol generated code compares against: a name,
  /// hashed with util::symbol_value, or a value hashed ahead of time.
  void set_scenario(std::string_view name);
  void set_scenario_value(long value) { scenario_value_ = value; }
  void set_error_pointer(std::uint8_t pointer) { error_pointer_ = pointer; }
  void set_better_gateway(net::IpAddr gateway) { better_gateway_ = gateway; }
  void set_clock(std::uint32_t now) { clock_ = now; }
  void set_session_lookup_fails(bool fails) { session_lookup_fails_ = fails; }

  bool session_selected() const { return session_selected_; }
  bool timeout_called() const { return timeout_called_; }
  bool packet_transmitted() const { return packet_transmitted_; }

  // -- finalization --------------------------------------------------------

  /// ICMP: serialize the reply packet into one exactly-sized buffer (IP
  /// header, then the message image and payload). The checksum field is
  /// emitted exactly as generated code left it in the image; when the
  /// code called compute_checksum, the framework sums the message
  /// *including* that field, in place — stale values corrupt the sum,
  /// which is how the @AdvBefore advice's absence becomes a test failure.
  std::vector<std::uint8_t> finish_reply();

  /// IGMP / NTP: finalize the message inside IP (and UDP for NTP) to
  /// `destination`, applying the schema's serialization defaults
  /// (IGMP ttl=1; NTP port 123, ttl=64).
  std::vector<std::uint8_t> finish(net::IpAddr destination) const;

  // -- typed view for tests ------------------------------------------------

  const net::Ipv4Header& out_ip() const { return out_ip_; }

  // -- generated-code access (the tree interpreter, the VM's slow path) ----
  std::optional<long> read_field(const codegen::FieldRef& ref,
                                 codegen::PacketSel sel);
  bool write_field(const codegen::FieldRef& ref, long value);
  bool is_bytes_field(const codegen::FieldRef& ref) const;
  std::optional<std::vector<std::uint8_t>> read_bytes(
      const codegen::FieldRef& ref, codegen::PacketSel sel);
  bool write_bytes(const codegen::FieldRef& ref,
                   std::vector<std::uint8_t> value);
  /// Framework calls, looked up in this profile's rows of the framework
  /// table: nullopt / false when the profile serves no such function.
  bool is_bytes_function(const std::string& fn) const;
  std::optional<long> call_scalar(const std::string& fn,
                                  const std::vector<long>& args);
  std::optional<std::vector<std::uint8_t>> call_bytes(const std::string& fn);
  bool call_effect(const std::string& fn, const std::vector<long>& args);
  /// Resolve a symbolic name ("scenario", "net unreachable", "up") to a
  /// comparable value.
  long resolve_symbol(const std::string& name);

 private:
  /// The threaded-code backend (runtime/vm) reads the binding tables at
  /// program-compile time and the layer images / slots at execution
  /// time, through this one bridge.
  friend struct vm::EnvAccess;

  /// The handful of genuinely protocol-specific behaviors (framework
  /// functions, finalization); field access never consults this.
  using Profile = codegen::framework::Profile;

  /// How one registry field maps onto this env's storage.
  struct Binding {
    enum class Kind : std::uint8_t {
      kNone,           // not bound in this protocol -> nullopt/false
      kWire,           // bit range in a layer's header image
      kPayloadScalar,  // 32-bit big-endian at a payload byte offset
      kBytes,          // the payload itself
      kStruct,         // a field of a struct the env holds: the IPv4 or
                       // IPv6 header, or the RFC 5880 §6.8.1 session
      kState,          // generic long slot (igmp.host_group_address,
                       // ntp.peer_timer, tcp.*, bgp.*)
      kToken,          // reads as 0 ("the ICMP message")
    };
    Kind kind = Kind::kNone;
    const net::schema::FieldSpec* spec = nullptr;
    std::uint8_t layer_slot = 0;  // kWire/kPayloadScalar/kBytes: wire_ index
    std::uint8_t slot = 0;        // kState/kStruct: accessor index
    /// icmp.pointer: a write fills the whole 32-bit rest word with
    /// value << 24 (RFC 792's "pointer + unused"), zeroing the rest.
    bool write_fills_rest_word = false;
  };

  /// What a fresh env copies for one image-backed layer: whether
  /// generated code can write it and, if so, its out image with the
  /// schema defaults applied.
  struct LayerTemplate {
    bool writable = false;
    std::vector<std::uint8_t> out_image;
  };

  /// Immutable per-protocol dispatch table and env template, built once
  /// per process: binding for every registry field id, the image-backed
  /// layers in serialization order with their templates, and the
  /// outgoing IP headers with the schema's serialization defaults.
  struct ProtocolBinding {
    const net::schema::ProtocolSchema* schema = nullptr;
    Profile profile = Profile::kNone;
    std::vector<Binding> by_id;
    std::vector<const net::schema::LayerSpec*> wire_layers;
    std::vector<LayerTemplate> templates;  // parallel to wire_layers
    net::Ipv4Header ip_template;
    net::Ipv6Header ip6_template;
    std::size_t state_slot_count = 0;
  };

  /// In/out serialized images (+ payloads) for one image-backed layer.
  /// Allocator-aware: image storage bump-allocates from the per-thread
  /// env arena (see image_arena / EnvArenaScope below), so building an
  /// env and assembling its images costs zero heap traffic once the
  /// arena's chunks are warm. The incoming payload is never copied: it
  /// is a view of the raw incoming packet, which outlives the env.
  struct LayerImages {
    using allocator_type = std::pmr::polymorphic_allocator<std::byte>;
    LayerImages() = default;
    explicit LayerImages(allocator_type alloc)
        : in_image(alloc), out_image(alloc), out_payload(alloc) {}
    LayerImages(LayerImages&& other, allocator_type alloc)
        : spec(other.spec),
          has_in(other.has_in),
          has_out(other.has_out),
          in_image(std::move(other.in_image), alloc),
          out_image(std::move(other.out_image), alloc),
          in_payload(other.in_payload),
          out_payload(std::move(other.out_payload), alloc) {}
    LayerImages(LayerImages&&) = default;
    LayerImages(const LayerImages&) = default;
    LayerImages& operator=(LayerImages&&) = default;
    LayerImages& operator=(const LayerImages&) = default;

    /// The image a read with `sel` sees: the selector is honored when
    /// both packets exist, and single-sided envs (IGMP/NTP senders) serve
    /// their one image for either selector.
    const std::pmr::vector<std::uint8_t>* image(codegen::PacketSel sel) const {
      return sel == codegen::PacketSel::kIncoming
                 ? (has_in ? &in_image : (has_out ? &out_image : nullptr))
                 : (has_out ? &out_image : (has_in ? &in_image : nullptr));
    }

    const net::schema::LayerSpec* spec = nullptr;
    bool has_in = false;
    bool has_out = false;
    std::pmr::vector<std::uint8_t> in_image;
    std::pmr::vector<std::uint8_t> out_image;
    std::span<const std::uint8_t> in_payload;
    std::pmr::vector<std::uint8_t> out_payload;
  };

  explicit SchemaExecEnv(const ProtocolBinding& pb);

  static const ProtocolBinding& binding_for(const std::string& protocol);

  /// The binding `ref` resolves to in `pb`: its dense id when annotated,
  /// a registry lookup by name otherwise (hand-built IR, the reference
  /// corpus). The VM compiler resolves through the same function.
  static const Binding* binding(const ProtocolBinding& pb,
                                const codegen::FieldRef& ref);
  const Binding* binding(const codegen::FieldRef& ref) const {
    return binding(*pb_, ref);
  }
  /// The outgoing message: layer 0's out image, then its payload.
  std::vector<std::uint8_t> out_message_bytes() const;
  /// ICMP/ICMPv6: the invoking-packet excerpt an error message quotes, as
  /// a view of the raw incoming packet (RFC 792: internet header + 64
  /// bits of data; RFC 4443 §3.1: as much as fits the minimum MTU).
  std::span<const std::uint8_t> datagram_excerpt() const;

  /// The ICMP and ICMPv6 factories' incoming-message view: `message` is
  /// what follows the IP header, `is_icmp` whether that header names the
  /// factory's ICMP version as the next protocol.
  void take_icmp_message(std::span<const std::uint8_t> message, bool is_icmp,
                         bool start_from_incoming);

  /// A Kind::kStruct field of the one struct this env's profile carries:
  /// the IPv4 header, the IPv6 header or the BFD session.
  std::optional<long> read_struct(std::uint8_t slot,
                                  codegen::PacketSel sel) const;
  bool write_struct(std::uint8_t slot, long value);
  std::optional<long> read_ip6(std::uint8_t slot, codegen::PacketSel sel) const;
  bool write_ip6(std::uint8_t slot, long value);
  const net::Ip6Addr* resolve_addr6(long handle) const;

  /// The bodies of the framework table's scalar and effect ops, shared
  /// by call_scalar / call_effect and the VM's specialized ops.
  long framework_value(codegen::framework::Op op,
                       std::span<const long> args) const;
  /// Inline, so the VM's kEffect op runs it without a call.
  void framework_effect(codegen::framework::Op op);

  /// The thread-local arena backing every env's layer images on this
  /// thread (defined in schema_env.cpp).
  static std::pmr::memory_resource* image_arena();

  /// Depth guard for the image arena: the first env constructed on a
  /// thread (no other env alive) resets the arena, reclaiming the
  /// previous run's images while keeping the chunks. Overlapping envs —
  /// the differential harness compares two at once — share the arena and
  /// defer the reset until all of them are gone. Copies and moves of an
  /// env count as live users.
  struct EnvArenaScope {
    EnvArenaScope();
    EnvArenaScope(const EnvArenaScope&);
    EnvArenaScope& operator=(const EnvArenaScope&) { return *this; }
    ~EnvArenaScope();
  };

  const ProtocolBinding* pb_;
  Profile profile_;
  EnvArenaScope arena_scope_;  // must precede wire_: resets before allocs
  std::pmr::vector<LayerImages> wire_{image_arena()};
  std::vector<long> state_slots_;

  // ICMP: the IP layer is struct-backed (finish_reply builds the header).
  net::Ipv4Header in_ip_;
  net::Ipv4Header out_ip_;
  // ICMPv6: same idea, one version up. Generated code sees the 128-bit
  // addresses only as opaque handles (see read_ip6/write_ip6).
  net::Ipv6Header in_ip6_;
  net::Ipv6Header out_ip6_;
  net::Ip6Addr own6_;
  std::span<const std::uint8_t> raw_incoming_;
  bool valid_ = true;
  bool input_truncated_ = false;

  net::IpAddr own_address_;
  net::BfdSessionState* bfd_state_ = nullptr;

  long scenario_value_ = util::symbol_value({});  // set_scenario's hash
  std::uint8_t error_pointer_ = 0;
  net::IpAddr better_gateway_;
  std::uint32_t clock_ = 0;  // ICMP: ms since midnight UT; NTP: seconds

  bool checksum_explicitly_computed_ = false;
  bool session_selected_ = false;
  bool session_lookup_fails_ = false;
  bool timeout_called_ = false;
  bool packet_transmitted_ = false;
};

inline void SchemaExecEnv::framework_effect(codegen::framework::Op op) {
  using Op = codegen::framework::Op;
  switch (op) {
    case Op::kReverseAddresses:
      if (profile_ == Profile::kIcmp6) {
        out_ip6_.src = in_ip6_.dst;
        out_ip6_.dst = in_ip6_.src;
      } else {
        out_ip_.src = in_ip_.dst;
        out_ip_.dst = in_ip_.src;
      }
      break;
    case Op::kChecksumFlag:
      // Deferred: the framework computes the checksum when the message is
      // finalized, after every field is in place (finish_reply, finish).
      checksum_explicitly_computed_ = true;
      break;
    case Op::kTimeout: timeout_called_ = true; break;
    case Op::kSelectSession:
      session_selected_ = !session_lookup_fails_;
      break;
    case Op::kDiscard:
      // "If no session is found, the packet MUST be discarded": generated
      // code guards this with the rewritten condition (Table 5).
      bfd_state_->packet_discarded = true;
      break;
    case Op::kCease:
      bfd_state_->periodic_transmission_enabled = false;
      break;
    case Op::kTransmit: packet_transmitted_ = true; break;
    default: break;  // kNop: transmission is the simulator's job
  }
}

}  // namespace sage::runtime
