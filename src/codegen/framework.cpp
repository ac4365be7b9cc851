#include "codegen/framework.hpp"

#include <algorithm>
#include <utility>

namespace sage::codegen::framework {

namespace {

using enum Profile;
using enum Kind;
using enum Op;

constexpr Function kFunctions[] = {
    // ICMP (RFC 792). The checksums cover the outgoing message as built,
    // whatever its checksum field holds (see SchemaExecEnv::finish_reply).
    {kIcmp, "ones_complement_sum", kScalar, kChecksumSum},
    {kIcmp, "ones_complement", kScalar, kChecksum},
    {kIcmp, "current_time", kScalar, kClock},
    {kIcmp, "receive_time", kScalar, kClock},
    {kIcmp, "transmit_time", kScalar, kClockPlusOne},
    {kIcmp, "error_octet", kScalar, kErrorOctet},
    {kIcmp, "better_gateway", kScalar, kBetterGateway},
    {kIcmp, "own_address", kScalar, kOwnAddress},
    {kIcmp, "original_datagram_excerpt", kBytes, kExcerpt},
    {kIcmp, "copy_field", kBytes, kIncomingPayload},
    {kIcmp, "reverse_addresses", kEffect, kReverseAddresses},
    {kIcmp, "recompute_checksum", kEffect, kChecksumFlag},
    {kIcmp, "compute_checksum", kEffect, kChecksumFlag},
    {kIcmp, "send_message", kEffect, kNop},  // the simulator transmits
    {kIcmp, "discard_packet", kEffect, kNop},
    // ICMPv6 (RFC 4443): the checksums chain the §2.3 pseudo-header in.
    {kIcmp6, "ones_complement_sum", kScalar, kChecksumSum},
    {kIcmp6, "ones_complement", kScalar, kChecksum},
    {kIcmp6, "current_time", kScalar, kClock},
    {kIcmp6, "receive_time", kScalar, kClock},
    {kIcmp6, "transmit_time", kScalar, kClockPlusOne},
    {kIcmp6, "error_octet", kScalar, kErrorOctet},
    {kIcmp6, "link_mtu", kScalar, kLinkMtu},
    {kIcmp6, "own_address", kScalar, kOwnAddress},
    {kIcmp6, "original_datagram_excerpt", kBytes, kExcerpt},
    {kIcmp6, "copy_field", kBytes, kIncomingPayload},
    {kIcmp6, "reverse_addresses", kEffect, kReverseAddresses},
    {kIcmp6, "recompute_checksum", kEffect, kChecksumFlag},
    {kIcmp6, "compute_checksum", kEffect, kChecksumFlag},
    {kIcmp6, "send_message", kEffect, kNop},
    {kIcmp6, "discard_packet", kEffect, kNop},
    // IGMP (RFC 1112): finish() always computes the checksum.
    {kIgmp, "ones_complement_sum", kScalar, kDeferredZero},
    {kIgmp, "ones_complement", kScalar, kDeferredZero},
    {kIgmp, "compute_checksum", kEffect, kChecksumFlag},
    {kIgmp, "recompute_checksum", kEffect, kChecksumFlag},
    {kIgmp, "send_message", kEffect, kNop},
    {kIgmp, "discard_packet", kEffect, kNop},
    // NTP (RFC 1059): the UDP checksum is filled at serialization.
    {kNtp, "current_time", kScalar, kClock},
    {kNtp, "ones_complement_sum", kScalar, kDeferredZero},
    {kNtp, "ones_complement", kScalar, kDeferredZero},
    {kNtp, "call_timeout", kEffect, kTimeout},
    {kNtp, "timeout", kEffect, kTimeout},
    {kNtp, "compute_checksum", kEffect, kNop},
    {kNtp, "recompute_checksum", kEffect, kNop},
    {kNtp, "send_message", kEffect, kNop},
    {kNtp, "transmit_packet", kEffect, kNop},
    // BFD (RFC 5880 §6.8.6).
    {kBfd, "session_lookup", kScalar, kSessionLookup},
    {kBfd, "select_session", kEffect, kSelectSession},
    {kBfd, "discard_packet", kEffect, kDiscard},
    {kBfd, "cease_transmission", kEffect, kCease},
    {kBfd, "call_timeout", kEffect, kTimeout},
    {kBfd, "transmit_packet", kEffect, kTransmit},
    {kBfd, "send_message", kEffect, kTransmit},
};

}  // namespace

std::span<const Function> functions() { return kFunctions; }

Profile profile_of(std::string_view protocol) {
  static constexpr std::pair<std::string_view, Profile> kProfiles[] = {
      {"ICMP", kIcmp}, {"ICMP6", kIcmp6}, {"IGMP", kIgmp},
      {"NTP", kNtp},   {"BFD", kBfd},
  };
  for (const auto& [name, profile] : kProfiles) {
    if (name == protocol) return profile;
  }
  return kNone;
}

const Function* find(Profile profile, std::string_view name, Kind kind) {
  for (const Function& f : kFunctions) {
    if (f.profile == profile && f.name == name) {
      return f.kind == kind ? &f : nullptr;
    }
  }
  return nullptr;
}

bool returns_bytes(std::string_view name) {
  return std::ranges::any_of(kFunctions, [&](const Function& f) {
    return f.kind == kBytes && f.name == name;
  });
}

}  // namespace sage::codegen::framework
