// The static framework's function table (§5.1).
//
// Generated code calls functions the RFC uses but never defines: the
// clock, the checksum, the invoking-packet excerpt, BFD's session
// lookup. The paper's static framework "provides such functionality
// along with an API"; this table declares that API once. A row names a
// function one protocol profile serves, whether it returns a scalar,
// returns bytes or acts as an effect, and the op that implements it.
// runtime::SchemaExecEnv runs the op's body for a call, vm::compile
// specializes a call into the VM op its row's op names, and the lowering
// and the C unit ask which calls are byte-valued. The state-machine
// profile (TCP, BGP) has no rows: its env records every effect.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace sage::codegen::framework {

enum class Profile : std::uint8_t {
  kIcmp, kIcmp6, kIgmp, kNtp, kBfd, kDhcp, kStateMachine
};

enum class Kind : std::uint8_t { kScalar, kBytes, kEffect };

/// What a function does: one env body per op.
enum class Op : std::uint8_t {
  // Values: the env clock, clock + 1 (ICMP transmit timestamp), the
  // parameter-problem pointer, the redirect gateway, the ICMPv6 next-hop
  // MTU, the node's own address.
  kClock, kClockPlusOne, kErrorOctet, kBetterGateway, kLinkMtu, kOwnAddress,
  // Checksums over the outgoing message: the ones'-complement sum, its
  // complement (of the argument, given one), and 0 where serialization
  // fills the real checksum.
  kChecksumSum, kChecksum, kDeferredZero,
  // BFD (RFC 5880 §6.8.6): 1 when the Your Discriminator lookup found a
  // session, then the session effects.
  kSessionLookup, kSelectSession, kDiscard, kCease, kTransmit,
  // Bytes: the invoking-packet excerpt an error message quotes, and the
  // incoming message's data.
  kExcerpt, kIncomingPayload,
  // Effects: the address swap, the deferred-checksum flag, accept and
  // ignore, the timeout.
  kReverseAddresses, kChecksumFlag, kNop, kTimeout
};

struct Function {
  Profile profile;
  std::string_view name;
  Kind kind;
  Op op;
};

/// Every row, grouped by profile.
std::span<const Function> functions();

/// The profile a schema protocol ("ICMP", "BFD", ...) runs under.
Profile profile_of(std::string_view protocol);

/// The row `profile` serves `name` through, or nullptr when it serves no
/// such function of that kind.
const Function* find(Profile profile, std::string_view name, Kind kind);

/// True when some profile serves `name` as bytes.
bool returns_bytes(std::string_view name);

}  // namespace sage::codegen::framework
