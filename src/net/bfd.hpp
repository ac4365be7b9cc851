// BFD (RFC 5880) control packet (§4.1) and session state variables
// (§6.8 of the RFC). SAGE §6.4 parses the §6.8.6 state-management
// sentences; the generated logical forms update *these* variables when a
// control packet is received, and the interop test checks the resulting
// session behaviour (three-way state machine Down -> Init -> Up).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace sage::net {

/// The well-known BFD single-hop control port (RFC 5881).
inline constexpr std::uint16_t kBfdControlPort = 3784;

/// BFD session states (RFC 5880 §4.1 "Sta").
enum class BfdState : std::uint8_t {
  kAdminDown = 0,
  kDown = 1,
  kInit = 2,
  kUp = 3,
};

std::string bfd_state_name(BfdState s);

/// BFD diagnostic codes (subset used by the corpus sentences).
enum class BfdDiag : std::uint8_t {
  kNone = 0,
  kControlDetectionTimeExpired = 1,
  kNeighborSignaledSessionDown = 3,
  kAdministrativelyDown = 7,
};

/// RFC 5880 §4.1 Mandatory Section of a BFD Control packet (24 bytes
/// without authentication).
struct BfdControlPacket {
  std::uint8_t version = 1;        // 3 bits
  BfdDiag diag = BfdDiag::kNone;   // 5 bits
  BfdState state = BfdState::kDown;  // 2 bits
  bool poll = false;               // P
  bool final = false;              // F
  bool control_plane_independent = false;  // C
  bool authentication_present = false;     // A
  bool demand = false;             // D
  bool multipoint = false;         // M (must be zero)
  std::uint8_t detect_mult = 3;
  std::uint8_t length = 24;        // filled by serialize()
  std::uint32_t my_discriminator = 0;
  std::uint32_t your_discriminator = 0;
  std::uint32_t desired_min_tx_interval = 1000000;   // microseconds
  std::uint32_t required_min_rx_interval = 1000000;  // microseconds
  std::uint32_t required_min_echo_rx_interval = 0;

  std::vector<std::uint8_t> serialize() const;
  static std::optional<BfdControlPacket> parse(std::span<const std::uint8_t> data);
};

/// RFC 5880 §6.8.1 state variables for one session. Names follow the
/// RFC's `bfd.*` convention so the state-management sentences in the
/// corpus resolve directly onto members (via the static context
/// dictionary in src/runtime).
struct BfdSessionState {
  BfdState session_state = BfdState::kDown;       // bfd.SessionState
  BfdState remote_session_state = BfdState::kDown;  // bfd.RemoteSessionState
  std::uint32_t local_discr = 0;                  // bfd.LocalDiscr
  std::uint32_t remote_discr = 0;                 // bfd.RemoteDiscr
  BfdDiag local_diag = BfdDiag::kNone;            // bfd.LocalDiag
  std::uint32_t desired_min_tx_interval = 1000000;   // bfd.DesiredMinTxInterval
  std::uint32_t required_min_rx_interval = 1000000;  // bfd.RequiredMinRxInterval
  std::uint32_t remote_min_rx_interval = 1;       // bfd.RemoteMinRxInterval
  bool demand_mode = false;                       // bfd.DemandMode
  bool remote_demand_mode = false;                // bfd.RemoteDemandMode
  std::uint8_t detect_mult = 3;                   // bfd.DetectMult
  std::uint8_t auth_type = 0;                     // bfd.AuthType
  // Derived/operational state used by the interop harness:
  bool periodic_transmission_enabled = true;
  bool packet_discarded = false;  // set when the spec says "MUST be discarded"

  bool operator==(const BfdSessionState&) const = default;
};

}  // namespace sage::net
