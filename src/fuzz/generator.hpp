// Structure-aware packet generation from the packet-schema registry.
//
// Instead of mutating opaque byte blobs, the generator builds valid
// packets for each protocol's Appendix-A scenarios and then mutates them
// *through the schema*: boundary values land exactly on a field's bit
// range, field swaps exchange two declared fields, checksum/version
// corruption targets the declared checksum/version fields. This is the
// grammar-based-fuzzing idea of Jero et al. applied to the registry that
// PR 3 already derives codegen and the simulator from — the fuzzer
// cannot drift from the formats the code under test speaks.
//
// Everything is driven by fuzz::Rng only: the same seed yields the same
// byte sequence on any thread count or platform.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fuzz/rng.hpp"
#include "net/schema.hpp"

namespace sage::fuzz {

/// Mutation taxonomy (docs/FUZZING.md describes each class).
enum class MutationKind : std::uint8_t {
  kValid,            // well-formed scenario packet, no mutation
  kBoundary,         // one schema field set to a boundary value
  kBitFlip,          // 1..8 random bit flips anywhere in the packet
  kFieldSwap,        // two schema fields of one layer exchange values
  kTruncate,         // packet cut short (possibly mid-header)
  kOversizePayload,  // random bytes appended past the declared end
  kBadChecksum,      // declared checksum field xor-corrupted
  kBadVersion,       // declared version field randomized
  // TLV-grammar mutations (layers with an options region, i.e. DHCP).
  // Appended after the fixed-header kinds so the legacy protocols' pinned
  // mutation streams (1 + below(7)) are unchanged.
  kTlvInsert,        // a fresh random option spliced at an option boundary
  kTlvDelete,        // one existing option removed
  kTlvDuplicate,     // one existing option repeated back-to-back
  kTlvLengthLie,     // an option's length byte claims bytes past the end
  kHandWritten,      // corpus regression case (not generator-produced)
};

const char* mutation_kind_name(MutationKind kind);

/// One generated input: raw bytes plus the injection context the
/// differential harness must reproduce on both networks.
struct FuzzPacket {
  std::string protocol;  // lowercase: icmp icmp6 igmp ntp bfd udp dhcp
  /// IP/IPv6 packet; bfd: raw control frame; dhcp: raw BOOTP message.
  std::vector<std::uint8_t> bytes;
  MutationKind mutation = MutationKind::kValid;
  std::string scenario = "base";
  bool via_router = false;          // send_from_host_via_router (redirect)
  bool require_tos_zero = false;    // Appendix A parameter-problem router
  std::optional<std::size_t> full_outbound;  // Appendix A source-quench
};

class PacketGenerator {
 public:
  /// `protocol` is a lowercase CLI name; known_protocols() lists them.
  explicit PacketGenerator(std::string protocol);

  const std::string& protocol() const { return protocol_; }

  /// Deterministic function of the rng state: scenario, base packet,
  /// mutation.
  FuzzPacket generate(Rng& rng) const;

  static const std::vector<std::string>& known_protocols();

 private:
  FuzzPacket base_packet(Rng& rng) const;
  void mutate(FuzzPacket& pkt, Rng& rng) const;

  std::string protocol_;
};

// ---- layer layout (mutations, oracles, the minimizer) ---------------------

/// Where one schema layer's header image starts inside a packet.
struct LayerAt {
  const net::schema::LayerSpec* spec = nullptr;
  std::size_t offset = 0;
};

/// The schema layers of a `protocol` packet, resolved from its bytes:
/// everything rides IPv4 (ip at 0, the protocol layer after the IP
/// header) except icmp6 (ip6, then icmp6 when the next header says so),
/// and bfd and dhcp, whose frames are the layer itself.
std::vector<LayerAt> layer_layout(std::string_view protocol,
                                  std::span<const std::uint8_t> bytes);

/// The header image of layer `at` inside `bytes`, cut short where the
/// bytes end; empty when they end before the layer starts.
template <typename Byte>
std::span<Byte> layer_image(std::span<Byte> bytes, const LayerAt& at) {
  if (at.spec == nullptr || at.offset >= bytes.size()) return {};
  return bytes.subspan(
      at.offset, std::min(bytes.size() - at.offset, at.spec->header_bytes));
}

// ---- round-trip property helpers (tests/test_fuzz.cpp) --------------------

/// A header image with every kScalar field of `layer` set to a seeded
/// random value (written in spec order; bits no field covers stay zero).
std::vector<std::uint8_t> random_layer_image(const net::schema::LayerSpec& layer,
                                             Rng& rng);

/// Read every kScalar field of `layer` from `image` and write the values
/// into a fresh zero image in spec order. For an image produced by
/// random_layer_image (or any real header) the result is byte-identical.
std::vector<std::uint8_t> reserialize_layer(const net::schema::LayerSpec& layer,
                                            std::span<const std::uint8_t> image);

/// Parse "layer.field = value" decode lines (PacketInspector::decode /
/// SchemaRegistry::decode_layer output) back into per-layer header
/// images, writing fields in line order. Lines that are not parseable
/// numeric field lines (e.g. "<short read>") are skipped and reported via
/// the bool.
struct RebuiltImages {
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> layers;
  bool complete = true;  // false if any line could not be re-encoded
};
RebuiltImages images_from_decode(const std::vector<std::string>& lines);

}  // namespace sage::fuzz
