// Context dictionaries (§5.2).
//
// A logical form alone cannot be compiled: @Is("type", 3) does not say
// *which* type field. SAGE attaches two dictionaries:
//   * the DYNAMIC context, auto-generated per sentence from document
//     structure (protocol, message, field, role — Table 4), and
//   * the STATIC context, pre-defined knowledge about lower layers and
//     the OS: "source address" names the IP header's source field,
//     "one's complement sum" names a framework function, bfd.* names
//     session state variables.
// During code generation SAGE "first searches the dynamic context, then
// the static context" — resolve_field implements exactly that order.
#pragma once

#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "codegen/ir.hpp"

namespace sage::codegen {

/// Dynamic context for one sentence (Table 4).
struct DynamicContext {
  std::string protocol;  // "ICMP"
  std::string message;   // "Destination Unreachable Message"
  std::string field;     // "Checksum" (empty for prose sentences)
  std::string role;      // "sender" / "receiver" / ""

  static DynamicContext from_map(const std::map<std::string, std::string>& m);
  std::string to_string() const;
};

/// The pre-defined static context dictionary.
class StaticContext {
 public:
  /// Build the standard SAGE static context: IP-layer phrases, ICMP
  /// fields, IGMP/NTP/BFD extensions, and the framework function table.
  static StaticContext standard();

  /// Register phrase -> field mapping (phrases are lowercased). The same
  /// phrase may map to fields in several layers ("originate timestamp"
  /// exists in both ICMP and NTP); resolution prefers the layer of the
  /// sentence's protocol.
  void add_field(std::string_view phrase, FieldRef ref);

  /// Register phrase -> framework function name.
  void add_function(std::string_view phrase, std::string_view fn);

  /// Field lookup by lowercased phrase (the form add_field stores);
  /// nullopt when the phrase is unknown. The first layer in
  /// `preferred_layers` that has a ref for the phrase wins, else the
  /// first ref registered. Protocols whose schema binds several layers
  /// (ICMPv6 over ip6) resolve "source address" to their own network
  /// layer instead of whichever protocol registered the phrase first.
  std::optional<FieldRef> field(
      std::string_view lowered_phrase,
      std::span<const std::string> preferred_layers) const;

  /// Function lookup by lowercased phrase (the form add_function stores).
  std::optional<std::string> function(std::string_view lowered_phrase) const;

  std::size_t field_count() const;
  std::size_t function_count() const { return functions_.size(); }

 private:
  std::map<std::string, std::vector<FieldRef>, std::less<>> fields_;
  std::map<std::string, std::string, std::less<>> functions_;
};

/// Layer tag for a protocol name: "ICMP" -> "icmp".
std::string layer_for_protocol(std::string_view protocol);

/// Resolution context handed to predicate handlers: dynamic first, then
/// static (§5.2).
class ResolutionContext {
 public:
  ResolutionContext(DynamicContext dynamic, const StaticContext* statics);

  const DynamicContext& dynamic() const { return dynamic_; }
  const StaticContext& statics() const { return *statics_; }

  /// Resolve a surface phrase to a field reference. The dynamic context
  /// disambiguates bare words: "checksum" inside an "ICMP Fields" group
  /// resolves to icmp.checksum, not ip.checksum.
  std::optional<FieldRef> resolve_field(std::string_view phrase) const;

  /// Resolve a phrase to a framework function name.
  std::optional<std::string> resolve_function(std::string_view phrase) const;

 private:
  DynamicContext dynamic_;
  const StaticContext* statics_;
  /// The protocol's own layer first, then the rest of its schema-bound
  /// layers: the order resolve_field prefers a phrase's refs in.
  std::vector<std::string> layers_;
  std::string field_key_;  // dynamic_.field, lowercased
};

}  // namespace sage::codegen
