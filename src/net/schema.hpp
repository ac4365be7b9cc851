// Declarative packet-schema registry — the single machine-readable
// description of every protocol the pipeline generates code for.
//
// The SAGE paper's static framework knows, per protocol, which header
// fields exist, where they live on the wire, which of them are session
// state rather than wire bits, and which symbolic names ("Up", "Down")
// the RFC text compares against. Before this registry existed that
// knowledge was duplicated four ways: the codegen static context, the
// per-protocol exec env classes, the net/ serializers, and the simulator's
// inspector. The registry makes it one table:
//
//   * codegen resolves FieldRefs against it at generation time and
//     attaches dense field ids to the IR (unknown fields become
//     generation-time diagnostics),
//   * runtime::SchemaExecEnv executes generated code table-driven,
//     dispatching reads/writes on the field id instead of string
//     comparisons,
//   * the simulator and tools decode captured packets through the same
//     offsets/widths (sage_debug --dump-schema prints the table).
//
// Field kinds distinguish how a field is stored, not what it means:
// kScalar lives at bit_offset/bit_width inside the fixed header image;
// kPayloadScalar lives at a byte offset inside the variable-length
// payload (the ICMP timestamp-message rows); kBytes IS the payload;
// kState is a per-session variable with no wire encoding (bfd.*, TCP
// probe state); kToken reads as constant 0 ("the ICMP message");
// kVirtual is declared for code generation only and has no runtime
// storage (e.g. "internet header" as an IP-layer phrase).
//
// Orthogonal to the kind, every field carries a *location* (FieldLoc):
// where its bytes live. kFixed is the classic bit_offset/bit_width
// placement and pays nothing for the v2 machinery. kTlvOption and
// kLengthPrefixed place the field inside the layer's TLV options region
// (DHCP options), addressed by option code instead of a fixed offset;
// kPseudoDerived marks a fixed-offset checksum whose value covers an
// IP pseudo-header (udp.checksum, icmp6.checksum) so serializers know
// which pseudo-header sum to chain in. OptionsView resolves a layer's
// region bounds once per image and iterates the TLVs as spans without
// copying (lifetime contract: docs/MEMORY.md).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sage::net::schema {

enum class FieldKind : std::uint8_t {
  kScalar,         // bit-addressed scalar inside the fixed header image
  kPayloadScalar,  // scalar at a byte offset inside the payload
  kBytes,          // the variable-length payload itself
  kState,          // session/state variable, no wire encoding
  kToken,          // symbolic stand-in, reads as 0
  kVirtual,        // codegen-only; no runtime storage
};

std::string field_kind_name(FieldKind kind);

/// Where a field's bytes live (orthogonal to FieldKind, which says how
/// they are typed). Everything before schema v2 is kFixed.
enum class FieldLoc : std::uint8_t {
  kFixed,           // bit_offset/bit_width inside the fixed header image
  kLengthPrefixed,  // a whole TLV option value (variable-length region)
  kTlvOption,       // scalar at bit_offset/bit_width INSIDE an option value
  kPseudoDerived,   // fixed-offset checksum computed over an IP pseudo-header
};

/// Outcome of a wire read. kShortRead replaces the old silent behaviors
/// (zero-fill in the exec envs, silently missing decode lines) for
/// truncated packets: a field whose bit range extends past the image is
/// reported as short, never fabricated. kMissingOption is the TLV
/// analogue: the options region is well-formed but does not carry the
/// field's option code.
enum class ReadStatus : std::uint8_t {
  kOk,
  kUnknownField,   // no such layer/field, or not a wire scalar
  kShortRead,      // image ends before the field's last bit
  kMissingOption,  // TLV field: option code absent from the region
};

std::string read_status_name(ReadStatus status);

/// read_wire result: an explicit status plus the value when kOk.
struct WireRead {
  ReadStatus status = ReadStatus::kUnknownField;
  long value = 0;

  bool ok() const { return status == ReadStatus::kOk; }
};

struct FieldSpec {
  std::string name;
  FieldKind kind = FieldKind::kScalar;
  FieldLoc loc = FieldLoc::kFixed;
  std::uint32_t bit_offset = 0;      // kFixed: from bit 0 = MSB of byte 0;
                                     // kTlvOption: from bit 0 of the value
  std::uint32_t bit_width = 0;       // kScalar
  std::uint32_t payload_offset = 0;  // kPayloadScalar: byte offset
  /// kTlvOption / kLengthPrefixed: the option code addressing the field.
  std::uint8_t tlv_type = 0;
  /// kPseudoDerived: IP protocol / next-header number summed into the
  /// pseudo-header (17 for UDP, 58 for ICMPv6).
  std::uint8_t pseudo_proto = 0;
  bool is_signed = false;            // sign-extend on read (ntp.poll)
  bool readable = true;
  bool writable = true;
  /// Writes are accepted and discarded (icmp.unused, udp.checksum:
  /// "filled at serialization").
  bool write_is_noop = false;
  /// Dense process-wide id, assigned by the registry at construction.
  int id = -1;
};

/// One header layer: fixed-size image plus (optionally) a payload
/// and/or a TLV options region that starts at options_offset.
struct LayerSpec {
  std::string name;               // "icmp", "udp", "bfd", ...
  std::size_t header_bytes = 0;   // fixed header image size (0 for state-only)
  bool has_payload = false;       // a kBytes field / payload buffer exists
  /// TLV options grammar (DHCP): when true, bytes from options_offset to
  /// the end of the image are a run of {code, length, value[length]}
  /// options, with option_pad as a 1-byte no-length padding code and
  /// option_end terminating the run.
  bool has_options = false;
  std::size_t options_offset = 0;
  std::uint8_t option_pad = 0;
  std::uint8_t option_end = 255;
  std::vector<FieldSpec> fields;
  /// Byte extent of the payload-scalar block (the ICMP timestamps: three
  /// 32-bit stamps, 12 bytes); 0 for a layer without payload scalars.
  /// The registry derives it from `fields`, and writers size the block
  /// as a unit.
  std::size_t payload_scalar_bytes = 0;
  /// Substrings that mark a dynamically-named field as payload-backed
  /// bytes ("internet_header...", "...datagram..."): such names resolve
  /// to this layer's kBytes field.
  std::vector<std::string> payload_patterns;
};

/// A well-known symbolic name with an RFC-mandated encoding (BFD session
/// states). Names compare case-insensitively.
struct SymbolSpec {
  std::string name;  // lowercased
  long value = 0;
};

/// A default header value applied when an outgoing image is created
/// ("serialization order" defaults: NTP version 1 / mode 3 / poll 6 ...).
struct DefaultSpec {
  std::string layer;
  std::string field;
  long value = 0;
};

struct ProtocolSchema {
  std::string protocol;             // "ICMP" (pipeline protocol tag)
  std::vector<std::string> layers;  // bound layers, serialization order
  std::vector<DefaultSpec> defaults;
  std::vector<SymbolSpec> symbols;
  /// Does resolve_symbol("scenario") name the current event scenario?
  /// (ICMP/IGMP @Case dispatch; NTP and BFD never used the alias.)
  bool scenario_symbol = false;
};

/// The value a symbolic name stands for: `schema`'s symbol-table entry
/// (names compare case-insensitively), else util::symbol_value's hash.
/// The per-run "scenario" alias is the caller's to handle.
long symbol_value(const ProtocolSchema* schema, std::string_view name);

/// One TLV option as a view into the underlying image. The value span
/// aliases the image the view was built over — same lifetime contract as
/// every other decode span (docs/MEMORY.md): valid while the image is.
struct TlvOption {
  std::uint8_t type = 0;
  std::span<const std::uint8_t> value;
};

/// Well-formedness of a TLV options region after a full scan.
enum class TlvStatus : std::uint8_t {
  kOk,         // clean run (possibly empty), terminated or exhausted
  kTruncated,  // region ends mid-TLV: a code byte without its length byte
  kLengthLie,  // a length byte claims more bytes than the region holds
};

std::string tlv_status_name(TlvStatus status);

/// Zero-copy iteration over a TLV options region. Construction walks the
/// region once with the iterator's own step to classify it (status());
/// iteration yields the options up to the first malformation or the end
/// code. Works directly on arena-backed capture spans — nothing is
/// copied.
class OptionsView {
 public:
  OptionsView(std::span<const std::uint8_t> region, std::uint8_t pad_code,
              std::uint8_t end_code);
  /// Convenience: the options region of `image` per the layer's grammar.
  /// A layer without options (or an image shorter than options_offset)
  /// yields an empty, kOk view.
  OptionsView(const LayerSpec& layer, std::span<const std::uint8_t> image);

  TlvStatus status() const { return status_; }
  bool ok() const { return status_ == TlvStatus::kOk; }

  class iterator {
   public:
    iterator() = default;
    iterator(const OptionsView* view, std::size_t pos) : view_(view) {
      advance_to(pos);
    }
    const TlvOption& operator*() const { return current_; }
    const TlvOption* operator->() const { return &current_; }
    iterator& operator++() {
      advance_to(next_);
      return *this;
    }
    bool operator==(const iterator& o) const { return pos_ == o.pos_; }
    bool operator!=(const iterator& o) const { return pos_ != o.pos_; }

   private:
    friend class OptionsView;
    void advance_to(std::size_t pos);

    const OptionsView* view_ = nullptr;
    std::size_t pos_ = std::size_t(-1);  // -1 = end
    std::size_t next_ = std::size_t(-1);
    TlvOption current_;
    TlvStatus stop_ = TlvStatus::kOk;  // why the walk ended, once at end
  };

  iterator begin() const { return iterator(this, 0); }
  iterator end() const { return iterator(); }

  /// First option with the given code; nullopt when absent or when the
  /// scan hits a malformation first.
  std::optional<TlvOption> find(std::uint8_t type) const;

  std::size_t count() const;  // well-formed options before any malformation

  // ---- encode helpers (the other half of the round-trip codec) ----------
  static void append(std::vector<std::uint8_t>& out, std::uint8_t type,
                     std::span<const std::uint8_t> value);
  /// Append a big-endian scalar option of `length` bytes (1, 2, or 4).
  static void append_scalar(std::vector<std::uint8_t>& out, std::uint8_t type,
                            long value, std::size_t length);
  static void append_end(std::vector<std::uint8_t>& out,
                         std::uint8_t end_code = 255);

 private:
  std::span<const std::uint8_t> region_;
  std::uint8_t pad_ = 0;
  std::uint8_t end_ = 255;
  TlvStatus status_ = TlvStatus::kOk;
};

class SchemaRegistry {
 public:
  /// The process-wide registry of all known protocols. Immutable after
  /// construction; safe to share across threads.
  static const SchemaRegistry& instance();

  const std::vector<LayerSpec>& layers() const { return layers_; }
  const std::vector<ProtocolSchema>& protocols() const { return protocols_; }

  const LayerSpec* layer(std::string_view name) const;
  const ProtocolSchema* protocol(std::string_view name) const;

  /// Field lookup by (layer, field). Falls back to the layer's
  /// payload_patterns: a dynamic name like
  /// "internet_header_64_bits_of_original_data_datagram" resolves to the
  /// layer's canonical kBytes field. nullptr when unknown.
  const FieldSpec* field(std::string_view layer, std::string_view field) const;

  /// Dense-id lookups. Ids are contiguous in [0, field_count()).
  const FieldSpec* field_by_id(int id) const;
  const LayerSpec* layer_by_id(int id) const;
  std::size_t field_count() const { return by_id_.size(); }

  /// Generic bit-level scalar access over a serialized header image.
  /// Reads sign-extend when the spec says so; writes mask to bit_width.
  /// nullopt / false when the image is too short or the field is not a
  /// fixed-offset kScalar — TLV-located fields go through read_wire,
  /// which resolves the options region.
  static std::optional<long> read_scalar(const FieldSpec& spec,
                                         std::span<const std::uint8_t> image);
  static bool write_scalar(const FieldSpec& spec, std::span<std::uint8_t> image,
                           long value);

  /// Read a named wire field straight out of a serialized header image
  /// (schema-driven packet decode for the inspector and tools). A
  /// truncated image yields ReadStatus::kShortRead, not a zero; a TLV
  /// field whose option code is absent yields kMissingOption.
  WireRead read_wire(std::string_view layer, std::string_view field,
                     std::span<const std::uint8_t> image) const;

  /// Human-readable table of every layer/field/protocol
  /// (sage_debug --dump-schema).
  std::string dump() const;

  /// Render "layer.field = value" lines for one layer of a captured
  /// packet (wire scalars only). Fields the image is too short to hold
  /// render as "layer.field = <short read>" so truncation is visible in
  /// decodes instead of silently dropping lines. For layers with a TLV
  /// options region the declared option fields follow the fixed fields
  /// (missing options are omitted, malformed regions render a trailing
  /// "<truncated option>" / "<option length lie>" marker line).
  std::vector<std::string> decode_layer(std::string_view layer,
                                        std::span<const std::uint8_t> image) const;

 private:
  SchemaRegistry();
  void add_layer(LayerSpec layer);

  std::vector<LayerSpec> layers_;
  std::vector<ProtocolSchema> protocols_;
  struct IdEntry {
    const FieldSpec* spec;
    const LayerSpec* layer;
  };
  std::vector<IdEntry> by_id_;
};

}  // namespace sage::net::schema
