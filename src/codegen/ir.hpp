// Executable intermediate representation for generated protocol code.
//
// The paper's code generator emits C; ours emits C text too (for
// inspection and golden tests) but pairs it with this IR, which the
// static-framework interpreter (src/runtime) executes directly so that
// generated code can be driven end-to-end inside the simulator without a
// compiler in the loop (see DESIGN.md, "Dual codegen backend").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sage::net::schema {
struct FieldSpec;
}  // namespace sage::net::schema

namespace sage::codegen {

/// A resolved reference to a protocol field: layer + field, e.g.
/// {"ip", "src"}, {"icmp", "type"}, {"bfd", "session_state"}.
struct FieldRef {
  std::string layer;
  std::string field;
  /// Dense id in the packet-schema registry (net/schema.hpp), attached at
  /// generation time; -1 when the name is not a registered field. Runtime
  /// environments dispatch on this id instead of comparing strings.
  int field_id = -1;

  bool valid() const { return !layer.empty() && !field.empty(); }
  std::string to_string() const { return layer + "." + field; }
  /// Identity is the name, not the annotation: two refs to the same
  /// layer.field compare equal whether or not ids have been attached.
  bool operator==(const FieldRef& o) const {
    return layer == o.layer && field == o.field;
  }
};

/// The packet-schema spec `ref` names: its dense id's when annotated,
/// else the registry's (layer, field) lookup; nullptr when unknown.
const net::schema::FieldSpec* field_spec(const FieldRef& ref);

/// Which packet a field read refers to: the incoming (triggering) packet
/// or the outgoing (reply under construction).
enum class PacketSel : std::uint8_t { kIncoming, kOutgoing };

/// Expression: constant, field read, or framework-function call.
struct Expr {
  enum class Kind : std::uint8_t { kConst, kField, kCall, kName };

  Kind kind = Kind::kConst;
  long value = 0;            // kConst
  FieldRef field;            // kField
  PacketSel packet = PacketSel::kIncoming;  // kField
  std::string name;          // kCall: function; kName: symbolic value
  std::vector<Expr> args;    // kCall
  /// kName only: the symbol's value precomputed at generation time
  /// against the protocol schema (never set for "scenario", whose value
  /// is per-run). The interpreter skips resolve_symbol when set.
  bool symbol_cached = false;
  long symbol_cache = 0;

  static Expr constant(long v) {
    Expr e;
    e.kind = Kind::kConst;
    e.value = v;
    return e;
  }
  static Expr field_read(FieldRef f, PacketSel sel = PacketSel::kIncoming) {
    Expr e;
    e.kind = Kind::kField;
    e.field = std::move(f);
    e.packet = sel;
    return e;
  }
  static Expr call(std::string fn, std::vector<Expr> args = {}) {
    Expr e;
    e.kind = Kind::kCall;
    e.name = std::move(fn);
    e.args = std::move(args);
    return e;
  }
  static Expr symbol(std::string name) {
    Expr e;
    e.kind = Kind::kName;
    e.name = std::move(name);
    return e;
  }
};

/// Comparison operator for conditions.
enum class CmpOp : std::uint8_t { kEq, kNe, kGt, kLt };

/// Condition: a comparison, or a boolean combination of conditions.
struct Cond {
  enum class Kind : std::uint8_t { kCompare, kAnd, kOr, kNot, kTrue };

  Kind kind = Kind::kTrue;
  CmpOp op = CmpOp::kEq;         // kCompare
  Expr lhs, rhs;                 // kCompare
  std::vector<Cond> children;    // kAnd/kOr/kNot

  static Cond always() { return Cond{}; }
  static Cond compare(Expr lhs, CmpOp op, Expr rhs) {
    Cond c;
    c.kind = Kind::kCompare;
    c.lhs = std::move(lhs);
    c.op = op;
    c.rhs = std::move(rhs);
    return c;
  }
  static Cond conj(std::vector<Cond> children) {
    Cond c;
    c.kind = Kind::kAnd;
    c.children = std::move(children);
    return c;
  }
  static Cond disj(std::vector<Cond> children) {
    Cond c;
    c.kind = Kind::kOr;
    c.children = std::move(children);
    return c;
  }
  static Cond negate(Cond inner) {
    Cond c;
    c.kind = Kind::kNot;
    c.children.push_back(std::move(inner));
    return c;
  }
};

/// Statement tree.
struct Stmt {
  enum class Kind : std::uint8_t {
    kAssign,   // target = value
    kCall,     // framework function for effect
    kIf,       // if (cond) body
    kSeq,      // body statements in order
    kComment,  // @AdvComment and non-actionable text, kept for provenance
  };

  Kind kind = Kind::kSeq;
  FieldRef target;           // kAssign
  Expr value;                // kAssign
  std::string fn;            // kCall
  std::vector<Expr> args;    // kCall
  Cond cond;                 // kIf
  std::vector<Stmt> body;    // kIf/kSeq
  std::string text;          // kComment; also provenance sentence for any node

  static Stmt assign(FieldRef target, Expr value) {
    Stmt s;
    s.kind = Kind::kAssign;
    s.target = std::move(target);
    s.value = std::move(value);
    return s;
  }
  static Stmt call(std::string fn, std::vector<Expr> args = {}) {
    Stmt s;
    s.kind = Kind::kCall;
    s.fn = std::move(fn);
    s.args = std::move(args);
    return s;
  }
  static Stmt if_then(Cond cond, std::vector<Stmt> body) {
    Stmt s;
    s.kind = Kind::kIf;
    s.cond = std::move(cond);
    s.body = std::move(body);
    return s;
  }
  static Stmt seq(std::vector<Stmt> body) {
    Stmt s;
    s.kind = Kind::kSeq;
    s.body = std::move(body);
    return s;
  }
  static Stmt comment(std::string text) {
    Stmt s;
    s.kind = Kind::kComment;
    s.text = std::move(text);
    return s;
  }

  /// Number of executable statements (comments and empty seqs excluded).
  std::size_t executable_count() const;
};

/// A complete generated function: one packet-handling routine (§5.2:
/// "SAGE then concatenates code for all the logical forms in a message
/// into a packet handling function", one per sender/receiver role).
struct GeneratedFunction {
  std::string name;        // e.g. "icmp_echo_receiver"
  std::string protocol;    // "ICMP"
  std::string message;     // "Echo or Echo Reply Message"
  std::string role;        // "sender" | "receiver"
  Stmt body;               // kSeq root
  std::string c_source;    // emitted C text
};

}  // namespace sage::codegen
