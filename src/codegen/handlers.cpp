#include "codegen/handlers.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace sage::codegen {

namespace {

using lf::LfNode;
namespace pred = lf::pred;

/// The surface phrase of a nominal node ("source address", or the joined
/// phrase of an @Of chain like "address of the source" -> handled by the
/// of-expr handler instead).
std::optional<std::string> leaf_phrase(const LfNode& n) {
  if (n.is_string()) return n.label();
  return std::nullopt;
}

/// BFD/NTP symbolic values ("Up", "Down", "Init", "AdminDown", "symmetric
/// mode", ...) that are values rather than fields.
bool is_symbolic_value(const std::string& phrase) {
  static const std::vector<std::string> kValues = {
      "up",          "down",   "init",    "admindown", "zero",
      "symmetric mode", "client mode", "active", "passive"};
  const std::string lower = util::to_lower(phrase);
  return std::find(kValues.begin(), kValues.end(), lower) != kValues.end();
}

/// Appends the lowercased string leaves under `n`, in order, separated
/// by spaces.
void append_strings(const LfNode& n, std::string& flat) {
  if (n.is_string()) {
    if (!flat.empty()) flat += ' ';
    flat += util::to_lower(n.label());
  }
  for (const auto& a : n.args()) append_strings(a, flat);
}

/// The whole subtree rendered as one phrase, for idiom detection.
std::string flatten_strings(const LfNode& n) {
  std::string flat;
  append_strings(n, flat);
  return flat;
}

/// The excerpt idiom: "the internet header plus the first 64 bits of the
/// original datagram's data" (and RFC 4443's "invoking packet").
bool is_excerpt_phrase(const std::string& flat) {
  return (flat.find("internet header") != std::string::npos ||
          flat.find("ipv6 header") != std::string::npos) &&
         (flat.find("64 bits") != std::string::npos ||
          flat.find("original") != std::string::npos ||
          flat.find("invoking packet") != std::string::npos);
}

// ---------------------------------------------------------------------------
// Statement handlers
// ---------------------------------------------------------------------------

/// @Is(field, value) -> target = value. Table 4's example:
/// @Is('type', '3') + {field: Type, message: Destination Unreachable}
/// -> hdr->type = 3;
std::optional<Stmt> is_assign(LfConverter& conv, const LfNode& n) {
  if (n.args().size() != 2) return std::nullopt;

  // The address idiom of RFC 792's echo section (Table 7's sentence):
  // "The address of the source in an echo message will be the
  // destination of the echo reply message" — the reply's destination is
  // the request's source.
  {
    const std::string lhs = flatten_strings(n.args()[0]);
    const std::string rhs = flatten_strings(n.args()[1]);
    const std::string both = lhs + " | " + rhs;
    const bool mentions_source = both.find("source") != std::string::npos;
    const bool mentions_destination =
        both.find("destination") != std::string::npos;
    const bool mentions_address = both.find("address") != std::string::npos;
    const bool mentions_reply = both.find("reply") != std::string::npos;
    if (mentions_source && mentions_destination && mentions_address &&
        mentions_reply) {
      // Resolve through the context so the protocol's own network layer
      // wins (ip.dst for ICMP, ip6.dst for ICMPv6).
      const auto dst = conv.context().resolve_field("destination address");
      const auto src = conv.context().resolve_field("source address");
      if (dst && src) {
        return Stmt::assign(*dst,
                            Expr::field_read(*src, PacketSel::kIncoming));
      }
    }
  }

  const auto phrase = leaf_phrase(n.args()[0]);
  if (!phrase) return std::nullopt;
  const auto target = conv.context().resolve_field(*phrase);
  if (!target) {
    conv.report("cannot resolve field '" + *phrase + "'");
    return std::nullopt;
  }
  const auto value = conv.to_expr(n.args()[1]);
  if (!value) return std::nullopt;
  // "The checksum is the 16-bit one's complement of the one's complement
  // sum of the ICMP message ..." compiles to the framework's deferred
  // checksum routine: it must run over the finished message, after the
  // variable-length data is in place.
  if (target->field == "checksum" && value->kind == Expr::Kind::kCall &&
      util::starts_with(value->name, "ones_complement")) {
    return Stmt::call("compute_checksum");
  }
  return Stmt::assign(*target, *value);
}

/// @Is(@And(f1, f2), value) -> both fields assigned ("the identifier and
/// the sequence number are the values from the echo message").
std::optional<Stmt> is_assign_compound(LfConverter& conv, const LfNode& n) {
  if (n.args().size() != 2 || !n.args()[0].is_predicate(pred::kAnd)) {
    return std::nullopt;
  }
  std::vector<Stmt> assigns;
  for (const auto& part : n.args()[0].args()) {
    const auto phrase = leaf_phrase(part);
    if (!phrase) return std::nullopt;
    const auto target = conv.context().resolve_field(*phrase);
    if (!target) {
      conv.report("cannot resolve field '" + *phrase + "'");
      return std::nullopt;
    }
    // Distribute the right-hand side over the conjoined targets; a
    // value described as "from the <message>" copies the same-named
    // field of the incoming packet.
    auto value = conv.to_expr(n.args()[1]);
    if (!value) return std::nullopt;
    if (value->kind == Expr::Kind::kCall && value->name == "copy_field") {
      value->args = {Expr::field_read(*target, PacketSel::kIncoming)};
    }
    assigns.push_back(Stmt::assign(*target, std::move(*value)));
  }
  return Stmt::seq(std::move(assigns));
}

/// A bare numeric logical form under a field description assigns the
/// value to the described field (the "Type / 3" idiom of RFC 792).
std::optional<Stmt> num_field_default(LfConverter& conv, const LfNode& n) {
  if (!n.is_number()) return std::nullopt;
  const auto target = conv.context().resolve_field("");
  if (!target) return std::nullopt;
  return Stmt::assign(*target, Expr::constant(n.number()));
}

/// @If(cond, body) -> if statement.
std::optional<Stmt> if_stmt(LfConverter& conv, const LfNode& n) {
  if (n.args().size() != 2) return std::nullopt;
  const auto cond = conv.to_cond(n.args()[0]);
  if (!cond) return std::nullopt;
  const auto body = conv.to_stmt(n.args()[1]);
  if (!body) return std::nullopt;
  return Stmt::if_then(*cond, {*body});
}

/// @And(s1, s2) at statement level -> sequence.
std::optional<Stmt> and_seq(LfConverter& conv, const LfNode& n) {
  std::vector<Stmt> body;
  for (const auto& part : n.args()) {
    const auto s = conv.to_stmt(part);
    if (!s) return std::nullopt;
    body.push_back(*s);
  }
  return Stmt::seq(std::move(body));
}

/// @Action("copy", target[, source]) -> read from the incoming packet,
/// write the outgoing one.
std::optional<Stmt> action_copy(LfConverter& conv, const LfNode& n) {
  if (n.args().empty() || !n.args()[0].is_string() ||
      n.args()[0].label() != "copy") {
    return std::nullopt;
  }
  if (n.args().size() < 2) return std::nullopt;
  const auto phrase = leaf_phrase(n.args()[1]);
  if (!phrase) return std::nullopt;
  const auto target = conv.context().resolve_field(*phrase);
  if (!target) {
    conv.report("cannot resolve field '" + *phrase + "'");
    return std::nullopt;
  }
  return Stmt::assign(*target,
                      Expr::field_read(*target, PacketSel::kIncoming));
}

/// @Action("reverse", addresses) -> framework reverse_addresses().
std::optional<Stmt> action_reverse(LfConverter&, const LfNode& n) {
  if (n.args().empty() || !n.args()[0].is_string() ||
      n.args()[0].label() != "reverse") {
    return std::nullopt;
  }
  return Stmt::call("reverse_addresses");
}

/// @Action("recompute", checksum) -> framework recompute_checksum().
std::optional<Stmt> action_recompute(LfConverter&, const LfNode& n) {
  if (n.args().empty() || !n.args()[0].is_string() ||
      n.args()[0].label() != "recompute") {
    return std::nullopt;
  }
  return Stmt::call("recompute_checksum");
}

/// Generic @Action(fn, args...) -> framework call.
std::optional<Stmt> action_call(LfConverter& conv, const LfNode& n) {
  if (n.args().empty() || !n.args()[0].is_string()) return std::nullopt;
  const auto fn = conv.context().resolve_function(n.args()[0].label());
  if (!fn) {
    conv.report("unknown framework function '" + n.args()[0].label() + "'");
    return std::nullopt;
  }
  std::vector<Expr> args;
  for (std::size_t i = 1; i < n.args().size(); ++i) {
    const auto e = conv.to_expr(n.args()[i]);
    if (!e) return std::nullopt;
    args.push_back(*e);
  }
  return Stmt::call(*fn, std::move(args));
}

/// @Compute(x) -> checksum computation over the message.
std::optional<Stmt> compute_stmt(LfConverter&, const LfNode&) {
  return Stmt::call("compute_checksum");
}

/// @May(body): permitted behavior. It binds the *sender* — the §6.5
/// under-specification: "a sender may generate a non-zero identifier,
/// and the receiver should set the identifier to be zero in the reply"
/// was the buggy reading; the corrected spec scopes @May to the sender.
std::optional<Stmt> may_stmt(LfConverter& conv, const LfNode& n) {
  if (n.args().size() != 1) return std::nullopt;
  if (conv.context().dynamic().role == "receiver") {
    return Stmt::comment("permitted for sender only: not generated here");
  }
  return conv.to_stmt(n.args()[0]);
}

/// @Must(body): mandatory behavior; generated unconditionally.
std::optional<Stmt> must_stmt(LfConverter& conv, const LfNode& n) {
  if (n.args().size() != 1) return std::nullopt;
  return conv.to_stmt(n.args()[0]);
}

/// @AdvBefore(advice, main): the advice statement must execute before
/// the main computation (Figure 2's "For computing the checksum, the
/// checksum should be zero"). The converter emits advice first; the
/// generator additionally hoists it before the checksum call.
std::optional<Stmt> advbefore_stmt(LfConverter& conv, const LfNode& n) {
  if (n.args().size() != 2) return std::nullopt;
  return conv.to_stmt(n.args()[1]);
}

/// @AdvComment(...): non-actionable text — kept as a comment.
std::optional<Stmt> advcomment_stmt(LfConverter&, const LfNode& n) {
  std::string text = "non-actionable";
  if (!n.args().empty() && n.args()[0].is_string()) text = n.args()[0].label();
  return Stmt::comment(std::move(text));
}

/// @Case(value, name): the "0 = net unreachable" idiom (§3). The field
/// being described takes the value when the named scenario applies; the
/// static framework supplies the current scenario at run time (the event
/// that triggered the message — net unreachable vs port unreachable,
/// echo vs echo reply).
std::optional<Stmt> case_stmt(LfConverter& conv, const LfNode& n) {
  if (n.args().size() != 2 || !n.args()[0].is_number()) return std::nullopt;
  const std::string name =
      n.args()[1].is_string() ? n.args()[1].label() : n.args()[1].to_string();
  const auto target = conv.context().resolve_field("");
  if (!target) {
    return Stmt::comment(
        "case " + std::to_string(n.args()[0].number()) + " = " + name);
  }
  Cond cond = Cond::compare(Expr::symbol("scenario"), CmpOp::kEq,
                            Expr::symbol(util::to_lower(name)));
  Stmt assign = Stmt::assign(*target, Expr::constant(n.args()[0].number()));
  return Stmt::if_then(std::move(cond), {std::move(assign)});
}

/// @When(scenario, body): "In a host membership query message, the group
/// address field is zero" — the body applies when the named message
/// variant is being formed. The static framework supplies the current
/// scenario, exactly as for @Case.
std::optional<Stmt> when_stmt(LfConverter& conv, const LfNode& n) {
  if (n.args().size() != 2 || !n.args()[0].is_string()) return std::nullopt;
  const auto body = conv.to_stmt(n.args()[1]);
  if (!body) return std::nullopt;
  Cond cond = Cond::compare(Expr::symbol("scenario"), CmpOp::kEq,
                            Expr::symbol(util::to_lower(n.args()[0].label())));
  return Stmt::if_then(std::move(cond), {*body});
}

/// @Send(message[, destination]) -> framework send.
std::optional<Stmt> send_stmt(LfConverter& conv, const LfNode& n) {
  std::vector<Expr> args;
  for (const auto& a : n.args()) {
    if (a.is_string()) {
      args.push_back(Expr::symbol(a.label()));
    } else {
      const auto e = conv.to_expr(a);
      if (!e) return std::nullopt;
      args.push_back(*e);
    }
  }
  return Stmt::call("send_message", std::move(args));
}

/// @Discard(packet) -> framework discard.
std::optional<Stmt> discard_stmt(LfConverter&, const LfNode&) {
  return Stmt::call("discard_packet");
}

// ---------------------------------------------------------------------------
// Expression handlers
// ---------------------------------------------------------------------------

std::optional<Expr> num_expr(LfConverter&, const LfNode& n) {
  if (!n.is_number()) return std::nullopt;
  return Expr::constant(n.number());
}

/// String leaf as a value: a field read (incoming packet), a symbolic
/// state value (BFD "Up"), or a framework value function.
std::optional<Expr> str_value_expr(LfConverter& conv, const LfNode& n) {
  if (!n.is_string()) return std::nullopt;
  if (is_symbolic_value(n.label())) {
    return Expr::symbol(util::to_lower(n.label()));
  }
  if (const auto field = conv.context().resolve_field(n.label())) {
    return Expr::field_read(*field, PacketSel::kIncoming);
  }
  if (const auto fn = conv.context().resolve_function(n.label())) {
    return Expr::call(*fn);
  }
  // "the values from the echo message" style references: a copy marker
  // that the assignment handler retargets to the assigned field.
  const std::string lower = util::to_lower(n.label());
  if (lower.find("message") != std::string::npos ||
      lower.find("request") != std::string::npos) {
    return Expr::call("copy_field");
  }
  conv.report("cannot resolve value '" + n.label() + "'");
  return std::nullopt;
}

/// @Of(a, b) as a value. Three idioms, tried in order:
///   * function-of: "one's complement sum of the ICMP message"
///     -> ones_complement_sum(icmp_message)
///   * excerpt idiom: "internet header ... 64 bits ... original
///     datagram" -> original_datagram_excerpt()
///   * field path: "address of the gateway" -> gateway field read.
std::optional<Expr> of_expr(LfConverter& conv, const LfNode& n) {
  if (n.args().size() != 2) return std::nullopt;

  const std::string flat = flatten_strings(n);
  if (is_excerpt_phrase(flat)) {
    return Expr::call("original_datagram_excerpt");
  }
  // "The source network and address from the original datagram's data" /
  // "The source address from the invoking packet": error messages are
  // addressed back to the original sender, in whichever network layer
  // the protocol runs over.
  if (flat.find("source") != std::string::npos &&
      (flat.find("original datagram") != std::string::npos ||
       flat.find("invoking packet") != std::string::npos)) {
    if (const auto src = conv.context().resolve_field("source address")) {
      return Expr::field_read(*src, PacketSel::kIncoming);
    }
  }

  const auto head = leaf_phrase(n.args()[0]);
  if (head) {
    if (const auto fn = conv.context().resolve_function(*head)) {
      // Framework value function; the possessor becomes its argument
      // when it itself resolves ("one's complement sum of the ICMP
      // message"), and is absorbed otherwise ("the octet of the error").
      if (const auto arg = conv.to_expr(n.args()[1])) {
        return Expr::call(*fn, {*arg});
      }
      return Expr::call(*fn);
    }
    // "address of the source" -> the source address field.
    if (n.args()[1].is_string()) {
      const std::string path = n.args()[1].label() + " " + *head;
      if (const auto field = conv.context().resolve_field(path)) {
        return Expr::field_read(*field, PacketSel::kIncoming);
      }
    }
    if (const auto field = conv.context().resolve_field(*head)) {
      return Expr::field_read(*field, PacketSel::kIncoming);
    }
  }
  conv.report("cannot resolve @Of value '" + n.to_string() + "'");
  return std::nullopt;
}

/// @And as a value — the excerpt idiom: "the internet header plus the
/// first 64 bits of the original datagram's data" parses as a nominal
/// conjunction; the static framework provides the excerpt as one unit.
std::optional<Expr> and_excerpt_expr(LfConverter&, const LfNode& n) {
  if (!is_excerpt_phrase(flatten_strings(n))) return std::nullopt;
  return Expr::call("original_datagram_excerpt");
}

/// @Action / @Compute as a value: "the 16-bit one's complement of X".
std::optional<Expr> action_expr(LfConverter& conv, const LfNode& n) {
  if (n.args().empty() || !n.args()[0].is_string()) return std::nullopt;
  const auto fn = conv.context().resolve_function(n.args()[0].label());
  if (!fn) return std::nullopt;
  std::vector<Expr> args;
  for (std::size_t i = 1; i < n.args().size(); ++i) {
    const auto e = conv.to_expr(n.args()[i]);
    if (!e) return std::nullopt;
    args.push_back(*e);
  }
  return Expr::call(*fn, std::move(args));
}

// ---------------------------------------------------------------------------
// Condition handlers
// ---------------------------------------------------------------------------

/// @Is(a, b) in condition position -> equality test.
std::optional<Cond> is_cond(LfConverter& conv, const LfNode& n) {
  if (n.args().size() != 2) return std::nullopt;
  std::optional<Expr> lhs;
  if (const auto phrase = leaf_phrase(n.args()[0])) {
    if (const auto field = conv.context().resolve_field(*phrase)) {
      lhs = Expr::field_read(*field, PacketSel::kIncoming);
    } else if (is_symbolic_value(*phrase)) {
      lhs = Expr::symbol(util::to_lower(*phrase));
    }
  }
  if (!lhs) lhs = conv.to_expr(n.args()[0]);
  if (!lhs) return std::nullopt;
  const auto rhs = conv.to_expr(n.args()[1]);
  if (!rhs) return std::nullopt;
  return Cond::compare(*lhs, CmpOp::kEq, *rhs);
}

/// @Nonzero(field) -> field != 0.
std::optional<Cond> nonzero_cond(LfConverter& conv, const LfNode& n) {
  if (n.args().size() != 1) return std::nullopt;
  const auto e = conv.to_expr(n.args()[0]);
  if (!e) return std::nullopt;
  return Cond::compare(*e, CmpOp::kNe, Expr::constant(0));
}

std::optional<Cond> and_cond(LfConverter& conv, const LfNode& n) {
  std::vector<Cond> children;
  for (const auto& part : n.args()) {
    const auto c = conv.to_cond(part);
    if (!c) return std::nullopt;
    children.push_back(*c);
  }
  return Cond::conj(std::move(children));
}

std::optional<Cond> or_cond(LfConverter& conv, const LfNode& n) {
  std::vector<Cond> children;
  for (const auto& part : n.args()) {
    const auto c = conv.to_cond(part);
    if (!c) return std::nullopt;
    children.push_back(*c);
  }
  return Cond::disj(std::move(children));
}

// ---------------------------------------------------------------------------
// IGMP additions (§6.3: 4 extra handlers)
// ---------------------------------------------------------------------------

std::optional<Expr> in_expr(LfConverter& conv, const LfNode& n) {
  if (n.args().size() != 2) return std::nullopt;
  // "@In(a, b)": a located in b — resolve the head like @Of.
  if (const auto phrase = leaf_phrase(n.args()[0])) {
    if (const auto field = conv.context().resolve_field(*phrase)) {
      return Expr::field_read(*field, PacketSel::kIncoming);
    }
  }
  conv.report("cannot resolve @In value '" + n.to_string() + "'");
  return std::nullopt;
}

std::optional<Cond> not_cond(LfConverter& conv, const LfNode& n) {
  if (n.args().size() != 1) return std::nullopt;
  const auto inner = conv.to_cond(n.args()[0]);
  if (!inner) return std::nullopt;
  return Cond::negate(*inner);
}

std::optional<Cond> greater_cond(LfConverter& conv, const LfNode& n) {
  if (n.args().size() != 2) return std::nullopt;
  const auto lhs = conv.to_expr(n.args()[0]);
  const auto rhs = conv.to_expr(n.args()[1]);
  if (!lhs || !rhs) return std::nullopt;
  return Cond::compare(*lhs, CmpOp::kGt, *rhs);
}

std::optional<Cond> less_cond(LfConverter& conv, const LfNode& n) {
  if (n.args().size() != 2) return std::nullopt;
  const auto lhs = conv.to_expr(n.args()[0]);
  const auto rhs = conv.to_expr(n.args()[1]);
  if (!lhs || !rhs) return std::nullopt;
  return Cond::compare(*lhs, CmpOp::kLt, *rhs);
}

// ---------------------------------------------------------------------------
// BFD additions (§6.4: 8 extra handlers for state management)
// ---------------------------------------------------------------------------

/// @Select(session[, key]) -> framework select_session.
std::optional<Stmt> select_stmt(LfConverter& conv, const LfNode& n) {
  std::vector<Expr> args;
  if (n.args().size() > 1) {
    if (const auto key = conv.to_expr(n.args()[1])) args.push_back(*key);
  }
  return Stmt::call("select_session", std::move(args));
}

/// @Cease(activity) -> framework cease_transmission.
std::optional<Stmt> cease_stmt(LfConverter&, const LfNode&) {
  return Stmt::call("cease_transmission");
}

/// bfd.* variable assignment with a symbolic state value:
/// "bfd.SessionState is Up" -> state variable write.
std::optional<Stmt> bfd_var_assign(LfConverter& conv, const LfNode& n) {
  if (n.args().size() != 2 || !n.args()[0].is_string()) return std::nullopt;
  if (util::to_lower(n.args()[0].label()).find("bfd.") != 0) {
    return std::nullopt;
  }
  const auto target = conv.context().resolve_field(n.args()[0].label());
  if (!target) {
    conv.report("unknown BFD state variable '" + n.args()[0].label() + "'");
    return std::nullopt;
  }
  const auto value = conv.to_expr(n.args()[1]);
  if (!value) return std::nullopt;
  return Stmt::assign(*target, *value);
}

/// Symbolic BFD state values as expressions.
std::optional<Expr> state_value_expr(LfConverter&, const LfNode& n) {
  if (!n.is_string() || !is_symbolic_value(n.label())) return std::nullopt;
  return Expr::symbol(util::to_lower(n.label()));
}

/// @Action("timeout" / "transmit" ...) in state-management text.
std::optional<Stmt> timer_stmt(LfConverter&, const LfNode& n) {
  if (n.args().empty() || !n.args()[0].is_string()) return std::nullopt;
  const std::string name = util::to_lower(n.args()[0].label());
  if (name != "timeout" && name != "transmit") return std::nullopt;
  return Stmt::call(name == "timeout" ? "call_timeout" : "transmit_packet");
}

/// bfd.* variable reads in conditions.
std::optional<Cond> bfd_var_cond(LfConverter& conv, const LfNode& n) {
  if (!n.is_predicate(pred::kIs) || n.args().size() != 2 ||
      !n.args()[0].is_string()) {
    return std::nullopt;
  }
  if (util::to_lower(n.args()[0].label()).find("bfd.") != 0) {
    return std::nullopt;
  }
  const auto field = conv.context().resolve_field(n.args()[0].label());
  if (!field) return std::nullopt;
  const auto rhs = conv.to_expr(n.args()[1]);
  if (!rhs) return std::nullopt;
  return Cond::compare(Expr::field_read(*field, PacketSel::kIncoming),
                       CmpOp::kEq, *rhs);
}

/// @Select in condition position: "the session is not found" — the
/// framework's session lookup as a boolean.
std::optional<Cond> select_cond(LfConverter&, const LfNode&) {
  return Cond::compare(Expr::call("session_lookup"), CmpOp::kNe,
                       Expr::constant(0));
}

/// @Nonzero over a BFD packet field ("the Your Discriminator field is
/// nonzero").
std::optional<Cond> bfd_nonzero_cond(LfConverter& conv, const LfNode& n) {
  if (!n.is_predicate(pred::kNonzero) || n.args().size() != 1 ||
      !n.args()[0].is_string()) {
    return std::nullopt;
  }
  const auto field = conv.context().resolve_field(n.args()[0].label());
  if (!field || field->layer != "bfd") return std::nullopt;
  return Cond::compare(Expr::field_read(*field, PacketSel::kIncoming),
                       CmpOp::kNe, Expr::constant(0));
}

// ---------------------------------------------------------------------------
// The table. A node tries the rows of its kind and key top to bottom and
// takes the first output. The BFD @Is rows lead their predicate, so a
// bfd.* subject reaches them first; they decline every other subject
// before resolving or reporting anything.
// ---------------------------------------------------------------------------

constexpr HandlerRow<Stmt> kStmtRows[] = {
    {pred::kIs, "bfd", bfd_var_assign},
    {pred::kIs, "icmp", is_assign_compound},
    {pred::kIs, "icmp", is_assign},
    {kNumLeaf, "icmp", num_field_default},
    {pred::kIf, "icmp", if_stmt},
    {pred::kAnd, "icmp", and_seq},
    {pred::kAction, "icmp", action_copy},
    {pred::kAction, "icmp", action_reverse},
    {pred::kAction, "icmp", action_recompute},
    {pred::kAction, "icmp", action_call},
    {pred::kCompute, "icmp", compute_stmt},
    {pred::kMay, "icmp", may_stmt},
    {pred::kMust, "icmp", must_stmt},
    {pred::kAdvBefore, "icmp", advbefore_stmt},
    {pred::kAdvComment, "icmp", advcomment_stmt},
    {pred::kCase, "icmp", case_stmt},
    {pred::kWhen, "icmp", when_stmt},
    {pred::kDiscard, "icmp", discard_stmt},
    {pred::kSend, "igmp", send_stmt},
    {pred::kAction, "ntp", timer_stmt},  // Table 11's peer variables
    {pred::kSelect, "bfd", select_stmt},
    {pred::kCease, "bfd", cease_stmt},
};

constexpr HandlerRow<Expr> kExprRows[] = {
    {kNumLeaf, "icmp", num_expr},
    {kStrLeaf, "icmp", str_value_expr},
    {pred::kOf, "icmp", of_expr},
    {pred::kAction, "icmp", action_expr},
    {pred::kAnd, "icmp", and_excerpt_expr},
    {pred::kIn, "igmp", in_expr},
    {kStrLeaf, "bfd", state_value_expr},
};

constexpr HandlerRow<Cond> kCondRows[] = {
    {pred::kIs, "bfd", bfd_var_cond},
    {pred::kIs, "icmp", is_cond},
    {pred::kAnd, "icmp", and_cond},
    {pred::kOr, "icmp", or_cond},
    {pred::kNot, "igmp", not_cond},
    {pred::kGreater, "igmp", greater_cond},
    {pred::kLess, "ntp", less_cond},
    {pred::kNonzero, "bfd", bfd_nonzero_cond},
    {pred::kNonzero, "bfd", nonzero_cond},
    {pred::kSelect, "bfd", select_cond},
};

/// The one dispatcher: the first output among the rows keyed like `node`.
template <typename T>
std::optional<T> dispatch(std::span<const HandlerRow<T>> rows,
                          LfConverter& conv, const LfNode& node) {
  const std::string_view key =
      node.is_string()   ? kStrLeaf
      : node.is_number() ? kNumLeaf
                         : std::string_view(node.label());
  for (const auto& row : rows) {
    if (row.predicate != key) continue;
    if (auto out = row.fn(conv, node)) return out;
  }
  return std::nullopt;
}

template <typename T>
std::size_t count_source(std::span<const HandlerRow<T>> rows,
                         std::string_view source) {
  return static_cast<std::size_t>(
      std::count_if(rows.begin(), rows.end(), [source](const auto& row) {
        return row.source == source;
      }));
}

}  // namespace

std::span<const HandlerRow<Stmt>> stmt_handlers() { return kStmtRows; }
std::span<const HandlerRow<Expr>> expr_handlers() { return kExprRows; }
std::span<const HandlerRow<Cond>> cond_handlers() { return kCondRows; }

std::size_t handler_count(std::string_view source) {
  return count_source(stmt_handlers(), source) +
         count_source(expr_handlers(), source) +
         count_source(cond_handlers(), source);
}

std::optional<Stmt> LfConverter::to_stmt(const lf::LfNode& node) {
  return dispatch(stmt_handlers(), *this, node);
}

std::optional<Expr> LfConverter::to_expr(const lf::LfNode& node) {
  return dispatch(expr_handlers(), *this, node);
}

std::optional<Cond> LfConverter::to_cond(const lf::LfNode& node) {
  return dispatch(cond_handlers(), *this, node);
}

}  // namespace sage::codegen
