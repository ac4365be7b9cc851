#include "disambig/checks.hpp"

#include <algorithm>

namespace sage::disambig {

namespace {

using lf::LfNode;

// ---------------------------------------------------------------------------
// Small tree-query helpers shared by the check definitions.
// ---------------------------------------------------------------------------

bool has_label(const LfNode& n, std::string_view label) {
  return n.kind() == LfNode::Kind::kPredicate && n.label() == label;
}

bool label_in(const LfNode& n, std::initializer_list<std::string_view> labels) {
  if (n.kind() != LfNode::Kind::kPredicate) return false;
  return std::any_of(labels.begin(), labels.end(),
                     [&n](std::string_view l) { return n.label() == l; });
}

/// Nominal: something that denotes a value or field — a string leaf, a
/// number, or an @Of/@In/@And/@Compute combination of nominals.
bool is_nominal(const LfNode& n) {
  switch (n.kind()) {
    case LfNode::Kind::kString:
    case LfNode::Kind::kNumber:
      return true;
    case LfNode::Kind::kPredicate:
      if (n.label() == lf::pred::kOf || n.label() == lf::pred::kIn ||
          n.label() == lf::pred::kAnd || n.label() == lf::pred::kOr) {
        return std::ranges::all_of(n.args(), is_nominal);
      }
      if (n.label() == lf::pred::kCompute || n.label() == lf::pred::kAction) {
        // "the one's complement sum of the message" denotes a value.
        return true;
      }
      return false;
  }
  return false;
}

/// Test: a boolean condition — @Is/@Nonzero/@Greater/@Less over values,
/// or boolean combinations thereof.
bool is_test(const LfNode& n) {
  // @Select appears in tests via "the session is (not) found".
  if (label_in(n, {lf::pred::kIs, lf::pred::kNonzero, lf::pred::kGreater,
                   lf::pred::kLess, lf::pred::kSelect})) {
    return true;
  }
  if (label_in(n, {lf::pred::kAnd, lf::pred::kOr, lf::pred::kNot})) {
    return std::ranges::all_of(n.args(), is_test);
  }
  return false;
}

/// Action: something executable — assignment, computation, message
/// operation, possibly under a modal.
bool is_actionish(const LfNode& n) {
  if (label_in(n, {lf::pred::kIs, lf::pred::kAction, lf::pred::kCompute,
                   lf::pred::kSend, lf::pred::kDiscard, lf::pred::kSelect,
                   lf::pred::kCease, lf::pred::kMay, lf::pred::kMust,
                   lf::pred::kIf, lf::pred::kAdvBefore, lf::pred::kCase,
                   lf::pred::kAdvComment, lf::pred::kWhen})) {
    return true;
  }
  if (label_in(n, {lf::pred::kAnd, lf::pred::kOr})) {
    return std::ranges::all_of(n.args(), is_actionish);
  }
  return false;
}

/// Clause: a sentence-level meaning (test or action).
bool is_clause(const LfNode& n) { return is_test(n) || is_actionish(n); }

/// Modal at the top of a condition, possibly inside a conjunction ("If
/// (X may be zero and Y may be zero), code = 0").
bool modalish(const LfNode& n) {
  if (label_in(n, {lf::pred::kMay, lf::pred::kMust})) return true;
  if (label_in(n, {lf::pred::kAnd, lf::pred::kOr})) {
    return std::ranges::any_of(n.args(), modalish);
  }
  return false;
}

/// Is this string a packet-borne field name (read-only at the receiver)?
bool is_packet_field_name(const LfNode& n) {
  if (!n.is_string()) return false;
  const std::string& s = n.label();
  const auto ends = [&s](std::string_view suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  // Timers behave like packet fields here: text tests their expiry, the
  // system owns their value.
  return ends(" field") || ends(" bit") || ends(" timer");
}

/// Does some @Is in this subtree assign to a packet-borne field?
bool assigns_packet_field(const LfNode& n) {
  if (n.is_predicate(lf::pred::kIs) && !n.args().empty() &&
      is_packet_field_name(n.args()[0])) {
    return true;
  }
  return std::ranges::any_of(n.args(), assigns_packet_field);
}

/// Collect the string leaves of a subtree.
void collect_strings(const LfNode& n, std::vector<std::string>& out) {
  if (n.is_string()) out.push_back(n.label());
  for (const auto& a : n.args()) collect_strings(a, out);
}

/// Collect the subject leaves of @Is nodes in a subtree.
void collect_is_subjects(const LfNode& n, std::vector<std::string>& out) {
  if (n.is_predicate(lf::pred::kIs) && !n.args().empty()) {
    collect_strings(n.args()[0], out);
  }
  for (const auto& a : n.args()) collect_is_subjects(a, out);
}

using Test = bool (*)(const LfNode&);
using Labels = std::vector<std::string_view>;

/// Shorthand builders for the three per-LF families.
Check type_check(std::string name, std::string description, Labels at,
                 Test test, std::string source = "icmp") {
  return {CheckFamily::kType, "type:" + name, std::move(description),
          std::move(source), std::move(at), test};
}
Check arg_check(std::string name, std::string description, Labels at,
                Test test, std::string source = "icmp") {
  return {CheckFamily::kArgumentOrdering, "argorder:" + name,
          std::move(description), std::move(source), std::move(at), test};
}
Check pred_check(std::string name, std::string description, Labels at,
                 Test test, std::string source = "icmp") {
  return {CheckFamily::kPredicateOrdering, "predorder:" + name,
          std::move(description), std::move(source), std::move(at), test};
}

}  // namespace

bool Check::violates(const LfNode& form) const {
  if (at.empty()) return test(form);
  const auto walk = [this](const auto& self, const LfNode& n) -> bool {
    if (n.kind() == LfNode::Kind::kPredicate &&
        std::find(at.begin(), at.end(), n.label()) != at.end() && test(n)) {
      return true;
    }
    return std::ranges::any_of(
        n.args(), [&self](const LfNode& a) { return self(self, a); });
  };
  return walk(walk, form);
}

std::string check_family_name(CheckFamily family) {
  switch (family) {
    case CheckFamily::kType: return "Type";
    case CheckFamily::kArgumentOrdering: return "ArgOrder";
    case CheckFamily::kPredicateOrdering: return "PredOrder";
    case CheckFamily::kDistributivity: return "Distrib";
    case CheckFamily::kAssociativity: return "Assoc";
  }
  return "?";
}

const std::vector<std::string>& known_function_names() {
  // Functions the static framework (src/runtime) provides; the paper's
  // example LF1 (Figure 2) is rejected precisely because the second
  // argument of a compute action must be a function name.
  static const std::vector<std::string> kNames = {
      "compute",
      "compute_checksum",
      "ones_complement",
      "ones_complement_sum",
      "16-bit-ones-complement",
      "reverse",
      "reverse_addresses",
      "recompute",
      "recompute_checksum",
      "send",
      "discard",
      "select_session",
      "cease_transmission",
      "timeout",
      "transmit",
      "copy",
      "match",
      "reply",
      // Verbs that parse cleanly but have no framework implementation;
      // sentences built on them are exactly the ones the iterative
      // non-actionable discovery loop tags @AdvComment (§5.2).
      "form",
      "detect",
      "aid",
      "use",
      "assume",
  };
  return kNames;
}

std::vector<Check> icmp_checks() {
  std::vector<Check> checks;

  // ---- 32 type checks (allowlist) ---------------------------------------
  checks.push_back(type_check(
      "is-arity", "@Is takes exactly two arguments", {lf::pred::kIs},
      [](const LfNode& n) { return n.args().size() != 2; }));
  checks.push_back(type_check(
      "is-lhs-not-constant",
      "assignments cannot have numeric constants on the left-hand side",
      {lf::pred::kIs},
      [](const LfNode& n) {
        return !n.args().empty() && n.args()[0].is_number();
      }));
  checks.push_back(type_check(
      "is-lhs-not-clause", "the target of an assignment is a field, not a clause",
      {lf::pred::kIs}, [](const LfNode& n) {
        return !n.args().empty() &&
               label_in(n.args()[0], {lf::pred::kIf, lf::pred::kMay,
                                      lf::pred::kMust, lf::pred::kSend,
                                      lf::pred::kDiscard});
      }));
  checks.push_back(type_check(
      "is-rhs-not-conditional", "the value assigned cannot be a conditional",
      {lf::pred::kIs}, [](const LfNode& n) {
        return n.args().size() == 2 && has_label(n.args()[1], lf::pred::kIf);
      }));
  checks.push_back(type_check(
      "action-name-is-string", "an action's first argument names a function",
      {lf::pred::kAction},
      [](const LfNode& n) {
        return n.args().empty() || !n.args()[0].is_string();
      }));
  checks.push_back(type_check(
      "action-name-not-number",
      "an action's function argument must not be a numeric constant",
      {lf::pred::kAction},
      [](const LfNode& n) {
        return !n.args().empty() && n.args()[0].is_number();
      }));
  checks.push_back(type_check(
      "action-known-function",
      "an action's function name must be provided by the static framework",
      {lf::pred::kAction}, [](const LfNode& n) {
        if (n.args().empty() || !n.args()[0].is_string()) {
          return false;  // covered by the two checks above
        }
        const auto& names = known_function_names();
        return std::find(names.begin(), names.end(), n.args()[0].label()) ==
               names.end();
      }));
  checks.push_back(type_check(
      "compute-arity", "@Compute takes exactly one argument", {lf::pred::kCompute},
      [](const LfNode& n) { return n.args().size() != 1; }));
  checks.push_back(type_check(
      "compute-target-not-number",
      "the target of a computation is a field or expression, not a constant",
      {lf::pred::kCompute},
      [](const LfNode& n) {
        return !n.args().empty() && n.args()[0].is_number();
      }));
  checks.push_back(type_check(
      "if-arity", "conditionals must be well-formed: @If takes two arguments",
      {lf::pred::kIf}, [](const LfNode& n) { return n.args().size() != 2; }));
  checks.push_back(type_check(
      "if-condition-not-bare-noun", "a condition cannot be a bare noun",
      {lf::pred::kIf}, [](const LfNode& n) {
        return !n.args().empty() &&
               (n.args()[0].is_string() || n.args()[0].is_number());
      }));
  checks.push_back(type_check(
      "if-condition-boolean", "a condition must be a boolean test",
      {lf::pred::kIf}, [](const LfNode& n) {
        return n.args().size() == 2 && !is_test(n.args()[0]) &&
               !is_actionish(n.args()[0]);
      }));
  checks.push_back(type_check(
      "if-body-actionable",
      "the body of a conditional must be actionable (an assignment or an "
      "action), not a bare test — that's the swapped parse",
      {lf::pred::kIf},
      [](const LfNode& n) {
        return n.args().size() == 2 && !is_actionish(n.args()[1]);
      }));
  checks.push_back(type_check(
      "of-arity", "@Of takes exactly two arguments", {lf::pred::kOf},
      [](const LfNode& n) { return n.args().size() != 2; }));
  checks.push_back(type_check(
      "of-args-nominal", "@Of relates nominals (fields, values, messages)",
      {lf::pred::kOf}, [](const LfNode& n) {
        return std::ranges::any_of(n.args(), [](const LfNode& a) {
          return label_in(a, {lf::pred::kIf, lf::pred::kMay, lf::pred::kMust});
        });
      }));
  checks.push_back(type_check(
      "and-arity", "@And takes exactly two arguments", {lf::pred::kAnd},
      [](const LfNode& n) { return n.args().size() != 2; }));
  checks.push_back(type_check(
      "and-homogeneous",
      "conjunction cannot mix a bare noun with a full clause", {lf::pred::kAnd},
      [](const LfNode& n) {
        if (n.args().size() != 2) return false;
        const bool l_nominal = is_nominal(n.args()[0]);
        const bool r_nominal = is_nominal(n.args()[1]);
        const bool l_clause = is_clause(n.args()[0]);
        const bool r_clause = is_clause(n.args()[1]);
        if ((l_nominal && !r_nominal && r_clause && !l_clause) ||
            (r_nominal && !l_nominal && l_clause && !r_clause)) {
          return true;
        }
        // A bare numeric literal conjoined with a field name is a
        // comma mis-parse ("..., 0, an identifier ..."), not a value.
        if ((n.args()[0].is_number() && n.args()[1].is_string()) ||
            (n.args()[0].is_string() && n.args()[1].is_number())) {
          return true;
        }
        // Modality must distribute uniformly over a coordination:
        // @And(@Action(...), @May(...)) is a mis-scoped parse.
        const auto modal_root = [](const LfNode& m) {
          return label_in(m, {lf::pred::kMay, lf::pred::kMust});
        };
        return l_clause && r_clause &&
               modal_root(n.args()[0]) != modal_root(n.args()[1]);
      }));
  checks.push_back(type_check(
      "case-value-numeric",
      "the value-list idiom \"0 = name\" pairs a numeric value with a "
      "name; any other shape is a mis-parse of '='",
      {lf::pred::kCase}, [](const LfNode& n) {
        return n.args().size() != 2 || !n.args()[0].is_number() ||
               n.args()[1].is_number();
      }));
  checks.push_back(type_check(
      "may-scope", "@May scopes a clause, not a literal", {lf::pred::kMay},
      [](const LfNode& n) {
        return n.args().size() != 1 || !is_clause(n.args()[0]);
      }));
  checks.push_back(type_check(
      "must-scope", "@Must scopes a clause, not a literal", {lf::pred::kMust},
      [](const LfNode& n) {
        return n.args().size() != 1 || !is_clause(n.args()[0]);
      }));
  checks.push_back(type_check(
      "not-scope", "@Not negates a boolean test", {lf::pred::kNot},
      [](const LfNode& n) {
        return n.args().size() != 1 ||
               (!is_test(n.args()[0]) && !is_nominal(n.args()[0]));
      }));
  checks.push_back(type_check(
      "send-arg-nominal", "@Send transmits a message, not a clause",
      {lf::pred::kSend},
      [](const LfNode& n) {
        return !n.args().empty() && !is_nominal(n.args()[0]);
      }));
  checks.push_back(type_check(
      "discard-arg-nominal", "@Discard drops a packet/message",
      {lf::pred::kDiscard},
      [](const LfNode& n) {
        return !n.args().empty() && !is_nominal(n.args()[0]);
      }));
  checks.push_back(type_check(
      "select-arg-nominal", "@Select picks a session/entity", {lf::pred::kSelect},
      [](const LfNode& n) {
        return !n.args().empty() && !is_nominal(n.args()[0]);
      }));
  checks.push_back(type_check(
      "cease-arg-nominal", "@Cease stops a named activity", {lf::pred::kCease},
      [](const LfNode& n) {
        return !n.args().empty() && !is_nominal(n.args()[0]);
      }));
  checks.push_back(type_check(
      "greater-args-values", "@Greater compares values", {lf::pred::kGreater},
      [](const LfNode& n) {
        return n.args().size() != 2 || !is_nominal(n.args()[0]) ||
               !is_nominal(n.args()[1]);
      }));
  checks.push_back(type_check(
      "less-args-values", "@Less compares values", {lf::pred::kLess},
      [](const LfNode& n) {
        return n.args().size() != 2 || !is_nominal(n.args()[0]) ||
               !is_nominal(n.args()[1]);
      }));
  checks.push_back(type_check(
      "nonzero-arg-field", "@Nonzero tests a field, not a constant",
      {lf::pred::kNonzero},
      [](const LfNode& n) {
        return n.args().size() != 1 || n.args()[0].is_number();
      }));
  checks.push_back(type_check(
      "advbefore-arity", "@AdvBefore pairs advice with a main clause",
      {lf::pred::kAdvBefore}, [](const LfNode& n) {
        return n.args().size() != 2;
      }));
  checks.push_back(type_check(
      "advbefore-advice-action",
      "the advice of @AdvBefore is an action or computation context",
      {lf::pred::kAdvBefore}, [](const LfNode& n) {
        return !n.args().empty() &&
               (n.args()[0].is_number() || n.args()[0].is_string());
      }));
  checks.push_back(type_check(
      "in-args-nominal", "@In relates nominals", {lf::pred::kIn},
      [](const LfNode& n) {
        return std::ranges::any_of(n.args(), [](const LfNode& a) {
          return label_in(a, {lf::pred::kIf, lf::pred::kMay, lf::pred::kMust,
                              lf::pred::kSend});
        });
      }));
  checks.push_back(type_check(
      "root-is-clause", "a sentence's logical form must be a clause", {},
      [](const LfNode& root) { return !is_clause(root); }));

  // ---- 7 argument-ordering checks (blocklist) ----------------------------
  checks.push_back(arg_check(
      "if-condition-first-not-modal",
      "in \"If A, B\" the condition comes first; a modal clause in "
      "condition position is the swapped parse",
      {lf::pred::kIf}, [](const LfNode& n) {
        return n.args().size() == 2 && modalish(n.args()[0]) &&
               is_test(n.args()[1]);
      }));
  checks.push_back(arg_check(
      "if-condition-first-not-action",
      "an imperative action in condition position is the swapped parse",
      {lf::pred::kIf}, [](const LfNode& n) {
        return n.args().size() == 2 &&
               label_in(n.args()[0],
                        {lf::pred::kAction, lf::pred::kSend, lf::pred::kDiscard,
                         lf::pred::kCease, lf::pred::kSelect,
                         lf::pred::kCompute}) &&
               is_test(n.args()[1]);
      }));
  checks.push_back(arg_check(
      "of-head-not-constant", "\"A of B\": the head A is a field, not a number",
      {lf::pred::kOf},
      [](const LfNode& n) {
        return !n.args().empty() && n.args()[0].is_number();
      }));
  checks.push_back(arg_check(
      "greater-field-first", "\"A is greater than N\": the field comes first",
      {lf::pred::kGreater}, [](const LfNode& n) {
        return n.args().size() == 2 && n.args()[0].is_number() &&
               !n.args()[1].is_number();
      }));
  checks.push_back(arg_check(
      "less-field-first", "\"A is less than N\": the field comes first",
      {lf::pred::kLess}, [](const LfNode& n) {
        return n.args().size() == 2 && n.args()[0].is_number() &&
               !n.args()[1].is_number();
      }));
  checks.push_back(arg_check(
      "advbefore-advice-first",
      "@AdvBefore(advice, main): the computation context is the advice",
      {lf::pred::kAdvBefore}, [](const LfNode& n) {
        return n.args().size() == 2 &&
               has_label(n.args()[1], lf::pred::kAction) &&
               !has_label(n.args()[0], lf::pred::kAction) &&
               is_clause(n.args()[0]);
      }));
  checks.push_back(arg_check(
      "send-message-first", "@Send(message, destination)", {lf::pred::kSend},
      [](const LfNode& n) {
        return n.args().size() == 2 && n.args()[0].is_number();
      }));

  // ---- 4 predicate-ordering checks (blocklist) ----------------------------
  checks.push_back(pred_check(
      "no-is-under-of",
      "\"A of (B is C)\" is the wrong grouping of \"A of B is C\"",
      {lf::pred::kOf}, [](const LfNode& n) {
        return std::ranges::any_of(n.args(), [](const LfNode& a) {
          return has_label(a, lf::pred::kIs);
        });
      }));
  checks.push_back(pred_check(
      "no-if-under-is", "a conditional cannot be nested inside an assignment",
      {lf::pred::kIs}, [](const LfNode& n) {
        return std::ranges::any_of(n.args(), [](const LfNode& a) {
          return has_label(a, lf::pred::kIf);
        });
      }));
  checks.push_back(pred_check(
      "no-modal-under-is",
      "modality scopes the clause: @May/@Must cannot sit under @Is",
      {lf::pred::kIs}, [](const LfNode& n) {
        return std::ranges::any_of(n.args(), [](const LfNode& a) {
          return label_in(a, {lf::pred::kMay, lf::pred::kMust});
        });
      }));
  checks.push_back(pred_check(
      "when-scopes-sentence",
      "a fronted \"In the X message,\" adjunct scopes the whole sentence: "
      "@When cannot be nested under a conjunction or conditional",
      {lf::pred::kAnd, lf::pred::kOr, lf::pred::kIf}, [](const LfNode& n) {
        return std::ranges::any_of(n.args(), [](const LfNode& a) {
          return has_label(a, lf::pred::kWhen);
        });
      }));

  return checks;
}

std::vector<Check> igmp_additional_checks() {
  std::vector<Check> checks;
  // §6.3: parsing IGMP's Appendix I required one more predicate-ordering
  // check beyond the ICMP set.
  checks.push_back(pred_check(
      "no-send-under-is", "a transmission cannot be the value of an assignment",
      {lf::pred::kIs},
      [](const LfNode& n) {
        return std::ranges::any_of(n.args(), [](const LfNode& a) {
          return has_label(a, lf::pred::kSend);
        });
      },
      "igmp"));
  return checks;
}

std::vector<Check> ntp_additional_checks() {
  std::vector<Check> checks;
  // §6.3: NTP's appendices required one further predicate-ordering check.
  checks.push_back(pred_check(
      "no-if-under-action", "a conditional cannot be an action's parameter",
      {lf::pred::kAction, lf::pred::kCompute},
      [](const LfNode& n) {
        return std::ranges::any_of(n.args(), [](const LfNode& a) {
          return has_label(a, lf::pred::kIf);
        });
      },
      "ntp"));
  return checks;
}

std::vector<Check> bfd_additional_checks() {
  std::vector<Check> checks;
  // §6.4: BFD's state-management sentences mix read-only packet fields
  // ("the State field") with writable state variables (bfd.*); these
  // checks encode that distinction, which is what disambiguates the
  // state-machine sentences ("If the State field is Down and
  // bfd.SessionState is Down, the bfd.SessionState is Init").
  checks.push_back(type_check(
      "packet-fields-read-only",
      "a conditional's body cannot assign to a packet-borne field "
      "(\"... field\" / \"... bit\" names are read-only at the receiver)",
      {lf::pred::kIf},
      [](const LfNode& n) {
        return n.args().size() == 2 && assigns_packet_field(n.args()[1]);
      },
      "bfd"));
  checks.push_back(pred_check(
      "no-duplicated-subject-conjunct",
      "a coordination cannot test or set the same variable in two "
      "conjuncts (duplicated-material mis-parse)",
      {lf::pred::kAnd, lf::pred::kOr},
      [](const LfNode& n) {
        if (n.args().size() != 2) return false;
        std::vector<std::string> left, right;
        collect_is_subjects(n.args()[0], left);
        collect_is_subjects(n.args()[1], right);
        for (const auto& s : left) {
          if (std::find(right.begin(), right.end(), s) != right.end()) {
            return true;
          }
        }
        return false;
      },
      "bfd"));
  return checks;
}

std::vector<Check> all_checks() {
  std::vector<Check> checks = icmp_checks();
  for (auto& c : igmp_additional_checks()) checks.push_back(std::move(c));
  for (auto& c : ntp_additional_checks()) checks.push_back(std::move(c));
  for (auto& c : bfd_additional_checks()) checks.push_back(std::move(c));
  return checks;
}

}  // namespace sage::disambig
