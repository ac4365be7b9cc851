// The disambiguation checks of §4.2.
//
// SAGE winnows ambiguous logical forms with five check families, applied
// in this order (the order of Figure 5):
//   1. Type checks (allowlist; 32 for ICMP) — badly-typed predicates,
//      e.g. an @Action whose function-name argument is a numeric constant.
//   2. Argument-ordering checks (blocklist; 7) — e.g. @If with the action
//      in condition position.
//   3. Predicate-ordering checks (blocklist; 4 for ICMP, +1 IGMP, +1 NTP)
//      — predicate X may not be nested within predicate Y.
//   4. Distributivity (1 implicit rule) — prefer "(A and B) is C" over
//      "(A is C) and (B is C)" when both parses exist.
//   5. Associativity — collapse logical forms that are isomorphic modulo
//      associative predicates (graph-isomorphism check).
//
// A check of the first three families is a table row: the predicate
// labels it inspects and a test on one such node. The winnower indexes
// the rows by label and walks each logical form once, running at each
// predicate node only the tests registered for its label.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "lf/logical_form.hpp"

namespace sage::disambig {

enum class CheckFamily {
  kType,
  kArgumentOrdering,
  kPredicateOrdering,
  kDistributivity,
  kAssociativity,
};

std::string check_family_name(CheckFamily family);

/// One per-LF check. A logical form violates it — and is REMOVED — when
/// `test` holds at some predicate node labelled with one of `at`, or,
/// when `at` is empty, at the root. Type checks are allowlists (violation
/// = argument outside the allowed kinds); ordering checks are blocklists
/// (violation = matches a forbidden pattern).
struct Check {
  CheckFamily family = CheckFamily::kType;
  std::string name;         // e.g. "type:action-name-is-function"
  std::string description;  // human-readable rule statement
  std::string source;       // protocol that required it: "icmp", "igmp", ...
  /// Labels whose nodes `test` inspects: views of static strings (the
  /// lf::pred constants), which the winnower's label index keys on.
  std::vector<std::string_view> at;
  bool (*test)(const lf::LfNode&) = nullptr;

  /// Walk `form` alone: true when this check removes it.
  bool violates(const lf::LfNode& form) const;
};

/// The ICMP check set (§6.1: 32 type checks, 7 argument-ordering checks,
/// 4 predicate-ordering checks).
std::vector<Check> icmp_checks();

/// Incremental additions for the generality experiments (§6.3):
/// IGMP adds one predicate-ordering check; NTP adds one more.
std::vector<Check> igmp_additional_checks();
std::vector<Check> ntp_additional_checks();

/// BFD state-management additions (§6.4).
std::vector<Check> bfd_additional_checks();

/// Everything: ICMP + IGMP + NTP + BFD.
std::vector<Check> all_checks();

/// Names of functions the static framework provides; the
/// "action names a known function" type check consults this.
const std::vector<std::string>& known_function_names();

}  // namespace sage::disambig
