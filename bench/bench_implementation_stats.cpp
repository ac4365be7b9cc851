// §6.1 implementation statistics: dictionary size (~400 terms), lexicon
// entries (71 + 8 + 5 + 15), inconsistency checks (32/7/4/1 + additions),
// and predicate handler functions (25 + 4 + 8).
#include <cstdio>

#include "bench_util.hpp"
#include "codegen/handlers.hpp"
#include "core/sage.hpp"
#include "disambig/checks.hpp"

int main() {
  using namespace sage;
  benchutil::title("§6.1 implementation statistics",
                   "dictionary / lexicon / checks / handlers");

  core::Sage sage;

  benchutil::row("COMPONENT", "measured (paper)");
  benchutil::rule();
  benchutil::row("term dictionary",
                 std::to_string(sage.dictionary().size()) + " (~400)");
  benchutil::row("lexicon entries, ICMP",
                 std::to_string(sage.lexicon().count_by_source("icmp")) +
                     " (71)");
  benchutil::row("lexicon entries, +IGMP",
                 std::to_string(sage.lexicon().count_by_source("igmp")) +
                     " (8)");
  benchutil::row("lexicon entries, +NTP",
                 std::to_string(sage.lexicon().count_by_source("ntp")) +
                     " (5)");
  benchutil::row("lexicon entries, +BFD",
                 std::to_string(sage.lexicon().count_by_source("bfd")) +
                     " (15)");

  const auto& winnower = sage.winnower();
  benchutil::row("type checks",
                 std::to_string(winnower.count_in_family(
                     disambig::CheckFamily::kType)) +
                     " (32 for ICMP, +1 BFD here)");
  benchutil::row("argument ordering checks",
                 std::to_string(winnower.count_in_family(
                     disambig::CheckFamily::kArgumentOrdering)) +
                     " (7)");
  benchutil::row("predicate ordering checks",
                 std::to_string(winnower.count_in_family(
                     disambig::CheckFamily::kPredicateOrdering)) +
                     " (4 ICMP +1 IGMP +1 NTP +1 BFD)");
  benchutil::row("distributivity checks", "1 implicit rule (1)");
  benchutil::row("associativity check", "graph isomorphism (1)");

  benchutil::row("predicate handlers, ICMP",
                 std::to_string(codegen::handler_count("icmp")) + " (25)");
  benchutil::row("predicate handlers, +IGMP",
                 std::to_string(codegen::handler_count("igmp")) + " (4)");
  benchutil::row("predicate handlers, +NTP",
                 std::to_string(codegen::handler_count("ntp")) + " (n/a)");
  benchutil::row("predicate handlers, +BFD",
                 std::to_string(codegen::handler_count("bfd")) + " (8)");
  benchutil::row("static context fields",
                 std::to_string(sage.static_context().field_count()));
  benchutil::row("static context functions",
                 std::to_string(sage.static_context().function_count()));
  return 0;
}
