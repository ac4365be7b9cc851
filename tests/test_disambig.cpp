// Tests for the disambiguation checks and the winnowing pipeline (§4.2).
#include <gtest/gtest.h>

#include <algorithm>

#include "disambig/checks.hpp"
#include "disambig/winnower.hpp"
#include "lf/logical_form.hpp"
#include "pin_inputs.hpp"

namespace sage::disambig {
namespace {

lf::LogicalForm parse(const std::string& text) {
  auto form = lf::parse_logical_form(text);
  EXPECT_TRUE(form.has_value()) << text;
  return *form;
}

bool any_check_violated(const std::vector<Check>& checks,
                        const lf::LogicalForm& form, CheckFamily family) {
  for (const auto& c : checks) {
    if (c.family == family && c.violates(form)) return true;
  }
  return false;
}

TEST(Checks, EveryVerdictPinnedOnCorpusAndRandomForms) {
  // One digest over (check, form, verdict) for all 47 checks, recorded
  // when every check walked the whole form itself.
  std::vector<lf::LogicalForm> forms = pins::corpus_base_forms();
  ASSERT_EQ(forms.size(), 420u);
  util::SplitMix64 rng(18);
  for (int i = 0; i < 3000; ++i) forms.push_back(pins::random_predicate(rng, 4));

  const std::vector<Check> checks = all_checks();
  ASSERT_EQ(checks.size(), 47u);
  std::vector<std::size_t> fired(checks.size(), 0);
  pins::Fnv1a fnv;
  for (const auto& form : forms) {
    const std::string text = form.to_string();
    for (std::size_t i = 0; i < checks.size(); ++i) {
      const bool verdict = checks[i].violates(form);
      fired[i] += verdict ? 1 : 0;
      fnv.add(checks[i].name);
      fnv.add(text);
      fnv.add(verdict ? "1" : "0");
    }
  }
  for (std::size_t i = 0; i < checks.size(); ++i) {
    EXPECT_GT(fired[i], 0u) << checks[i].name;
    EXPECT_LT(fired[i], forms.size()) << checks[i].name;
  }
  EXPECT_EQ(fnv.h, 0xce529acd1220f231ull);
}

TEST(Checks, RootOnlyCheckDoesNotFireBelowTheRoot) {
  const std::vector<Check> checks = all_checks();
  const auto root_is_clause =
      std::find_if(checks.begin(), checks.end(), [](const Check& c) {
        return c.name == "type:root-is-clause";
      });
  ASSERT_NE(root_is_clause, checks.end());
  EXPECT_TRUE(root_is_clause->violates(parse("@Of(\"checksum\", \"header\")")));
  // The same non-clause @Of, nested under a clause.
  const auto nested = parse("@Is(\"checksum\", @Of(\"checksum\", \"header\"))");
  EXPECT_FALSE(root_is_clause->violates(nested));
  EXPECT_EQ(Winnower(all_checks()).winnow({nested}).survivors.size(), 1u);
}

TEST(Checks, PaperCheckCountsForIcmp) {
  // §6.1: "we defined 32 type checks, 7 argument ordering checks, 4
  // predicate ordering checks, and 1 distributivity check".
  Winnower winnower(icmp_checks());
  EXPECT_EQ(winnower.count_in_family(CheckFamily::kType), 32u);
  EXPECT_EQ(winnower.count_in_family(CheckFamily::kArgumentOrdering), 7u);
  EXPECT_EQ(winnower.count_in_family(CheckFamily::kPredicateOrdering), 4u);
}

TEST(Checks, IgmpAndNtpAddOnePredicateOrderingCheckEach) {
  EXPECT_EQ(igmp_additional_checks().size(), 1u);
  EXPECT_EQ(igmp_additional_checks()[0].family,
            CheckFamily::kPredicateOrdering);
  EXPECT_EQ(ntp_additional_checks().size(), 1u);
}

TEST(Checks, TypeCheckRejectsNumericActionName) {
  // Figure 2 LF1: "the second argument of the compute action must be the
  // name of a function, not a numeric constant".
  const auto bad = parse("@Action(@Num(0), \"checksum\")");
  EXPECT_TRUE(any_check_violated(icmp_checks(), bad, CheckFamily::kType));
  const auto good = parse("@Action(\"compute\", \"checksum\")");
  EXPECT_FALSE(any_check_violated(icmp_checks(), good, CheckFamily::kType));
}

TEST(Checks, TypeCheckRejectsUnknownFunctionName) {
  const auto bad = parse("@Action(\"frobnicate\", \"checksum\")");
  EXPECT_TRUE(any_check_violated(icmp_checks(), bad, CheckFamily::kType));
}

TEST(Checks, TypeCheckRejectsConstantAssignmentTarget) {
  const auto bad = parse("@Is(@Num(3), \"type\")");
  EXPECT_TRUE(any_check_violated(icmp_checks(), bad, CheckFamily::kType));
  const auto good = parse("@Is(\"type\", @Num(3))");
  EXPECT_FALSE(any_check_violated(icmp_checks(), good, CheckFamily::kType));
}

TEST(Checks, TypeCheckRejectsBareNounCondition) {
  const auto bad = parse("@If(\"code\", @Is(\"type\", @Num(0)))");
  EXPECT_TRUE(any_check_violated(icmp_checks(), bad, CheckFamily::kType));
}

TEST(Checks, TypeCheckRejectsNonClauseRoot) {
  const auto bad = parse("@Of(\"checksum\", \"header\")");
  EXPECT_TRUE(any_check_violated(icmp_checks(), bad, CheckFamily::kType));
}

TEST(Checks, ArgOrderRejectsSwappedConditional) {
  // Sentence E: the parse where the modal body lands in condition position.
  const auto swapped = parse(
      "@If(@May(@Is(\"identifier\", @Num(0))), @Is(\"code\", @Num(0)))");
  EXPECT_TRUE(any_check_violated(icmp_checks(), swapped,
                                 CheckFamily::kArgumentOrdering));
  const auto correct = parse(
      "@If(@Is(\"code\", @Num(0)), @May(@Is(\"identifier\", @Num(0))))");
  EXPECT_FALSE(any_check_violated(icmp_checks(), correct,
                                  CheckFamily::kArgumentOrdering));
}

TEST(Checks, PredOrderRejectsIsUnderOf) {
  // "A of (B is C)" — the wrong grouping of "A of B is C".
  const auto bad = parse(
      "@Of(\"address\", @Is(\"source\", \"destination\"))");
  EXPECT_TRUE(any_check_violated(icmp_checks(), bad,
                                 CheckFamily::kPredicateOrdering));
}

TEST(Checks, PredOrderRejectsModalUnderIs) {
  const auto bad = parse("@Is(\"identifier\", @May(@Num(0)))");
  EXPECT_TRUE(any_check_violated(icmp_checks(), bad,
                                 CheckFamily::kPredicateOrdering));
}

TEST(Checks, EveryCheckHasNameDescriptionAndSource) {
  for (const auto& c : all_checks()) {
    EXPECT_FALSE(c.name.empty());
    EXPECT_FALSE(c.description.empty());
    EXPECT_FALSE(c.source.empty());
    EXPECT_TRUE(c.test != nullptr);
  }
}

// --- distributivity -------------------------------------------------------

TEST(Distributivity, DetectsDistributedVersion) {
  const auto grouped = parse(
      "@Is(@And(\"source\", \"destination\"), @Num(0))");
  const auto distributed = parse(
      "@And(@Is(\"source\", @Num(0)), @Is(\"destination\", @Num(0)))");
  EXPECT_TRUE(is_distributed_version(distributed, grouped));
  EXPECT_FALSE(is_distributed_version(grouped, distributed));
}

TEST(Distributivity, RequiresExactlyOneDifferingSlot) {
  const auto grouped = parse("@Is(@And(\"a\", \"b\"), @Num(0))");
  const auto two_diffs = parse(
      "@And(@Is(\"a\", @Num(0)), @Is(\"b\", @Num(1)))");
  EXPECT_FALSE(is_distributed_version(two_diffs, grouped));
}

TEST(Distributivity, WinnowerPrefersGroupedForm) {
  Winnower winnower(icmp_checks());
  const std::vector<lf::LogicalForm> forms = {
      parse("@And(@Is(\"source\", @Num(0)), @Is(\"destination\", @Num(0)))"),
      parse("@Is(@And(\"source\", \"destination\"), @Num(0))"),
  };
  const auto result = winnower.winnow(forms);
  ASSERT_EQ(result.survivors.size(), 1u);
  EXPECT_EQ(result.survivors[0].to_string(),
            "@Is(@And(\"source\", \"destination\"), @Num(0))");
}

TEST(Distributivity, DistributedAloneIsKept) {
  // With no grouped counterpart present, the distributed reading is the
  // only reading — it must survive.
  Winnower winnower(icmp_checks());
  const std::vector<lf::LogicalForm> forms = {
      parse("@And(@Is(\"source\", @Num(0)), @Is(\"destination\", @Num(0)))"),
  };
  const auto result = winnower.winnow(forms);
  EXPECT_EQ(result.survivors.size(), 1u);
}

// --- associativity ----------------------------------------------------------

TEST(Associativity, CollapsesIsomorphicOfChains) {
  Winnower winnower(icmp_checks());
  const std::vector<lf::LogicalForm> forms = {
      parse("@Is(\"checksum\", @Of(@Of(\"complement\", \"sum\"), \"message\"))"),
      parse("@Is(\"checksum\", @Of(\"complement\", @Of(\"sum\", \"message\")))"),
  };
  const auto result = winnower.winnow(forms);
  EXPECT_EQ(result.survivors.size(), 1u);
  EXPECT_EQ(result.removed_by_check.at("assoc:isomorphic"), 1u);
}

// --- full pipeline ----------------------------------------------------------

TEST(Winnower, PipelineStagesRecorded) {
  Winnower winnower(icmp_checks());
  const std::vector<lf::LogicalForm> forms = {
      parse("@Is(\"type\", @Num(3))"),
      parse("@Is(@Num(3), \"type\")"),  // killed by type check
  };
  const auto result = winnower.winnow(forms);
  ASSERT_EQ(result.stages.size(), 6u);
  EXPECT_EQ(result.stages[0].stage, "Base");
  EXPECT_EQ(result.stages[0].remaining, 2u);
  EXPECT_EQ(result.stages[1].stage, "Type");
  EXPECT_EQ(result.stages[1].remaining, 1u);
  EXPECT_EQ(result.stages[5].stage, "Assoc");
  EXPECT_EQ(result.stages[5].remaining, 1u);
  EXPECT_TRUE(result.unambiguous());
}

TEST(Winnower, TrulyAmbiguousSentenceKeepsMultipleForms) {
  Winnower winnower(icmp_checks());
  // Two well-typed, structurally different readings: fundamentally
  // ambiguous; SAGE prompts the user to rewrite (§4.2).
  const std::vector<lf::LogicalForm> forms = {
      parse("@Is(\"type\", @Num(0))"),
      parse("@Is(\"code\", @Num(0))"),
  };
  const auto result = winnower.winnow(forms);
  EXPECT_TRUE(result.ambiguous());
  EXPECT_EQ(result.survivors.size(), 2u);
}

TEST(Winnower, SingleFamilyApplication) {
  Winnower winnower(icmp_checks());
  const std::vector<lf::LogicalForm> forms = {
      parse("@Is(\"type\", @Num(3))"),
      parse("@Is(@Num(3), \"type\")"),
      parse("@Of(\"address\", @Is(\"source\", \"destination\"))"),
  };
  EXPECT_EQ(winnower.removed_by_family_alone(CheckFamily::kType, forms), 2u);
  // PredOrder alone: only the @Is-under-@Of form matches.
  EXPECT_EQ(
      winnower.removed_by_family_alone(CheckFamily::kPredicateOrdering, forms),
      1u);
}

TEST(Winnower, RemovedByCheckAttributesRemovals) {
  Winnower winnower(icmp_checks());
  const std::vector<lf::LogicalForm> forms = {
      parse("@Is(\"type\", @Num(3))"),
      parse("@Is(@Num(3), \"type\")"),
  };
  const auto result = winnower.winnow(forms);
  EXPECT_EQ(result.removed_by_check.at("type:is-lhs-not-constant"), 1u);
}

TEST(Winnower, FormFailingTwoChecksIsCreditedToTheFirstDeclared) {
  // A pre-order walk meets the constant assignment target
  // (type:is-lhs-not-constant) before the one-argument @Is
  // (type:is-arity), but is-arity is declared first, so it is credited,
  // as when each check in turn walked the whole form.
  Winnower winnower(icmp_checks());
  const auto result = winnower.winnow({
      parse("@And(@Is(@Num(3), \"type\"), @Is(\"code\"))"),
      parse("@Is(\"type\", @Num(3))"),
  });
  EXPECT_EQ(result.survivors.size(), 1u);
  EXPECT_EQ(result.removed_by_check.at("type:is-arity"), 1u);
  EXPECT_EQ(result.removed_by_check.count("type:is-lhs-not-constant"), 0u);
}

TEST(Winnower, EmptyInputYieldsEmptyResult) {
  Winnower winnower(icmp_checks());
  const auto result = winnower.winnow({});
  EXPECT_TRUE(result.survivors.empty());
  EXPECT_FALSE(result.unambiguous());
  EXPECT_FALSE(result.ambiguous());
}

}  // namespace
}  // namespace sage::disambig
