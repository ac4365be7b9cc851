// Tests for logical forms: construction, printing, parsing, hashing,
// isomorphism modulo associativity (the substrate of §4.2's associativity
// check), and the shared-form contract: a copy of a form shares its
// children, allocates nothing, and hashes and compares as the tree did.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <thread>

#include "core/batch.hpp"
#include "heap_counter.hpp"
#include "lf/isomorphism.hpp"
#include "lf/logical_form.hpp"
#include "pin_inputs.hpp"

namespace sage::lf {
namespace {

LfNode is_cs_zero() {
  return LfNode::predicate("@Is", {LfNode::str("checksum"), LfNode::num(0)});
}

TEST(LfNode, ToStringMatchesPaperNotation) {
  EXPECT_EQ(is_cs_zero().to_string(), "@Is(\"checksum\", @Num(0))");
}

TEST(LfNode, SizeAndDepth) {
  const auto lf = LfNode::predicate(
      "@If", {is_cs_zero(),
              LfNode::predicate("@Action", {LfNode::str("discard")})});
  EXPECT_EQ(lf.size(), 6u);
  EXPECT_EQ(lf.depth(), 3u);
}

LfNode is_cs_one() {
  return LfNode::predicate("@Is", {LfNode::str("checksum"), LfNode::num(1)});
}

TEST(LfNode, EqualityIsStructural) {
  EXPECT_EQ(is_cs_zero(), is_cs_zero());
  EXPECT_FALSE(is_cs_zero() == is_cs_one());
}

TEST(ParseLogicalForm, RoundTripsToString) {
  const std::vector<std::string> cases = {
      "@Is(\"checksum\", @Num(0))",
      "@If(@Is(\"code\", @Num(0)), @Action(\"reply\"))",
      "@And(\"source\", \"destination\")",
      "@Num(-5)",
      "\"bare string\"",
      "@AdvComment()",
  };
  for (const auto& text : cases) {
    const auto parsed = parse_logical_form(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_EQ(parsed->to_string(), text);
  }
}

TEST(ParseLogicalForm, RejectsMalformed) {
  EXPECT_FALSE(parse_logical_form("@Is(").has_value());
  EXPECT_FALSE(parse_logical_form("@Is(a, b)").has_value());
  EXPECT_FALSE(parse_logical_form("\"unterminated").has_value());
  EXPECT_FALSE(parse_logical_form("@Is(\"x\") trailing").has_value());
  EXPECT_FALSE(parse_logical_form("@Num(abc)").has_value());
}

TEST(CollectPredicates, UniqueInOrder) {
  const auto lf = parse_logical_form(
      "@If(@Is(\"a\", @Num(1)), @And(@Is(\"b\", @Num(2)), @Action(\"f\")))");
  ASSERT_TRUE(lf.has_value());
  const auto preds = collect_predicates(*lf);
  ASSERT_EQ(preds.size(), 4u);
  EXPECT_EQ(preds[0], "@If");
  EXPECT_EQ(preds[1], "@Is");
  EXPECT_EQ(preds[2], "@And");
  EXPECT_EQ(preds[3], "@Action");
}

TEST(StructuralHash, EqualTreesHashEqual) {
  EXPECT_EQ(structural_hash(is_cs_zero()), structural_hash(is_cs_zero()));
}

TEST(StructuralHash, DifferentTreesHashDifferent) {
  EXPECT_NE(structural_hash(is_cs_zero()), structural_hash(is_cs_one()));
}

// --- isomorphism / associativity (Figure 3 of the paper) -----------------

TEST(Isomorphism, OfIsAssociative) {
  // (A of B) of C vs A of (B of C) — sentence H's two logical forms.
  const auto left = parse_logical_form(
      "@Of(@Of(\"complement\", \"sum\"), \"message\")");
  const auto right = parse_logical_form(
      "@Of(\"complement\", @Of(\"sum\", \"message\"))");
  ASSERT_TRUE(left && right);
  EXPECT_TRUE(isomorphic(*left, *right));
}

TEST(Isomorphism, FlattenProducesNaryNode) {
  const auto nested = parse_logical_form(
      "@Of(@Of(\"a\", \"b\"), \"c\")");
  ASSERT_TRUE(nested.has_value());
  const auto flat = flatten_associative(*nested, AlgebraicProperties{});
  EXPECT_EQ(flat.args().size(), 3u);
  EXPECT_EQ(flat.label(), "@Of");
}

TEST(Isomorphism, AndIsCommutative) {
  const auto ab = parse_logical_form("@And(\"a\", \"b\")");
  const auto ba = parse_logical_form("@And(\"b\", \"a\")");
  ASSERT_TRUE(ab && ba);
  EXPECT_TRUE(isomorphic(*ab, *ba));
}

TEST(Isomorphism, OfIsNotCommutative) {
  const auto ab = parse_logical_form("@Of(\"a\", \"b\")");
  const auto ba = parse_logical_form("@Of(\"b\", \"a\")");
  ASSERT_TRUE(ab && ba);
  EXPECT_FALSE(isomorphic(*ab, *ba));
}

TEST(Isomorphism, DifferentPredicatesNotIsomorphic) {
  const auto a = parse_logical_form("@Of(\"a\", \"b\")");
  const auto b = parse_logical_form("@In(\"a\", \"b\")");
  ASSERT_TRUE(a && b);
  EXPECT_FALSE(isomorphic(*a, *b));
}

TEST(Isomorphism, NonAssociativePredicateKeepsGrouping) {
  // @Is is not associative: @Is(@Is(a,b),c) != @Is(a,@Is(b,c)).
  const auto left = parse_logical_form("@Is(@Is(\"a\", \"b\"), \"c\")");
  const auto right = parse_logical_form("@Is(\"a\", @Is(\"b\", \"c\"))");
  ASSERT_TRUE(left && right);
  EXPECT_FALSE(isomorphic(*left, *right));
}

TEST(Isomorphism, MixedAndOfChains) {
  // @And(@Of(a,b), c) ~ @And(c, @Of(a,b)) (commutative @And) but not
  // ~ @And(@Of(b,a), c).
  const auto x = parse_logical_form("@And(@Of(\"a\", \"b\"), \"c\")");
  const auto y = parse_logical_form("@And(\"c\", @Of(\"a\", \"b\"))");
  const auto z = parse_logical_form("@And(@Of(\"b\", \"a\"), \"c\")");
  ASSERT_TRUE(x && y && z);
  EXPECT_TRUE(isomorphic(*x, *y));
  EXPECT_FALSE(isomorphic(*x, *z));
}

// Property-style sweep: flattening then re-nesting in any order is
// isomorphic for associative predicates.
class AssocSweep : public ::testing::TestWithParam<int> {};

TEST_P(AssocSweep, AllNestingsOfFourLeavesAreIsomorphic) {
  // Five binary nestings of (a ? b ? c ? d) for an associative predicate.
  const std::vector<std::string> nestings = {
      "@Of(@Of(@Of(\"a\",\"b\"),\"c\"),\"d\")",
      "@Of(@Of(\"a\",@Of(\"b\",\"c\")),\"d\")",
      "@Of(@Of(\"a\",\"b\"),@Of(\"c\",\"d\"))",
      "@Of(\"a\",@Of(@Of(\"b\",\"c\"),\"d\"))",
      "@Of(\"a\",@Of(\"b\",@Of(\"c\",\"d\")))",
  };
  const int i = GetParam();
  const auto base = parse_logical_form(nestings[0]);
  const auto other = parse_logical_form(nestings[static_cast<std::size_t>(i)]);
  ASSERT_TRUE(base && other);
  EXPECT_TRUE(isomorphic(*base, *other));
}

INSTANTIATE_TEST_SUITE_P(AllNestings, AssocSweep, ::testing::Range(0, 5));

// --- the shared-form contract ---------------------------------------------

/// Every base candidate of the six spec corpora, then 2,000 seeded random
/// forms.
const std::vector<LogicalForm>& pinned_forms() {
  static const std::vector<LogicalForm> forms = [] {
    std::vector<LogicalForm> out = pins::corpus_base_forms();
    util::SplitMix64 rng(30);
    for (int i = 0; i < 2000; ++i) {
      out.push_back(pins::random_node(rng, 4, pins::kLeaves));
    }
    return out;
  }();
  return forms;
}

TEST(SharedForms, CopyingACorpusCandidateAllocatesNothingAndSharesItsChildren) {
  const std::vector<LogicalForm> forms = pins::corpus_base_forms();
  ASSERT_EQ(forms.size(), 420u);
  for (const LogicalForm& form : forms) {
    const std::uint64_t before = t_heap_blocks;
    const LogicalForm copy = form;
    EXPECT_EQ(t_heap_blocks - before, 0u) << form.to_string();
    EXPECT_FALSE(copy.args().empty()) << form.to_string();
    EXPECT_TRUE(copy.args().shares_block(form.args())) << form.to_string();
    EXPECT_EQ(copy, form);
  }
}

TEST(SharedForms, CachedHashesEqualTheTreeWalkRecordedBeforeSharing) {
  // The digest structural_hash gave over these forms when it walked the
  // tree, before nodes cached their hash.
  pins::Fnv1a digest;
  for (const LogicalForm& form : pinned_forms()) {
    char line[24];
    std::snprintf(line, sizeof line, "%016llx\n",
                  static_cast<unsigned long long>(structural_hash(form)));
    digest.add(line);
  }
  EXPECT_EQ(pinned_forms().size(), 2420u);
  EXPECT_EQ(digest.h, 0x7859f321f0fa03c9ull);
}

TEST(SharedForms, EqualityAgreesWithRenderedTextOnPinnedForms) {
  // `==` and to_string() equality agree on every pair of the pinned
  // forms (23,215 equal pairs).
  const std::vector<LogicalForm>& forms = pinned_forms();
  std::vector<std::string> text;
  for (const LogicalForm& form : forms) text.push_back(form.to_string());
  std::size_t equal = 0;
  std::size_t disagree = 0;
  for (std::size_t i = 0; i < forms.size(); ++i) {
    for (std::size_t j = i + 1; j < forms.size(); ++j) {
      const bool same = forms[i] == forms[j];
      equal += same ? 1 : 0;
      disagree += same != (text[i] == text[j]) ? 1 : 0;
    }
  }
  EXPECT_EQ(equal, 23215u);
  EXPECT_EQ(disagree, 0u);
}

TEST(SharedForms, RenderedTextIsCoarserThanEquality) {
  // A label may hold the renderer's own punctuation, so two different
  // trees can render alike. Text-keyed dedups (the parse harvest,
  // distributivity) keep that behaviour; `==` tells the trees apart.
  const LfNode two =
      LfNode::predicate("@And", {LfNode::str("a"), LfNode::str("b")});
  const LfNode one = LfNode::predicate("@And", {LfNode::str("a\", \"b")});
  EXPECT_EQ(two.to_string(), one.to_string());
  EXPECT_FALSE(two == one);
}

TEST(SharedForms, ThreadsCopyCompareAndDropOneRunsForms) {
  const auto& corpora = corpus::spec_corpora();
  core::Sage sage;
  sage.annotate_non_actionable(corpora[0].annotations);
  const core::ProtocolRun run =
      sage.process(corpora[0].text, corpora[0].protocol);
  const std::string signature = core::protocol_run_signature(run);
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&run, &mismatches] {
      for (int round = 0; round < 20; ++round) {
        for (const core::SentenceReport& report : run.reports) {
          std::vector<LogicalForm> copies = report.base_candidates;
          copies.insert(copies.end(), report.winnow.survivors.begin(),
                        report.winnow.survivors.end());
          if (report.final_form) copies.push_back(*report.final_form);
          for (std::size_t i = 0; i < report.base_candidates.size(); ++i) {
            if (!(copies[i] == report.base_candidates[i])) ++mismatches;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(core::protocol_run_signature(run), signature);
}

}  // namespace
}  // namespace sage::lf
