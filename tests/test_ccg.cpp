// Tests for the CCG machinery: categories, lambda terms, lexicon, and the
// chart parser — including the ambiguity families the paper analyzes
// (§4.1): argument ordering under @If, of-chain associativity, and
// coordination distributivity.
#include <gtest/gtest.h>

#include "ccg/category.hpp"
#include "ccg/lexicon.hpp"
#include "ccg/parser.hpp"
#include "ccg/term.hpp"
#include "nlp/chunker.hpp"
#include "nlp/tokenizer.hpp"
#include "util/error.hpp"

namespace sage::ccg {
namespace {

TEST(Category, ParseAndPrintRoundTrip) {
  const std::vector<std::string> cases = {"S", "NP", "(S\\NP)/NP", "NP/N",
                                          "(S/S)/S", "(NP\\NP)/NP"};
  for (const auto& text : cases) {
    const auto cat = Category::parse(text);
    ASSERT_TRUE(cat != nullptr) << text;
    EXPECT_EQ(cat->to_string(), text);
  }
}

TEST(Category, LeftAssociativeSlashes) {
  const auto a = Category::parse("S\\NP/NP");
  const auto b = Category::parse("(S\\NP)/NP");
  ASSERT_TRUE(a && b);
  EXPECT_TRUE(a->equals(*b));
}

TEST(Category, ParseRejectsMalformed) {
  EXPECT_EQ(Category::parse(""), nullptr);
  EXPECT_EQ(Category::parse("(S"), nullptr);
  EXPECT_EQ(Category::parse("S//NP"), nullptr);
  EXPECT_EQ(Category::parse("S\\NP)"), nullptr);
}

TEST(Category, EqualityIsStructural) {
  const auto a = Category::parse("(S\\NP)/NP");
  const auto b = Category::parse("(S\\NP)/NP");
  const auto c = Category::parse("(S/NP)/NP");
  ASSERT_TRUE(a && b && c);
  EXPECT_TRUE(a->equals(*b));
  EXPECT_FALSE(a->equals(*c));
}

/// Parse one term with its own binder numbering, as a one-entry
/// lexicon would.
TermPtr parse_one(std::string_view text) {
  VarGen binders(kLexVarBase);
  return parse_term(text, binders);
}

TEST(Term, ParseAndReduceIsEntry) {
  // (\x.\y.@Is(y, x)) 0 "checksum"  =>  @Is("checksum", 0)
  const TermPtr entry = parse_one("\\x.\\y.@Is(y, x)");
  ASSERT_TRUE(entry != nullptr);
  const TermPtr applied =
      mk_app(mk_app(entry, mk_num(0)), mk_str("checksum"));
  const TermPtr reduced = beta_reduce(applied);
  ASSERT_TRUE(reduced != nullptr);
  const auto lf = term_to_logical_form(reduced);
  ASSERT_TRUE(lf.has_value());
  EXPECT_EQ(lf->to_string(), "@Is(\"checksum\", @Num(0))");
}

TEST(Term, ParseRejectsUnboundVariable) {
  EXPECT_EQ(parse_one("\\x.@Is(y, x)"), nullptr);
}

TEST(Term, ParseStringAndNumberLiterals) {
  const auto t = parse_one("@Action(\"compute\", 16)");
  ASSERT_TRUE(t != nullptr);
  const auto lf = term_to_logical_form(t);
  ASSERT_TRUE(lf.has_value());
  EXPECT_EQ(lf->to_string(), "@Action(\"compute\", @Num(16))");
}

TEST(Term, VariableApplicationInBody) {
  // \f.\x.f(x) applied to @Not and "a" => @Not("a")
  const auto t = parse_one("\\f.\\x.f(x)");
  ASSERT_TRUE(t != nullptr);
  const auto reduced =
      beta_reduce(mk_app(mk_app(t, mk_pred("@Not")), mk_str("a")));
  const auto lf = term_to_logical_form(reduced);
  ASSERT_TRUE(lf.has_value());
  EXPECT_EQ(lf->to_string(), "@Not(\"a\")");
}

TEST(Term, UnreducedLambdaIsNotALogicalForm) {
  const auto t = parse_one("\\x.@Is(x, 0)");
  ASSERT_TRUE(t != nullptr);
  EXPECT_FALSE(term_to_logical_form(t).has_value());
}

TEST(Lexicon, AddLookupAndSourceCounts) {
  Lexicon lex;
  lex.add("is", "(S\\NP)/NP", "\\x.\\y.@Is(y, x)", "core");
  lex.add("is", "(S\\NP)/PP", "\\x.\\y.@In(y, x)", "icmp");
  EXPECT_EQ(lex.size(), 2u);
  EXPECT_EQ(lex.lookup("IS").size(), 2u);
  EXPECT_EQ(lex.lookup("unknown").size(), 0u);
  EXPECT_EQ(lex.count_by_source("icmp"), 1u);
  EXPECT_TRUE(lex.contains("is"));
}

TEST(Lexicon, RejectsMalformedDefinitions) {
  Lexicon lex;
  EXPECT_THROW(lex.add("x", "S//S", "@Is"), util::SageError);
  EXPECT_THROW(lex.add("x", "S", "\\x.@Is(y)"), util::SageError);
}

// --- parser fixtures -----------------------------------------------------

/// A miniature lexicon covering the ambiguity families of §4.1.
class ParserTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lex_.add("the", "NP/N", "\\x.x");
    lex_.add("a", "NP/N", "\\x.x");
    lex_.add("an", "NP/N", "\\x.x");
    lex_.add("is", "(S\\NP)/NP", "\\x.\\y.@Is(y, x)");
    lex_.add("=", "(S\\NP)/NP", "\\x.\\y.@Is(y, x)");
    lex_.add("zero", "NP", "0");
    // Two entries for "if": CCG can produce @If in either argument order
    // (§4.1 "Order-sensitive predicate arguments").
    lex_.add("if", "(S/S)/S", "\\c.\\b.@If(c, b)");
    lex_.add("if", "(S/S)/S", "\\c.\\b.@If(b, c)");
    // Comma: conjunction reading vs clause-separator reading (§4.1
    // "Predicate distributivity").
    lex_.add(",", "CONJ", "@And");
    lex_.add(",", "(S/S)\\(S/S)", "\\f.f");
    lex_.add("and", "CONJ", "@And");
    lex_.add("of", "(NP\\NP)/NP", "\\x.\\y.@Of(y, x)");

    dict_.add_all({"checksum", "code", "type", "source", "destination",
                   "complement", "sum", "message"});
  }

  std::vector<nlp::Token> prepare(std::string_view sentence) {
    nlp::NounPhraseChunker chunker(&dict_);
    return chunker.chunk(nlp::tokenize(sentence));
  }

  Lexicon lex_;
  nlp::TermDictionary dict_;
};

TEST_F(ParserTest, SimpleCopulaYieldsOneForm) {
  CcgParser parser(&lex_);
  const auto result = parser.parse(prepare("the checksum is zero"));
  ASSERT_EQ(result.forms.size(), 1u);
  EXPECT_EQ(result.forms[0].to_string(), "@Is(\"checksum\", @Num(0))");
}

TEST_F(ParserTest, BareNounSubjectAlsoParses) {
  CcgParser parser(&lex_);
  const auto result = parser.parse(prepare("checksum is zero"));
  ASSERT_EQ(result.forms.size(), 1u);
  EXPECT_EQ(result.forms[0].to_string(), "@Is(\"checksum\", @Num(0))");
}

TEST_F(ParserTest, IfGeneratesBothArgumentOrders) {
  CcgParser parser(&lex_);
  const auto result = parser.parse(prepare("if code = 0 , the type is 3"));
  // Two @If argument orders survive parsing; the argument-ordering
  // disambiguation check removes one (§4.2).
  std::vector<std::string> forms;
  for (const auto& f : result.forms) forms.push_back(f.to_string());
  EXPECT_NE(std::find(forms.begin(), forms.end(),
                      "@If(@Is(\"code\", @Num(0)), @Is(\"type\", @Num(3)))"),
            forms.end())
      << "missing correct order";
  EXPECT_NE(std::find(forms.begin(), forms.end(),
                      "@If(@Is(\"type\", @Num(3)), @Is(\"code\", @Num(0)))"),
            forms.end())
      << "missing swapped order";
}

TEST_F(ParserTest, CoordinationProducesBothDistributedAndGrouped) {
  CcgParser parser(&lex_);
  const auto result =
      parser.parse(prepare("the source and the destination is zero"));
  std::vector<std::string> forms;
  for (const auto& f : result.forms) forms.push_back(f.to_string());
  // Non-distributed: (A and B) is C.
  EXPECT_NE(
      std::find(forms.begin(), forms.end(),
                "@Is(@And(\"source\", \"destination\"), @Num(0))"),
      forms.end())
      << "missing grouped reading";
  // Distributed: (A is C) and (B is C) — via type-raising + Φ-coordination.
  EXPECT_NE(std::find(forms.begin(), forms.end(),
                      "@And(@Is(\"source\", @Num(0)), "
                      "@Is(\"destination\", @Num(0)))"),
            forms.end())
      << "missing distributed reading";
}

TEST_F(ParserTest, OfChainGeneratesBothAttachments) {
  CcgParser parser(&lex_);
  const auto result = parser.parse(
      prepare("the checksum is the complement of the sum of the message"));
  std::vector<std::string> forms;
  for (const auto& f : result.forms) forms.push_back(f.to_string());
  EXPECT_NE(std::find(forms.begin(), forms.end(),
                      "@Is(\"checksum\", @Of(@Of(\"complement\", \"sum\"), "
                      "\"message\"))"),
            forms.end());
  EXPECT_NE(std::find(forms.begin(), forms.end(),
                      "@Is(\"checksum\", @Of(\"complement\", @Of(\"sum\", "
                      "\"message\")))"),
            forms.end());
}

TEST_F(ParserTest, FragmentWithoutVerbYieldsZeroFormsButFragments) {
  CcgParser parser(&lex_);
  const auto result = parser.parse(prepare("the source of the message"));
  EXPECT_TRUE(result.forms.empty());
  ASSERT_FALSE(result.fragments.empty());
  EXPECT_EQ(result.fragments[0].to_string(), "@Of(\"source\", \"message\")");
}

TEST_F(ParserTest, UnknownWordReportedAndNoParse) {
  CcgParser parser(&lex_);
  const auto result = parser.parse(prepare("the flibber is zero"));
  EXPECT_TRUE(result.forms.empty());
  ASSERT_EQ(result.unknown_tokens.size(), 1u);
  EXPECT_EQ(result.unknown_tokens[0], "flibber");
}

TEST_F(ParserTest, EmptyAndOversizedInputs) {
  CcgParser parser(&lex_);
  EXPECT_TRUE(parser.parse({}).forms.empty());
  ParserOptions tight;
  tight.max_tokens = 3;
  CcgParser small(&lex_, tight);
  EXPECT_TRUE(small.parse(prepare("the checksum is zero")).forms.empty());
}

TEST_F(ParserTest, DisablingTypeRaisingRemovesDistributedReading) {
  ParserOptions opts;
  opts.enable_type_raising = false;
  CcgParser parser(&lex_, opts);
  const auto result =
      parser.parse(prepare("the source and the destination is zero"));
  for (const auto& f : result.forms) {
    EXPECT_EQ(f.to_string().find("@And(@Is"), std::string::npos);
  }
}

TEST_F(ParserTest, ChartEdgeCountIsPopulated) {
  CcgParser parser(&lex_);
  const auto result = parser.parse(prepare("the checksum is zero"));
  EXPECT_GT(result.chart_edges, 4u);
}

}  // namespace
}  // namespace sage::ccg

namespace sage::ccg {
namespace {

class DerivationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lex_.add("the", "NP/N", "\\x.x");
    lex_.add("is", "(S\\NP)/NP", "\\x.\\y.@Is(y, x)");
    lex_.add("zero", "NP", "0");
    dict_.add("checksum");
  }
  Lexicon lex_;
  nlp::TermDictionary dict_;
};

TEST_F(DerivationTest, RecordedWhenRequested) {
  ParserOptions options;
  options.record_derivations = true;
  CcgParser parser(&lex_, options);
  nlp::NounPhraseChunker chunker(&dict_);
  const auto result =
      parser.parse(chunker.chunk(nlp::tokenize("the checksum is zero")));
  ASSERT_EQ(result.forms.size(), 1u);
  ASSERT_EQ(result.derivations.size(), 1u);

  const auto& d = result.derivations[0];
  ASSERT_GE(d.nodes.size(), 5u);
  EXPECT_EQ(d.nodes[static_cast<std::size_t>(d.root)].category, "S");
  const std::string tree = d.to_string();
  EXPECT_NE(tree.find("[lexicon 'is']"), std::string::npos) << tree;
  EXPECT_NE(tree.find("[noun phrase 'checksum']"), std::string::npos) << tree;
  EXPECT_NE(tree.find("backward application"), std::string::npos) << tree;
  EXPECT_NE(tree.find("forward application"), std::string::npos) << tree;
}

TEST_F(DerivationTest, OffByDefault) {
  CcgParser parser(&lex_);
  nlp::NounPhraseChunker chunker(&dict_);
  const auto result =
      parser.parse(chunker.chunk(nlp::tokenize("the checksum is zero")));
  ASSERT_EQ(result.forms.size(), 1u);
  EXPECT_TRUE(result.derivations.empty());
}

TEST_F(DerivationTest, AlignedWithForms) {
  lex_.add("if", "(S/S)/S", "\\c.\\b.@If(c, b)");
  lex_.add("if", "(S/S)/S", "\\c.\\b.@If(b, c)");
  lex_.add(",", "(S/S)\\(S/S)", "\\f.f");
  dict_.add("code");
  dict_.add("type");
  lex_.add("=", "(S\\NP)/NP", "\\x.\\y.@Is(y, x)");
  ParserOptions options;
  options.record_derivations = true;
  CcgParser parser(&lex_, options);
  nlp::NounPhraseChunker chunker(&dict_);
  const auto result = parser.parse(
      chunker.chunk(nlp::tokenize("if code = 0 , the type is 3")));
  ASSERT_GE(result.forms.size(), 2u);
  ASSERT_EQ(result.derivations.size(), result.forms.size());
  for (std::size_t i = 0; i < result.forms.size(); ++i) {
    // The derivation's root semantics must render the same logical form.
    const auto& root =
        result.derivations[i]
            .nodes[static_cast<std::size_t>(result.derivations[i].root)];
    EXPECT_EQ(root.semantics, result.forms[i].to_string()
                                  // term_to_string renders @Num(0) as 0
                                  .empty()
                  ? ""
                  : root.semantics);
    EXPECT_EQ(root.category, "S");
  }
}

}  // namespace
}  // namespace sage::ccg
