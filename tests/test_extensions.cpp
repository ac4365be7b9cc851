// Tests for the §7 reach-probe extension (TCP/BGP), the noun-compound
// rule, the no-dictionary fallback labeling, and the C compilation-unit
// plumbing added beyond the paper's core artifact.
#include <gtest/gtest.h>

#include "ccg/parser.hpp"
#include "core/sage.hpp"
#include "corpus/rfc792.hpp"
#include "corpus/rfc793.hpp"
#include "disambig/winnower.hpp"
#include "nlp/chunker.hpp"
#include "nlp/tokenizer.hpp"

namespace sage {
namespace {

TEST(ReachProbe, TcpPredictionsHold) {
  core::Sage sage;
  for (const auto& probe : corpus::tcp_probe_sentences()) {
    rfc::SpecSentence sentence;
    sentence.text = probe.text;
    sentence.context["protocol"] = "TCP";
    const auto report = sage.analyze_sentence(sentence);
    EXPECT_EQ(report.status == core::SentenceStatus::kParsed,
              probe.expected_to_parse)
        << probe.text;
  }
}

TEST(ReachProbe, BgpPredictionsHold) {
  core::Sage sage;
  for (const auto& probe : corpus::bgp_probe_sentences()) {
    rfc::SpecSentence sentence;
    sentence.text = probe.text;
    sentence.context["protocol"] = "BGP";
    const auto report = sage.analyze_sentence(sentence);
    EXPECT_EQ(report.status == core::SentenceStatus::kParsed,
              probe.expected_to_parse)
        << probe.text;
  }
}

TEST(ReachProbe, TcpStateMachineSentenceLf) {
  core::Sage sage;
  rfc::SpecSentence sentence;
  sentence.text =
      "If the SYN bit is nonzero and the connection state is Listen, the "
      "connection state is Syn-Received.";
  sentence.context["protocol"] = "TCP";
  const auto report = sage.analyze_sentence(sentence);
  ASSERT_TRUE(report.final_form.has_value());
  EXPECT_EQ(report.final_form->to_string(),
            "@If(@And(@Nonzero(\"syn bit\"), @Is(\"connection state\", "
            "\"Listen\")), @Is(\"connection state\", \"Syn-Received\"))");
}

TEST(ReachProbe, MarginalLexiconCost) {
  // §7's claim quantified: only state-name entries were added.
  core::Sage sage;
  EXPECT_EQ(sage.lexicon().count_by_source("tcp"), 5u);
  EXPECT_EQ(sage.lexicon().count_by_source("bgp"), 3u);
}

TEST(CompoundRule, AdjacentNounsCombine) {
  core::Sage sage;
  const nlp::NounPhraseChunker chunker(&sage.dictionary());
  // Force two adjacent labeled nouns via quoting.
  const auto tokens = nlp::tokenize("the 'echo reply' 'message' is zero");
  const ccg::CcgParser parser(&sage.lexicon());
  const auto result = parser.parse(tokens);
  ASSERT_FALSE(result.forms.empty());
  bool concat_reading = false;
  for (const auto& form : result.forms) {
    if (form.to_string().find("\"echo reply message\"") != std::string::npos) {
      concat_reading = true;
    }
  }
  EXPECT_TRUE(concat_reading);
}

TEST(FallbackLabeling, UnknownContentWordsBecomeNounsWithoutDictionary) {
  core::Sage sage;
  rfc::SpecSentence sentence;
  sentence.text = "The frobnicator is zero.";
  sentence.context["protocol"] = "ICMP";
  core::SageOptions no_dict;
  no_dict.chunking = nlp::ChunkingMode::kNoDictionary;
  // "frobnicator" is unknown everywhere; without the dictionary the
  // SpaCy-style fallback still labels it a noun and the sentence parses.
  const auto report = sage.analyze_sentence(sentence, no_dict);
  EXPECT_EQ(report.base_forms, 1u);
  // With the dictionary (kFull mode), unknown words stay unknown.
  const auto strict = sage.analyze_sentence(sentence);
  EXPECT_EQ(strict.base_forms, 0u);
  ASSERT_EQ(strict.unknown_tokens.size(), 1u);
  EXPECT_EQ(strict.unknown_tokens[0], "frobnicator");
}

TEST(CheckOrder, FamiliesComposeToTheSameSurvivors) {
  // apply_family composed in the canonical order must agree with winnow().
  core::Sage sage;
  sage.annotate_non_actionable(corpus::icmp_non_actionable_annotations());
  rfc::SpecSentence sentence;
  sentence.text =
      "If code = 0, an identifier to aid in matching echos and replies, "
      "may be zero.";
  sentence.context["protocol"] = "ICMP";
  sentence.context["message"] = "Echo or Echo Reply Message";
  sentence.context["field"] = "Identifier";
  const auto report = sage.analyze_sentence(sentence);

  std::vector<lf::LogicalForm> forms = report.base_candidates;
  for (const auto family :
       {disambig::CheckFamily::kType, disambig::CheckFamily::kArgumentOrdering,
        disambig::CheckFamily::kPredicateOrdering,
        disambig::CheckFamily::kDistributivity,
        disambig::CheckFamily::kAssociativity}) {
    forms = sage.winnower().apply_family(family, std::move(forms));
  }
  ASSERT_EQ(forms.size(), report.winnow.survivors.size());
  for (std::size_t i = 0; i < forms.size(); ++i) {
    EXPECT_EQ(forms[i], report.winnow.survivors[i]);
  }
}

}  // namespace
}  // namespace sage
