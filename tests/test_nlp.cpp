// Tests for the NLP layer: tokenizer, sentence splitter, term dictionary,
// and noun-phrase chunker (including the Table 7/8 labeling modes).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string_view>

#include "corpus/lexicon_data.hpp"
#include "corpus/spec_corpora.hpp"
#include "corpus/terms.hpp"
#include "nlp/chunker.hpp"
#include "nlp/sentence_splitter.hpp"
#include "nlp/term_dictionary.hpp"
#include "nlp/tokenizer.hpp"
#include "rfc/preprocessor.hpp"
#include "util/rng.hpp"

namespace sage::nlp {
namespace {

TEST(Tokenizer, SplitsWordsAndPunct) {
  const auto toks = tokenize("The checksum is zero.");
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[0].lower, "the");
  EXPECT_EQ(toks[3].lower, "zero");
}

TEST(Tokenizer, EqualsSignIsAToken) {
  const auto toks = tokenize("If code = 0, the type is 3");
  // if code = 0 , the type is 3
  ASSERT_EQ(toks.size(), 9u);
  EXPECT_EQ(toks[2].kind, TokenKind::kPunct);
  EXPECT_EQ(toks[2].text, "=");
  EXPECT_EQ(toks[3].kind, TokenKind::kNumber);
  EXPECT_EQ(toks[3].number, 0);
  EXPECT_EQ(toks[4].kind, TokenKind::kPunct);
  EXPECT_EQ(toks[4].text, ",");
}

TEST(Tokenizer, KeepsHyphensApostrophesAndDottedIdentifiers) {
  const auto toks = tokenize("the 16-bit one's complement of bfd.SessionState");
  ASSERT_EQ(toks.size(), 6u);
  EXPECT_EQ(toks[1].lower, "16-bit");
  EXPECT_EQ(toks[2].lower, "one's");
  EXPECT_EQ(toks[5].lower, "bfd.sessionstate");
}

TEST(Tokenizer, QuotedPhraseBecomesNounPhrase) {
  const auto toks = tokenize("the 'echo reply message' is valid");
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[1].kind, TokenKind::kNounPhrase);
  EXPECT_EQ(toks[1].lower, "echo reply message");
}

TEST(Tokenizer, NumbersParsed) {
  const auto toks = tokenize("changed to 16");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[2].kind, TokenKind::kNumber);
  EXPECT_EQ(toks[2].number, 16);
}

TEST(Tokenizer, RoundTripRendering) {
  const auto toks = tokenize("checksum is zero");
  EXPECT_EQ(tokens_to_string(toks), "checksum is zero");
}

TEST(SentenceSplitter, SplitsOnSentenceDots) {
  const auto sents = split_sentences(
      "The checksum is zero. The code is one. It may be replaced.");
  ASSERT_EQ(sents.size(), 3u);
  EXPECT_EQ(sents[0], "The checksum is zero.");
}

TEST(SentenceSplitter, KeepsAbbreviationsAndIdentifiers) {
  const auto sents = split_sentences(
      "Use the value (e.g. zero) in bfd.SessionState. Send it.");
  ASSERT_EQ(sents.size(), 2u);
  EXPECT_NE(sents[0].find("e.g. zero"), std::string::npos);
  EXPECT_NE(sents[0].find("bfd.SessionState"), std::string::npos);
}

TEST(SentenceSplitter, KeepsDottedQuads) {
  const auto sents =
      split_sentences("The router owns 10.0.1.1 on that subnet. Done.");
  ASSERT_EQ(sents.size(), 2u);
}

TEST(TermDictionary, CaseInsensitiveMultiWord) {
  TermDictionary dict;
  dict.add("Echo Reply Message");
  EXPECT_TRUE(dict.contains("echo reply message"));
  EXPECT_TRUE(dict.contains("ECHO REPLY MESSAGE"));
  EXPECT_FALSE(dict.contains("echo reply"));
  EXPECT_EQ(dict.max_words(), 3u);
  EXPECT_EQ(dict.size(), 1u);
}

TEST(TermDictionary, AddAllAndTerms) {
  TermDictionary dict;
  dict.add_all({"checksum", "internet header"});
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.terms().size(), 2u);
}

TEST(TermDictionary, MatchAnswersTermAndPrefixInOneProbe) {
  TermDictionary dict;
  dict.add_all({"  Echo Reply Message ", "checksum", "source address",
                "source"});
  // A term that is no prefix.
  EXPECT_TRUE(dict.match("checksum").term);
  EXPECT_FALSE(dict.match("checksum").prefix);
  // Proper prefixes of a term whose word prefixes are not terms.
  EXPECT_FALSE(dict.match("echo").term);
  EXPECT_TRUE(dict.match("echo").prefix);
  EXPECT_FALSE(dict.match("echo reply").term);
  EXPECT_TRUE(dict.match("echo reply").prefix);
  EXPECT_TRUE(dict.match("echo reply message").term);
  EXPECT_FALSE(dict.match("echo reply message").prefix);
  // Both.
  EXPECT_TRUE(dict.match("source").term);
  EXPECT_TRUE(dict.match("source").prefix);
  // Neither: not on a word boundary, not a prefix, or not normalized.
  for (const std::string_view phrase :
       {"echo rep", "reply message", "checksums", "echo reply ", "Checksum"}) {
    EXPECT_FALSE(dict.match(phrase).term) << phrase;
    EXPECT_FALSE(dict.match(phrase).prefix) << phrase;
  }
  // contains() keeps its trimmed, case-insensitive contract; only terms
  // count toward size() and terms().
  EXPECT_TRUE(dict.contains(" ECHO REPLY MESSAGE\t"));
  EXPECT_FALSE(dict.contains("echo reply"));
  EXPECT_EQ(dict.size(), 4u);
  EXPECT_EQ(dict.terms().size(), 4u);
}

TEST(TermDictionary, AddCollapsesWhitespaceRunsToSingleSpaces) {
  // The chunker's early exit relies on one space between a term's words.
  TermDictionary dict;
  dict.add("echo   reply\tmessage");
  EXPECT_TRUE(dict.contains("echo reply message"));
  EXPECT_FALSE(dict.contains("echo   reply\tmessage"));
  EXPECT_TRUE(dict.match("echo reply").prefix);
  EXPECT_EQ(dict.max_words(), 3u);
  dict.add("Echo Reply Message");
  EXPECT_EQ(dict.size(), 1u);
  dict.add(" \t ");
  EXPECT_EQ(dict.size(), 1u);
}

class ChunkerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dict_.add_all({"echo reply message", "internet header", "checksum",
                   "source address", "destination address"});
  }
  TermDictionary dict_;
};

TEST(Chunker, StopsEarlyOnlyWhereNoLongerSpanCanMatch) {
  // Against a longest match that probes every span up to max_words(), on
  // seeded sentences mixing terms, prefixes of terms, punctuation and
  // quoted phrases that are empty or carry edge spaces. None of the words
  // is a generic noun, so words outside the dictionary pass through.
  TermDictionary dict;
  dict.add_all({"alpha", "alpha beta gamma delta", "beta gamma", "gamma",
                "delta epsilon", "epsilon"});
  const auto exhaustive = [&dict](const std::vector<Token>& tokens) {
    std::vector<Token> out;
    for (std::size_t i = 0; i < tokens.size();) {
      std::size_t best = 0;
      std::string candidate, text, best_text;
      const std::size_t max_span = std::min(dict.max_words(), tokens.size() - i);
      for (std::size_t span = 1; tokens[i].kind == TokenKind::kWord &&
                                 span <= max_span &&
                                 tokens[i + span - 1].kind != TokenKind::kPunct;
           ++span) {
        candidate += (span > 1 ? " " : "") + tokens[i + span - 1].lower;
        text += (span > 1 ? " " : "") + tokens[i + span - 1].text;
        if (dict.contains(candidate)) {
          best = span;
          best_text = text;
        }
      }
      out.push_back(best > 0 ? make_noun_phrase(best_text) : tokens[i]);
      i += std::max<std::size_t>(best, 1);
    }
    return out;
  };
  const std::vector<std::string> pieces = {
      "alpha", "Beta", "gamma", "delta", "epsilon", "zeta", ",",
      "''",    "' '",  "'beta'", "' gamma'", "'gamma '", "'Gamma delta'"};
  const NounPhraseChunker chunker(&dict);
  util::SplitMix64 rng(7);
  for (int n = 0; n < 3000; ++n) {
    std::string sentence;
    for (std::uint64_t w = 1 + rng.below(10); w > 0; --w) {
      sentence += pieces[rng.below(pieces.size())] + " ";
    }
    const auto tokens = tokenize(sentence);
    ASSERT_EQ(chunker.chunk(tokens), exhaustive(tokens)) << sentence;
  }
}

TEST_F(ChunkerTest, LongestDictionaryMatchWins) {
  NounPhraseChunker chunker(&dict_);
  const auto toks = chunker.chunk(tokenize("the echo reply message is valid"));
  // the | 'echo reply message' | is | valid
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[1].kind, TokenKind::kNounPhrase);
  EXPECT_EQ(toks[1].lower, "echo reply message");
}

TEST_F(ChunkerTest, NoDictionaryModeLabelsSingleNouns) {
  NounPhraseChunker chunker(&dict_);
  const auto toks = chunker.chunk(tokenize("the echo reply message is valid"),
                                  ChunkingMode::kNoDictionary);
  // the | 'echo' | 'reply' | 'message' | is | valid
  ASSERT_EQ(toks.size(), 6u);
  EXPECT_EQ(toks[1].kind, TokenKind::kNounPhrase);
  EXPECT_EQ(toks[1].lower, "echo");
  EXPECT_EQ(toks[3].lower, "message");
}

TEST_F(ChunkerTest, NoLabelingModePassesThrough) {
  NounPhraseChunker chunker(&dict_);
  const auto raw = tokenize("the echo reply message is valid");
  const auto toks = chunker.chunk(raw, ChunkingMode::kNoLabeling);
  EXPECT_EQ(toks, raw);
}

TEST_F(ChunkerTest, PhrasesDoNotCrossPunctuation) {
  NounPhraseChunker chunker(&dict_);
  // "source address" must not match across the comma in "source, address".
  const auto toks = chunker.chunk(tokenize("the source, address is set"));
  bool merged = false;
  for (const auto& t : toks) {
    if (t.lower == "source address") merged = true;
  }
  EXPECT_FALSE(merged);
}

TEST_F(ChunkerTest, GenericNounsLabeledInFullMode) {
  NounPhraseChunker chunker(&dict_);
  const auto toks = chunker.chunk(tokenize("the gateway is set"));
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[1].kind, TokenKind::kNounPhrase);  // "gateway" is generic
}

TEST_F(ChunkerTest, PreLabeledNounPhrasesPreserved) {
  NounPhraseChunker chunker(&dict_);
  const auto toks = chunker.chunk(tokenize("the 'echo reply' is sent"));
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[1].kind, TokenKind::kNounPhrase);
  EXPECT_EQ(toks[1].lower, "echo reply");
}

/// FNV-1a of the chunker's output (token kinds and texts) over every
/// sentence of the six spec corpora, with the standard dictionary and the
/// lexicon's words as the closed class, as core::Sage chunks them.
std::uint64_t corpus_chunk_digest(ChunkingMode mode) {
  const TermDictionary dict = corpus::make_term_dictionary();
  std::unordered_set<std::string> closed_class;
  for (auto& word : corpus::make_lexicon().words()) {
    closed_class.insert(std::move(word));
  }
  const NounPhraseChunker chunker(&dict, &closed_class);
  std::uint64_t h = 14695981039346656037ull;
  const auto add = [&h](std::string_view s) {
    for (const unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
  };
  for (const auto& c : corpus::spec_corpora()) {
    const auto doc = rfc::preprocess(c.text, c.protocol);
    for (const auto& sentence : rfc::extract_sentences(doc, c.protocol)) {
      for (const Token& t : chunker.chunk(tokenize(sentence.text), mode)) {
        const char kind = static_cast<char>('0' + static_cast<int>(t.kind));
        add(std::string_view(&kind, 1));
        add(t.text);
        add("\x1f");
      }
      add("\n");
    }
  }
  return h;
}

TEST(Chunker, CorpusOutputPinnedInEveryMode) {
  // Recorded when the chunker probed every candidate span up to the
  // dictionary's longest term.
  EXPECT_EQ(corpus_chunk_digest(ChunkingMode::kFull), 0x130ae06b2f3a657full);
  EXPECT_EQ(corpus_chunk_digest(ChunkingMode::kNoDictionary),
            0xf0719feb00cf1dd9ull);
  EXPECT_EQ(corpus_chunk_digest(ChunkingMode::kNoLabeling),
            0xd69e4933f6094ed8ull);
}

}  // namespace
}  // namespace sage::nlp
