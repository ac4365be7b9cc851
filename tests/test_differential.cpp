// Golden tests for the hash-consed, index-probed parser.
//
// Two layers of evidence that the hot-path rewrite changed the work,
// not the answer:
//
//  1. Per-sentence parse digests: every sentence of every corpus is
//     parsed with derivations on, and its forms, fragments, derivations,
//     unknown tokens and chart counters (edges created, duplicate
//     rejects, cap drops) are folded into one FNV-1a per corpus and
//     grammar. The full-grammar digests were recorded while the seed's
//     cross-product scan with string-rendered dedup keys was still in
//     the tree and produced the same bytes, so they pin the parser to it
//     sentence by sentence. The ablation digests (one combinator family
//     off, as Tables 7 and 8 parse) were recorded from the chart that
//     keyed edges on reference-counted pointers and probed the right
//     cell once per left edge.
//
//  2. Seed goldens: protocol_run_signature renders the ENTIRE pipeline
//     output (every candidate, winnow stage, survivor, final form, and
//     generated C function). The FNV-1a hashes below were captured from
//     the pre-interning seed parser; matching them proves the pipeline
//     output is byte-identical to the seed, not merely self-consistent.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ccg/parser.hpp"
#include "core/batch.hpp"
#include "core/sage.hpp"
#include "corpus/rfc1059.hpp"
#include "corpus/rfc1112.hpp"
#include "corpus/rfc5880.hpp"
#include "corpus/rfc792.hpp"
#include "corpus/rfc793.hpp"
#include "nlp/chunker.hpp"
#include "nlp/tokenizer.hpp"
#include "rfc/preprocessor.hpp"

namespace sage {
namespace {

struct Corpus {
  const char* name;
  std::string text;
  const char* protocol;
  std::vector<std::string> annotations;
  std::uint64_t seed_signature;  // FNV-1a of protocol_run_signature
  /// FNV-1a of every sentence's parse_record, derivations recorded.
  std::uint64_t parse_digest;
};

std::string sentence_corpus(const char* protocol,
                            const std::vector<std::string>& sentences) {
  std::string text = std::string(protocol) + " State Management\n\n";
  text += "   Description\n\n";
  for (const auto& s : sentences) text += "      " + s + "\n";
  return text;
}

std::vector<Corpus> corpora() {
  std::vector<std::string> tcp;
  for (const auto& probe : corpus::tcp_probe_sentences()) {
    tcp.push_back(probe.text);
  }
  return {
      {"ICMP", corpus::rfc792_original(), "ICMP",
       corpus::icmp_non_actionable_annotations(), 0x75bcb06ce22a2188ull,
       0x9c077f92334df52eull},
      {"IGMP", corpus::rfc1112_appendix_i(), "IGMP",
       corpus::igmp_non_actionable_annotations(), 0xea9c8d5e6e0fd335ull,
       0xbd4fd6a42fe42cdeull},
      {"NTP", corpus::rfc1059_appendices(), "NTP",
       corpus::ntp_non_actionable_annotations(), 0x32541b8c8ee5fe1aull,
       0xcc2562604eca6de2ull},
      {"BFD", corpus::bfd_state_document(), "BFD", {}, 0x349f5dc9ffe95c53ull,
       0x5ad8cce5103ed1c8ull},
      {"TCP", sentence_corpus("TCP", tcp), "TCP", {}, 0xcb4d07aafbb757b6ull,
       0x0ee5b4a0ffe8984aull},
  };
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// The digests were recorded when lexicon binder ids came from a
/// process-wide counter, so a rendered derivation's variable ids
/// depended on what ran earlier in the process. Ids are now numbered
/// per lexicon, but the pinned digests still hash the renumbered text.
/// Renumber every variable (an `x` plus digits that does not continue a
/// word) in order of first appearance: an alpha-renaming, so the digest
/// depends only on the parse itself.
std::string canonical_vars(const std::string& text) {
  const auto is_digit = [](char c) { return c >= '0' && c <= '9'; };
  const auto is_word = [&](char c) {
    return is_digit(c) || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           c == '_';
  };
  std::string out;
  out.reserve(text.size());
  std::unordered_map<std::string, std::size_t> ids;
  std::size_t i = 0;
  while (i < text.size()) {
    if (text[i] == 'x' && i + 1 < text.size() && is_digit(text[i + 1]) &&
        (i == 0 || !is_word(text[i - 1]))) {
      std::size_t j = i + 1;
      while (j < text.size() && is_digit(text[j])) ++j;
      const auto it =
          ids.emplace(text.substr(i + 1, j - i - 1), ids.size()).first;
      out += 'x' + std::to_string(it->second);
      i = j;
    } else {
      out += text[i++];
    }
  }
  return out;
}

/// Everything one parse observably produced, rendered as text. The
/// chart counters are included because the indexed probes must enumerate
/// exactly the pairs a full scan finds combinable: identical chart
/// contents, duplicate rejects, and cap truncations.
std::string raw_record(const ccg::ParseResult& r) {
  std::string out;
  for (const auto& f : r.forms) out += "form " + f.to_string() + "\n";
  for (const auto& f : r.fragments) out += "fragment " + f.to_string() + "\n";
  for (const auto& d : r.derivations) {
    out += "derivation\n" + d.to_string() + "\n";
  }
  for (const auto& t : r.unknown_tokens) out += "unknown " + t + "\n";
  out += "edges " + std::to_string(r.stats.edges_created) + " dedup " +
         std::to_string(r.stats.dedup_hits) + " cap " +
         std::to_string(r.stats.cap_drops) + "\n";
  return out;
}

/// raw_record with canonical variable names: what the digests pin.
std::string parse_record(const ccg::ParseResult& r) {
  return canonical_vars(raw_record(r));
}

// Layer 1: every sentence's ParseResult, derivations included, against
// the digest pinned per corpus. Each sentence is then parsed again, as
// the spec -> code loop re-parses after a rewrite: the combinator memo
// must answer every combination and reproduce the first parse exactly,
// binder ids in the derivations and every per-parse counter but its own
// included.
TEST(Differential, ReferenceAndProductionParsersAgreeByteForByte) {
  core::Sage sage;
  const nlp::NounPhraseChunker chunker(&sage.dictionary());

  std::size_t sentences_checked = 0;
  ccg::ParserOptions options;
  options.record_derivations = true;
  const ccg::CcgParser parser(&sage.lexicon(), options);
  for (const auto& corpus : corpora()) {
    std::string records;
    const rfc::RfcDocument doc = rfc::preprocess(corpus.text, corpus.protocol);
    for (const auto& sentence : rfc::extract_sentences(doc, corpus.protocol)) {
      const auto tokens = chunker.chunk(nlp::tokenize(sentence.text));
      const ccg::ParseResult first = parser.parse(tokens);
      records += sentence.text + "\n" + parse_record(first);
      ++sentences_checked;

      const ccg::ParseResult second = parser.parse(tokens);
      EXPECT_EQ(raw_record(second), raw_record(first)) << sentence.text;
      EXPECT_EQ(second.chart_edges, first.chart_edges) << sentence.text;
      EXPECT_EQ(second.stats.index_probes, first.stats.index_probes);
      EXPECT_EQ(second.stats.beta_reductions, first.stats.beta_reductions);
      EXPECT_EQ(second.stats.beta_steps, first.stats.beta_steps);
      EXPECT_EQ(second.stats.memo_misses, 0u) << sentence.text;
      EXPECT_EQ(second.stats.memo_hits,
                first.stats.memo_hits + first.stats.memo_misses);
    }
    EXPECT_EQ(fnv1a(records), corpus.parse_digest)
        << corpus.name << " parse output diverged (" << records.size()
        << " record bytes, digest 0x" << std::hex << fnv1a(records) << ")";
  }
  EXPECT_GT(sentences_checked, 100u);
}

// Layer 2: the production pipeline reproduces the seed parser's full
// rendered output on all five corpora.
TEST(Differential, ProductionPipelineMatchesSeedGoldens) {
  for (const auto& corpus : corpora()) {
    core::Sage sage;
    sage.set_parse_cache(nullptr);  // cold parses only
    sage.annotate_non_actionable(corpus.annotations);
    const core::ProtocolRun run = sage.process(corpus.text, corpus.protocol);
    const std::string signature = core::protocol_run_signature(run);
    EXPECT_EQ(fnv1a(signature), corpus.seed_signature)
        << corpus.name << " pipeline output diverged from the seed parser ("
        << signature.size() << " signature bytes)";
  }
}

}  // namespace
}  // namespace sage
