// The CCG chart parser (§3 "Running CCG").
//
// A CKY-style chart parser over CCG categories with the standard
// combinators: forward/backward application, forward/backward (harmonic)
// composition, restricted forward type-raising (NP -> S/(S\NP)), the
// binarized coordination rule (CONJ X => X\X), and the unary
// type-changing rule N -> NP.
//
// Like the nltk parser the paper builds on, this parser deliberately
// keeps EVERY derivation whose semantics differ — "it outputs zero or
// more logical forms, some of which arise from limitations in CCG, and
// some from ambiguities inherent in the sentence". Derivations with
// identical semantics (spurious ambiguity from composition/type-raising)
// are deduplicated per cell, which is the practical normal-form filter
// [Hockenmaier & Bisk] that real CCG parsers apply.
//
// Hot-path design (docs/PARSER_INTERNALS.md): categories and terms are
// hash-consed (interner.hpp), so a chart edge is two raw pointers and a
// term id, and edge dedup keys on ids instead of rendered strings. Each
// cell carries combinability indexes (by category id, by forward-slash
// result, by backward-slash argument), probed once per left-edge shape
// and pair of cells in place of the left×right cross-product scan.
// Combinator results are memoized process-wide on term ids, so a warm
// parse interns no wrapper term and a memo hit reads only its slot.
// tests/test_differential.cpp pins every corpus sentence's parse output
// to digests recorded while the seed's scan was still in the tree.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "ccg/lexicon.hpp"
#include "lf/logical_form.hpp"
#include "nlp/tokenizer.hpp"

namespace sage::ccg {

struct ParserOptions {
  /// Record full derivation trees for sentence-level parses (the
  /// Appendix B / Figure 7 output). Off by default: derivations cost
  /// memory and only the explainability surfaces need them.
  bool record_derivations = false;
  /// Per-cell edge cap; prevents pathological blowup on long sentences.
  std::size_t max_edges_per_cell = 96;
  /// Sentences longer than this are rejected (0 logical forms) — matches
  /// the practical limit the paper's parser had on very long sentences.
  std::size_t max_tokens = 48;
};

/// Hot-path counters for one parse() call (surfaced by
/// `sage_debug --parse-stats` and the parser bench).
struct ParseStats {
  std::size_t edges_created = 0;    // edges admitted to the chart
  std::size_t dedup_hits = 0;       // edges rejected as duplicates
  std::size_t cap_drops = 0;        // edges rejected by the per-cell cap
  std::size_t index_probes = 0;     // index scans, once per shape & pair
  std::size_t beta_reductions = 0;  // reducing combinations attempted
  std::size_t beta_steps = 0;       // normal-order steps, stored on hits
  std::size_t memo_hits = 0;        // combinator-memo probes answered
  std::size_t memo_misses = 0;      // probes that built and reduced
  // Chart-arena counters (util::Arena backing the chart cells). The
  // arena is thread-local and retained across parses, so reserved bytes
  // reach a steady state and further parses cost zero heap traffic for
  // chart storage.
  std::size_t arena_bytes_reserved = 0;  // chunk capacity held after this parse
  std::size_t arena_high_water = 0;      // peak live bytes in any parse so far
  std::size_t arena_resets = 0;          // lifetime resets on this thread
};

/// One node of a recorded derivation: the edge's category and semantics,
/// the combinator that built it, and its children.
struct DerivationNode {
  std::string category;
  std::string semantics;
  std::string rule;   // "lexicon 'is'", "forward application", ...
  int left = -1;      // indices into Derivation::nodes, -1 = none
  int right = -1;
};

/// A complete derivation for one sentence-level parse (Appendix B of the
/// paper shows one for "For computing the checksum, the checksum should
/// be zero").
struct Derivation {
  std::vector<DerivationNode> nodes;
  int root = -1;

  /// Indented tree rendering.
  std::string to_string() const;
};

/// Outcome of parsing one sentence.
struct ParseResult {
  /// Sentence-level (category S) logical forms, deduplicated.
  std::vector<lf::LogicalForm> forms;
  /// Full-span noun-phrase readings. Fragments (field descriptions that
  /// lack a subject, §4.1 examples A-C) land here; the pipeline re-parses
  /// them with the field name supplied as subject.
  std::vector<lf::LogicalForm> fragments;
  /// Derivation trees for `forms`, index-aligned, when
  /// ParserOptions::record_derivations is set.
  std::vector<Derivation> derivations;
  /// Total chart edges built (for the perf benches).
  std::size_t chart_edges = 0;
  /// Tokens that had no lexical entry at all (diagnosis for 0-LF results).
  std::vector<std::string> unknown_tokens;
  /// The full-span cell refused an edge at max_edges_per_cell, so
  /// `forms` and `fragments` may lack readings.
  bool full_span_capped = false;
  /// The input had more than max_tokens tokens and was not parsed.
  bool over_max_tokens = false;
  /// Hot-path counters for this parse.
  ParseStats stats;
};

/// Entries in the process-wide combinator memo every parse shares, and
/// the slot bytes it holds.
std::size_t combine_memo_size();
std::size_t combine_memo_bytes();

class CcgParser {
 public:
  /// `lexicon` must outlive the parser.
  explicit CcgParser(const Lexicon* lexicon, ParserOptions options = {})
      : lexicon_(lexicon), options_(options) {}

  ParseResult parse(const std::vector<nlp::Token>& tokens) const;

  const ParserOptions& options() const { return options_; }

 private:
  const Lexicon* lexicon_;
  ParserOptions options_;
};

}  // namespace sage::ccg
