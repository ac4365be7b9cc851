// The CCG lexicon (§3).
//
// Maps surface words to (category, semantics) pairs, e.g.
//   is   => (S\NP)/NP : \x.\y.@Is(y, x)
//   zero => NP        : 0
// A word may carry several entries — that multiplicity is one of the two
// sources of the multiple-logical-form ambiguity the paper studies (the
// other is attachment choice in the chart).
//
// Entries are tagged with the protocol whose parsing required them, which
// reproduces the paper's incremental-lexicon-cost numbers (§6.1/§6.3:
// 71 entries for ICMP, +8 for IGMP, +5 for NTP, +15 for BFD).
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "ccg/category.hpp"
#include "ccg/term.hpp"

namespace sage::ccg {

/// One lexical entry: word => category : semantics.
struct LexEntry {
  std::string word;       // lowercase surface form
  CategoryPtr category;
  TermPtr semantics;      // closed lambda term
  std::string source;     // which protocol needed it ("core", "icmp", ...)
};

class Lexicon {
 public:
  /// Add an entry from textual category and term syntax. Throws SageError
  /// on malformed definitions (the corpus data is trusted but validated).
  /// Binder ids are numbered per lexicon, in order of addition, so every
  /// binder is unique across the lexicon's entries and two lexicons built
  /// from the same definitions hold the same interned terms.
  void add(std::string_view word, std::string_view category,
           std::string_view semantics, std::string_view source = "core");

  /// All entries for a (lowercased) word; empty if unknown.
  const std::vector<LexEntry>& lookup(std::string_view word) const;

  bool contains(std::string_view word) const;

  std::size_t size() const { return total_; }

  /// Number of entries contributed by a given source tag.
  std::size_t count_by_source(std::string_view source) const;

  /// All distinct surface words with entries (the grammar's closed-class
  /// vocabulary, used by the chunker's no-dictionary fallback).
  std::vector<std::string> words() const;

 private:
  std::map<std::string, std::vector<LexEntry>, std::less<>> entries_;
  std::size_t total_ = 0;
  VarGen binders_{kLexVarBase};
};

}  // namespace sage::ccg
