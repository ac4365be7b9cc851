// Domain term dictionary (§3 "Specifying domain-specific syntax").
//
// The paper builds a ~400-term dictionary of networking nouns and noun
// phrases from the index of a standard networking textbook so that a
// human doesn't have to write syntactic lexical entries by hand. Our
// dictionary (seeded in src/corpus/terms.cpp) plays the same role: any
// dictionary phrase found in a sentence is collapsed into a single
// noun-phrase token before CCG parsing.
//
// One phrase table holds every term and every proper word-boundary
// prefix of a term ("echo", "echo reply" for "echo reply message"), so
// the chunker learns in one probe both whether its candidate is a term
// and whether growing it by another word could still reach one.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace sage::nlp {

class TermDictionary {
 public:
  /// What a phrase is to the dictionary.
  struct Match {
    bool term = false;    // a stored term
    bool prefix = false;  // a proper word-boundary prefix of a stored term
  };

  TermDictionary() = default;

  /// Add a term (case-insensitive); multi-word terms allowed. It is
  /// stored trimmed, lowercase, with one space between words.
  void add(std::string_view term);

  /// Add many terms at once.
  void add_all(const std::vector<std::string>& terms);

  /// Case-insensitive exact lookup; surrounding whitespace is ignored.
  bool contains(std::string_view term) const;

  /// Both flags for a phrase that is already lowercase, trimmed and
  /// single-spaced, in one probe and without copying it.
  Match match(std::string_view phrase) const;

  /// Longest number of words in any stored term (bounds chunker lookahead).
  std::size_t max_words() const { return max_words_; }

  std::size_t size() const { return term_count_; }

  /// All stored terms (lowercased), for introspection benches.
  std::vector<std::string> terms() const;

 private:
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::unordered_map<std::string, Match, Hash, std::equal_to<>> phrases_;
  std::size_t term_count_ = 0;
  std::size_t max_words_ = 0;
};

}  // namespace sage::nlp
