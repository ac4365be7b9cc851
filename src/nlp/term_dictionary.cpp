#include "nlp/term_dictionary.hpp"

#include "util/strings.hpp"

namespace sage::nlp {

void TermDictionary::add(std::string_view term) {
  // Single spaces between words: a chunker candidate grows by " " plus a
  // word, so every candidate that can still become a term is a prefix
  // marked here.
  const std::vector<std::string> words =
      util::split(util::to_lower(term), " \t\r\n\f\v");
  if (words.empty()) return;
  max_words_ = std::max(max_words_, words.size());
  std::string key = words[0];
  for (std::size_t i = 1; i < words.size(); ++i) {
    phrases_[key].prefix = true;
    key += ' ';
    key += words[i];
  }
  Match& entry = phrases_[key];
  if (!entry.term) ++term_count_;
  entry.term = true;
}

void TermDictionary::add_all(const std::vector<std::string>& terms) {
  for (const auto& t : terms) add(t);
}

bool TermDictionary::contains(std::string_view term) const {
  return match(util::to_lower(util::trim(term))).term;
}

TermDictionary::Match TermDictionary::match(std::string_view phrase) const {
  const auto it = phrases_.find(phrase);
  return it == phrases_.end() ? Match{} : it->second;
}

std::vector<std::string> TermDictionary::terms() const {
  std::vector<std::string> out;
  for (const auto& [phrase, match] : phrases_) {
    if (match.term) out.push_back(phrase);
  }
  return out;
}

}  // namespace sage::nlp
