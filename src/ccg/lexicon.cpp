#include "ccg/lexicon.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"

namespace sage::ccg {

void Lexicon::add(std::string_view word, std::string_view category,
                  std::string_view semantics, std::string_view source) {
  LexEntry entry;
  entry.word = util::to_lower(word);
  entry.category = Category::parse(category);
  if (!entry.category) {
    throw util::SageError("bad category '" + std::string(category) +
                          "' for lexicon word '" + std::string(word) + "'");
  }
  entry.semantics = parse_term(semantics, binders_);
  if (!entry.semantics) {
    throw util::SageError("bad semantics '" + std::string(semantics) +
                          "' for lexicon word '" + std::string(word) + "'");
  }
  entry.source = std::string(source);
  entries_[entry.word].push_back(std::move(entry));
  ++total_;
}

namespace {

/// Lexicon keys are stored lowercase. The chunker already hands the
/// parser lowercased token text, so the overwhelmingly common lookup
/// needs no case folding — detect that and probe with the borrowed
/// string_view directly (the map's std::less<> comparator is
/// transparent), allocating a lowered copy only when required.
bool has_upper(std::string_view s) {
  for (const unsigned char c : s) {
    if (c >= 'A' && c <= 'Z') return true;
  }
  return false;
}

}  // namespace

const std::vector<LexEntry>& Lexicon::lookup(std::string_view word) const {
  static const std::vector<LexEntry> kEmpty;
  const auto it =
      has_upper(word) ? entries_.find(util::to_lower(word)) : entries_.find(word);
  return it == entries_.end() ? kEmpty : it->second;
}

bool Lexicon::contains(std::string_view word) const {
  if (!has_upper(word)) return entries_.find(word) != entries_.end();
  return entries_.find(util::to_lower(word)) != entries_.end();
}

std::size_t Lexicon::count_by_source(std::string_view source) const {
  std::size_t n = 0;
  for (const auto& [word, list] : entries_) {
    for (const auto& e : list) {
      if (e.source == source) ++n;
    }
  }
  return n;
}

std::vector<std::string> Lexicon::words() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [word, list] : entries_) out.push_back(word);
  return out;
}

}  // namespace sage::ccg
