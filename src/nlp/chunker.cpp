#include "nlp/chunker.hpp"

#include "util/strings.hpp"

namespace sage::nlp {

const std::unordered_set<std::string>& default_generic_nouns() {
  // The generic-English noun vocabulary of the evaluated RFC sections.
  // SpaCy would tag these as NOUN; keeping the list explicit makes the
  // kNoDictionary ablation deterministic.
  static const std::unordered_set<std::string> kNouns = {
      "address",      "addresses",   "gateway",     "network",
      "datagram",     "datagrams",   "data",        "header",
      "headers",      "message",     "messages",    "packet",
      "packets",      "checksum",    "code",        "type",
      "field",        "fields",      "value",       "values",
      "identifier",   "sequence",    "number",      "numbers",
      "octet",        "octets",      "bit",         "bits",
      "byte",         "bytes",       "error",       "errors",
      "source",       "destination", "sender",      "receiver",
      "reply",        "replies",     "request",     "requests",
      "echo",         "echos",       "echoes",      "timestamp",
      "timestamps",   "time",        "host",        "hosts",
      "router",       "internet",    "protocol",    "port",
      "ports",        "pointer",     "parameter",   "problem",
      "quench",       "redirect",    "information", "session",
      "sessions",     "system",      "systems",     "state",
      "variable",     "variables",   "mode",        "interval",
      "transmission", "detection",   "procedure",   "timer",
      "timeout",      "peer",        "server",      "client",
      "clock",        "stratum",     "version",     "report",
      "query",        "group",       "membership",  "traffic",
      "options",      "option",      "length",      "buffer",
      "space",        "level",       "complement",  "sum",
      "fragment",     "discriminator",
  };
  return kNouns;
}

std::vector<Token> NounPhraseChunker::chunk(const std::vector<Token>& tokens,
                                            ChunkingMode mode) const {
  if (mode == ChunkingMode::kNoLabeling) return tokens;

  const auto& generic = default_generic_nouns();
  std::vector<Token> out;
  std::string candidate;  // lowercase words of the span, one space apart
  std::size_t i = 0;
  while (i < tokens.size()) {
    const Token& tok = tokens[i];
    if (tok.kind != TokenKind::kWord) {
      out.push_back(tok);
      ++i;
      continue;
    }

    // Longest dictionary phrase starting here (kFull only). The candidate
    // starts at a word, so it has no leading space, and terms are
    // single-spaced: once it is neither a term nor a prefix of one, no
    // longer span can match. A term alone does not stop the search: an
    // empty or all-space quoted phrase after it trims away.
    if (mode == ChunkingMode::kFull && dictionary_ != nullptr) {
      const std::size_t max_span =
          std::min(dictionary_->max_words(), tokens.size() - i);
      std::size_t best = 0;
      candidate.clear();
      for (std::size_t span = 1; span <= max_span; ++span) {
        const Token& part = tokens[i + span - 1];
        if (part.kind != TokenKind::kWord &&
            part.kind != TokenKind::kNumber &&
            part.kind != TokenKind::kNounPhrase) {
          break;  // phrases never cross punctuation
        }
        if (span > 1) candidate += ' ';
        candidate += part.lower;
        const auto match = dictionary_->match(util::trim(candidate));
        if (match.term) best = span;
        if (!match.term && !match.prefix) break;
      }
      if (best > 0) {
        std::string text = tok.text;
        for (std::size_t k = 1; k < best; ++k) {
          text += ' ';
          text += tokens[i + k].text;
        }
        out.push_back(make_noun_phrase(text));
        i += best;
        continue;
      }
    }

    // Generic single-word noun (the SpaCy role).
    if (generic.count(tok.lower) != 0) {
      out.push_back(make_noun_phrase(tok.text));
      ++i;
      continue;
    }

    // Without the domain dictionary, open-class words default to nouns
    // (SpaCy tags unknown content words as NOUN/PROPN); closed-class
    // words — those the grammar has entries for — keep their identity.
    if (mode == ChunkingMode::kNoDictionary && closed_class_ != nullptr &&
        closed_class_->count(tok.lower) == 0) {
      out.push_back(make_noun_phrase(tok.text));
      ++i;
      continue;
    }

    out.push_back(tok);
    ++i;
  }
  return out;
}

}  // namespace sage::nlp
