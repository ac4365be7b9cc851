// The SAGE pipeline (Figure 1): parsing -> disambiguation -> code
// generation, with the human-in-the-loop feedback points the paper
// describes (Figure 4): sentences that still carry 0 or >1 logical forms
// after winnowing are flagged for rewriting; sentences that parse but
// fail code generation are iteratively discovered as non-actionable and
// tagged @AdvComment.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "ccg/lexicon.hpp"
#include "ccg/parse_cache.hpp"
#include "ccg/parser.hpp"
#include "codegen/context.hpp"
#include "codegen/generator.hpp"
#include "codegen/handlers.hpp"
#include "codegen/lowering.hpp"
#include "disambig/winnower.hpp"
#include "nlp/chunker.hpp"
#include "nlp/term_dictionary.hpp"
#include "rfc/preprocessor.hpp"

namespace sage::core {

/// Outcome classification for one sentence instance.
enum class SentenceStatus {
  kParsed,         // exactly one logical form after winnowing
  kZeroForms,      // no sentence-level parse even with structural context
  kAmbiguous,      // >1 logical forms survive winnowing: rewrite needed
  kNonActionable,  // tagged @AdvComment (annotated or discovered)
};

std::string sentence_status_name(SentenceStatus status);

/// Full per-sentence record: counts at every stage, for the evaluation
/// benches (Figures 5/6, Tables 6/8).
struct SentenceReport {
  rfc::SpecSentence sentence;
  std::size_t base_forms = 0;  // logical forms before winnowing
  /// The pre-winnowing candidate set (Figure 5's "Base"; Figure 6 applies
  /// each check family to this set in isolation).
  std::vector<lf::LogicalForm> base_candidates;
  disambig::WinnowResult winnow;
  SentenceStatus status = SentenceStatus::kZeroForms;
  std::optional<lf::LogicalForm> final_form;
  std::vector<std::string> unknown_tokens;
  bool used_structural_context = false;  // fragment re-parsed with field subject
};

/// Result of processing one RFC.
struct ProtocolRun {
  rfc::RfcDocument document;
  std::vector<SentenceReport> reports;
  std::vector<codegen::GeneratedFunction> functions;
  /// Sentences auto-discovered as non-actionable this run (code
  /// generation failed; tagged @AdvComment for the next pass).
  std::vector<std::string> discovered_non_actionable;
  /// "layer.field" names the code generator could not resolve against
  /// the packet-schema registry (deduplicated across functions). These
  /// execute through the interpreter's string path instead of dense-id
  /// dispatch; not rendered anywhere, so run signatures are unaffected.
  std::vector<std::string> unresolved_fields;
  /// Parse-cache activity attributable to this run (hits/misses/
  /// evictions that happened while it executed). Zero when the cache is
  /// disabled.
  ccg::ParseCacheStats cache;
  /// Generated-code execution counters at the end of this run
  /// (codegen/lowering.hpp). Process-wide monotonic totals — programs
  /// compiled, VM ops retired, tree statements stepped — snapshotted
  /// here so callers (sage_debug --parse-stats) can report backend
  /// activity without reaching into the runtime.
  codegen::ExecStats exec;

  std::size_t count(SentenceStatus status) const;
};

/// Pipeline configuration (ablations for Tables 7/8).
struct SageOptions {
  /// kNoDictionary is Table 8's "no dictionary" row, kNoLabeling its
  /// "no noun-phrase labeling" row.
  nlp::ChunkingMode chunking = nlp::ChunkingMode::kFull;
  ccg::ParserOptions parser;
};

class Sage {
 public:
  Sage();

  /// Mark sentences as non-actionable ahead of a run (the annotations a
  /// previous run discovered, or a human supplied).
  void annotate_non_actionable(const std::vector<std::string>& sentences);

  /// Parse + winnow a single sentence with explicit dynamic context.
  SentenceReport analyze_sentence(const rfc::SpecSentence& sentence,
                                  const SageOptions& options = {}) const;

  /// Run the full pipeline over an RFC text: pre-process, analyze every
  /// sentence, generate one function per (message, role), auto-discover
  /// non-actionable sentences (one iterative pass, per §5.2).
  ProtocolRun process(const std::string& rfc_text, const std::string& protocol,
                      const SageOptions& options = {});

  /// The parse memoization cache. Enabled by default; share one across
  /// Sage instances (the serve daemon does) to reuse parses between
  /// documents, or set nullptr to disable memoization entirely.
  const std::shared_ptr<ccg::ParseCache>& parse_cache() const {
    return parse_cache_;
  }
  void set_parse_cache(std::shared_ptr<ccg::ParseCache> cache) {
    parse_cache_ = std::move(cache);
  }

  // -- component access for benches and examples ---------------------------
  // Every Sage reads the same process-wide standard grammar.
  const ccg::Lexicon& lexicon() const { return grammar_->lexicon; }
  const nlp::TermDictionary& dictionary() const { return grammar_->dictionary; }
  const disambig::Winnower& winnower() const { return grammar_->winnower; }
  const codegen::HandlerRegistry& handlers() const {
    return grammar_->handlers;
  }
  const codegen::StaticContext& static_context() const {
    return grammar_->statics;
  }

  /// Roles a message section generates functions for. Echo/timestamp/
  /// information messages have sender and receiver behaviour; error
  /// messages only a sender.
  static std::vector<std::string> roles_for_message(const std::string& message);

  /// Which roles a sentence applies to ("to form an X reply" sentences
  /// describe the receiver; §5.2's role encoding).
  static std::vector<std::string> roles_for_sentence(const std::string& text,
                                                     const std::string& message);

 private:
  /// Parse (+ structural-context retry) for one sentence, memoized when
  /// the parse cache is enabled.
  ccg::CachedParse parse_with_context(const std::vector<nlp::Token>& tokens,
                                      const std::string& field,
                                      const ccg::ParserOptions& options) const;

  /// The standard grammar: built once per process on first use (a
  /// thread-safe static) and read-only after, so every Sage shares its
  /// interned lexicon terms and, through them, the combinator memo.
  struct Grammar {
    ccg::Lexicon lexicon;
    nlp::TermDictionary dictionary;
    std::unordered_set<std::string> closed_class;  // the lexicon's words
    disambig::Winnower winnower;
    codegen::HandlerRegistry handlers;
    codegen::StaticContext statics;

    static const Grammar& standard();
  };

  const Grammar* grammar_;
  std::set<std::string> non_actionable_;
  std::shared_ptr<ccg::ParseCache> parse_cache_;
};

}  // namespace sage::core
