#include "core/sage.hpp"

#include <algorithm>

#include "corpus/lexicon_data.hpp"
#include "corpus/terms.hpp"
#include "disambig/checks.hpp"
#include "util/strings.hpp"

namespace sage::core {

std::string sentence_status_name(SentenceStatus status) {
  switch (status) {
    case SentenceStatus::kParsed: return "parsed";
    case SentenceStatus::kZeroForms: return "zero-forms";
    case SentenceStatus::kAmbiguous: return "ambiguous";
    case SentenceStatus::kNonActionable: return "non-actionable";
  }
  return "?";
}

std::size_t ProtocolRun::count(SentenceStatus status) const {
  return static_cast<std::size_t>(
      std::count_if(reports.begin(), reports.end(),
                    [status](const SentenceReport& r) {
                      return r.status == status;
                    }));
}

const Sage::Grammar& Sage::Grammar::standard() {
  // Immortal like the intern tables it points into: no destruction at
  // exit under a thread that is still processing.
  static const Grammar* const grammar = [] {
    auto* g = new Grammar{corpus::make_lexicon(),
                          corpus::make_term_dictionary(),
                          {},
                          disambig::Winnower(disambig::all_checks()),
                          codegen::HandlerRegistry::standard(),
                          codegen::StaticContext::standard()};
    for (auto& word : g->lexicon.words()) {
      g->closed_class.insert(std::move(word));
    }
    return g;
  }();
  return *grammar;
}

Sage::Sage()
    : grammar_(&Grammar::standard()),
      parse_cache_(std::make_shared<ccg::ParseCache>()) {}

void Sage::annotate_non_actionable(const std::vector<std::string>& sentences) {
  for (const auto& s : sentences) {
    non_actionable_.insert(util::to_lower(util::trim(s)));
  }
}

std::vector<std::string> Sage::roles_for_message(const std::string& message) {
  const std::string lower = util::to_lower(message);
  if (lower.find("echo") != std::string::npos ||
      lower.find("timestamp") != std::string::npos ||
      lower.find("information") != std::string::npos) {
    return {"sender", "receiver"};
  }
  return {"sender"};
}

std::vector<std::string> Sage::roles_for_sentence(const std::string& text,
                                                  const std::string& message) {
  const std::string lower = util::to_lower(text);
  const auto roles = roles_for_message(message);
  if (roles.size() == 1) return roles;
  // Role markers (§5.2: "Whether a logical form applies to the sender or
  // the receiver is also encoded in the context dictionary"):
  //   * "To form an X reply ..." / "In the X reply message, ..." /
  //     "... must be returned ..." describe the responder;
  //   * sentences about "the sender" bind the sender;
  //   * sentences about "the echoer" bind the responder.
  if (lower.find("to form") != std::string::npos ||
      lower.find("returned") != std::string::npos ||
      lower.find("echoer") != std::string::npos ||
      (util::starts_with(lower, "in the") &&
       lower.find("reply message") != std::string::npos)) {
    return {"receiver"};
  }
  if (lower.find("sender") != std::string::npos) {
    return {"sender"};
  }
  return roles;
}

SentenceReport Sage::analyze_sentence(const rfc::SpecSentence& sentence,
                                      const SageOptions& options) const {
  SentenceReport report;
  report.sentence = sentence;

  // Annotated non-actionable sentences skip parsing entirely: their
  // logical form is @AdvComment (§5.2).
  if (non_actionable_.count(util::to_lower(util::trim(sentence.text))) != 0) {
    report.status = SentenceStatus::kNonActionable;
    report.final_form = lf::LfNode::predicate(
        std::string(lf::pred::kAdvComment), {lf::LfNode::str(sentence.text)});
    return report;
  }

  // Tokenize + noun-phrase labeling.
  const nlp::NounPhraseChunker chunker(&grammar_->dictionary,
                                       &grammar_->closed_class);
  const auto tokens =
      chunker.chunk(nlp::tokenize(sentence.text), options.chunking);

  const auto field_it = sentence.context.find("field");
  const std::string field =
      field_it == sentence.context.end() ? "" : field_it->second;

  // CCG parsing + structural-context retry, memoized.
  ccg::CachedParse parsed = parse_with_context(tokens, field, options.parser);
  report.unknown_tokens = std::move(parsed.unknown_tokens);
  report.used_structural_context = parsed.used_structural_context;

  report.base_forms = parsed.candidates.size();
  report.base_candidates = parsed.candidates;
  report.winnow = grammar_->winnower.winnow(parsed.candidates);

  if (report.winnow.survivors.empty()) {
    report.status = SentenceStatus::kZeroForms;
  } else if (report.winnow.survivors.size() > 1) {
    report.status = SentenceStatus::kAmbiguous;
  } else {
    report.status = SentenceStatus::kParsed;
    report.final_form = report.winnow.survivors[0];
  }
  return report;
}

ccg::CachedParse Sage::parse_with_context(
    const std::vector<nlp::Token>& tokens, const std::string& field,
    const ccg::ParserOptions& options) const {
  std::string key;
  if (parse_cache_ != nullptr) {
    // Dynamic-context fingerprint: the structural "field" subject is the
    // only context the parse stage folds in (chunking choices are
    // already reflected in the token sequence itself).
    key = ccg::ParseCache::key_of(tokens, "field=" + util::to_lower(field),
                                  options);
    if (auto cached = parse_cache_->lookup(key)) return *std::move(cached);
  }

  ccg::CachedParse out;
  const ccg::CcgParser parser(&grammar_->lexicon, options);
  auto parsed = parser.parse(tokens);
  out.unknown_tokens = std::move(parsed.unknown_tokens);

  std::vector<lf::LogicalForm>& candidates = out.candidates;
  candidates = std::move(parsed.forms);

  // Zero sentence-level parses: supply the subject from structural
  // context (§4.1 "Causes of ambiguities: zero logical forms"). A field
  // description fragment becomes "<field> is <fragment>".
  if (candidates.empty() && !field.empty()) {
    if (!parsed.fragments.empty()) {
      // Fragment (examples A/B): the whole sentence is a noun phrase
      // describing the field's value — "<field> is <fragment>".
      out.used_structural_context = true;
      for (const auto& fragment : parsed.fragments) {
        candidates.push_back(lf::LfNode::predicate(
            std::string(lf::pred::kIs),
            {lf::LfNode::str(util::to_lower(field)), fragment}));
      }
    } else {
      // Clause missing its subject (example C: "If code = 0, identifies
      // the octet ..."): re-parse with the field supplied as subject,
      // trying the start of the sentence and each post-comma position.
      std::vector<std::size_t> positions = {0};
      for (std::size_t i = 0; i < tokens.size(); ++i) {
        if (tokens[i].kind == nlp::TokenKind::kPunct && tokens[i].text == ",") {
          positions.push_back(i + 1);
        }
      }
      for (const std::size_t pos : positions) {
        std::vector<nlp::Token> with_subject = tokens;
        with_subject.insert(with_subject.begin() + static_cast<long>(pos),
                            nlp::make_noun_phrase(util::to_lower(field)));
        auto retry = parser.parse(with_subject);
        // Structural context tells us the sentence *describes* this
        // field: readings that instead test the field in the condition
        // contradict the document structure and are dropped.
        const std::string field_lower = util::to_lower(field);
        // Explicit-stack search (forms can nest deeply; recursion via
        // std::function also allocates per level).
        const auto mentions = [&field_lower](const lf::LfNode& root) {
          std::vector<const lf::LfNode*> stack = {&root};
          while (!stack.empty()) {
            const lf::LfNode* n = stack.back();
            stack.pop_back();
            if (n->is_string() && n->label == field_lower) return true;
            for (const auto& a : n->args) stack.push_back(&a);
          }
          return false;
        };
        std::vector<lf::LogicalForm> filtered;
        for (auto& form : retry.forms) {
          if (form.is_predicate(lf::pred::kIf) && form.args.size() == 2 &&
              mentions(form.args[0]) && !mentions(form.args[1])) {
            continue;
          }
          filtered.push_back(std::move(form));
        }
        if (!filtered.empty()) {
          out.used_structural_context = true;
          candidates = std::move(filtered);
          break;
        }
      }
    }
  }

  if (parse_cache_ != nullptr) parse_cache_->insert(key, out);
  return out;
}

ProtocolRun Sage::process(const std::string& rfc_text,
                          const std::string& protocol,
                          const SageOptions& options) {
  ProtocolRun run;
  const ccg::ParseCacheStats before =
      parse_cache_ == nullptr ? ccg::ParseCacheStats{} : parse_cache_->stats();
  run.document = rfc::preprocess(rfc_text, protocol);
  const auto sentences = rfc::extract_sentences(run.document, protocol);

  // Stage 1+2: parse and winnow every sentence instance, in document
  // order.
  run.reports.reserve(sentences.size());
  for (const auto& sentence : sentences) {
    run.reports.push_back(analyze_sentence(sentence, options));
  }

  // Group winnowed forms per (message, role), in document order.
  std::map<std::string, std::vector<codegen::SentenceLf>> per_function;
  for (std::size_t i = 0; i < sentences.size(); ++i) {
    const auto& sentence = sentences[i];
    const SentenceReport& report = run.reports[i];
    if (!report.final_form) continue;

    const auto message_it = sentence.context.find("message");
    const std::string message =
        message_it == sentence.context.end() ? "" : message_it->second;
    for (const auto& role : roles_for_sentence(sentence.text, message)) {
      codegen::SentenceLf entry;
      entry.form = *report.final_form;
      entry.context = codegen::DynamicContext::from_map(sentence.context);
      entry.context.role = role;
      entry.sentence = sentence.text;
      per_function[message + "\x1f" + role].push_back(std::move(entry));
    }
  }

  // Stage 3: code generation, with one iterative-discovery pass: any
  // sentence that fails conversion is tagged @AdvComment and the
  // function is regenerated (§5.2 "Iterative discovery of non-actionable
  // sentences").
  const codegen::CodeGenerator generator(&grammar_->statics,
                                         &grammar_->handlers);
  for (auto& [key, sentence_lfs] : per_function) {
    const auto sep = key.find('\x1f');
    const std::string message = key.substr(0, sep);
    const std::string role = key.substr(sep + 1);

    auto outcome = generator.generate(protocol, message, role, sentence_lfs);
    if (!outcome.failed_sentences.empty()) {
      for (const auto& failed : outcome.failed_sentences) {
        run.discovered_non_actionable.push_back(failed);
        non_actionable_.insert(util::to_lower(util::trim(failed)));
        for (auto& entry : sentence_lfs) {
          if (entry.sentence == failed) {
            entry.form = lf::LfNode::predicate(
                std::string(lf::pred::kAdvComment),
                {lf::LfNode::str(failed)});
          }
        }
        // Reflect the discovery in the per-sentence reports.
        for (auto& report : run.reports) {
          if (report.sentence.text == failed) {
            report.status = SentenceStatus::kNonActionable;
          }
        }
      }
      outcome = generator.generate(protocol, message, role, sentence_lfs);
    }
    if (outcome.function) {
      run.functions.push_back(std::move(*outcome.function));
    }
    for (auto& name : outcome.unresolved_fields) {
      if (std::find(run.unresolved_fields.begin(), run.unresolved_fields.end(),
                    name) == run.unresolved_fields.end()) {
        run.unresolved_fields.push_back(std::move(name));
      }
    }
  }

  // Deduplicate discovered sentences (a sentence may feed two roles).
  std::sort(run.discovered_non_actionable.begin(),
            run.discovered_non_actionable.end());
  run.discovered_non_actionable.erase(
      std::unique(run.discovered_non_actionable.begin(),
                  run.discovered_non_actionable.end()),
      run.discovered_non_actionable.end());

  if (parse_cache_ != nullptr) {
    const ccg::ParseCacheStats after = parse_cache_->stats();
    run.cache.hits = after.hits - before.hits;
    run.cache.misses = after.misses - before.misses;
    run.cache.evictions = after.evictions - before.evictions;
  }
  run.exec = codegen::exec_stats();
  return run;
}

}  // namespace sage::core
