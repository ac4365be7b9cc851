// Quickstart: the SAGE pipeline on a single specification sentence.
//
//   $ ./quickstart
//   $ ./quickstart "If code = 0, the type is 3."
//
// Shows each stage: tokenization, noun-phrase labeling, CCG parsing
// (all logical forms), winnowing (which checks removed what), and code
// generation with the context dictionary.
#include <cstdio>
#include <string>

#include "codegen/emitter.hpp"
#include "codegen/generator.hpp"
#include "ccg/parser.hpp"
#include "core/sage.hpp"
#include "nlp/chunker.hpp"
#include "nlp/tokenizer.hpp"

int main(int argc, char** argv) {
  using namespace sage;

  const std::string sentence =
      argc > 1 ? argv[1]
               : "For computing the checksum, the checksum field should be "
                 "zero.";

  core::Sage sage;

  std::printf("SENTENCE\n  %s\n\n", sentence.c_str());

  // 1. Tokenize + label noun phrases.
  const nlp::NounPhraseChunker chunker(&sage.dictionary());
  const auto tokens = chunker.chunk(nlp::tokenize(sentence));
  std::printf("TOKENS (after noun-phrase labeling)\n  %s\n\n",
              nlp::tokens_to_string(tokens).c_str());

  // 2. Show the CCG derivation (the Appendix B / Figure 7 view).
  {
    ccg::ParserOptions options;
    options.record_derivations = true;
    const ccg::CcgParser parser(&sage.lexicon(), options);
    const auto parsed = parser.parse(tokens);
    if (!parsed.derivations.empty()) {
      std::printf("DERIVATION (first parse)\n%s\n",
                  parsed.derivations[0].to_string().c_str());
    }
  }

  // 3. Parse + winnow, with the dynamic context a real run would supply.
  rfc::SpecSentence spec;
  spec.text = sentence;
  spec.context["protocol"] = "ICMP";
  spec.context["message"] = "Echo or Echo Reply Message";
  spec.context["field"] = "Checksum";
  const auto report = sage.analyze_sentence(spec);

  std::printf("PARSING\n  %zu logical form%s before winnowing\n",
              report.base_forms, report.base_forms == 1 ? "" : "s");
  for (const auto& stage : report.winnow.stages) {
    std::printf("  after %-9s : %zu\n", stage.stage.c_str(), stage.remaining);
  }
  for (const auto& [check, removed] : report.winnow.removed_by_check) {
    std::printf("  %-40s removed %zu\n", check.c_str(), removed);
  }
  std::printf("\nSTATUS: %s\n",
              core::sentence_status_name(report.status).c_str());
  for (const auto& form : report.winnow.survivors) {
    std::printf("  LF: %s\n", form.to_string().c_str());
  }
  if (!report.unknown_tokens.empty()) {
    std::printf("  unknown words:");
    for (const auto& u : report.unknown_tokens) std::printf(" %s", u.c_str());
    std::printf("\n");
  }

  // 4. Generate code from the single surviving form.
  if (report.final_form) {
    const codegen::CodeGenerator generator(&sage.static_context());
    codegen::SentenceLf entry;
    entry.form = *report.final_form;
    entry.context = codegen::DynamicContext::from_map(spec.context);
    entry.context.role = "receiver";
    entry.sentence = sentence;
    const auto outcome = generator.generate(
        "ICMP", spec.context["message"], "receiver", {&entry, 1});
    if (outcome.function) {
      std::printf("\nGENERATED CODE\n%s", outcome.function->c_source.c_str());
    } else if (!outcome.failed_sentences.empty()) {
      std::printf("\nCODE GENERATION FAILED (non-actionable candidate):\n  %s\n",
                  outcome.diagnostics.empty() ? "no diagnostic"
                                              : outcome.diagnostics[0].c_str());
    }
  }
  return 0;
}
