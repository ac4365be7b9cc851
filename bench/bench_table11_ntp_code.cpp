// Table 11: "NTP peer variable sentence and resulting code" — the
// timeout-procedure sentence parsed and compiled through the pipeline.
#include <cstdio>

#include "bench_util.hpp"
#include "codegen/emitter.hpp"
#include "codegen/generator.hpp"
#include "core/sage.hpp"
#include "corpus/rfc1059.hpp"

int main() {
  using namespace sage;
  benchutil::title("Table 11", "NTP peer-variable sentence -> code");

  core::Sage sage;
  rfc::SpecSentence sentence;
  sentence.text = corpus::ntp_timeout_sentence();
  sentence.context["protocol"] = "NTP";
  sentence.context["message"] = "NTP Peer Variables";

  const auto report = sage.analyze_sentence(sentence);
  std::printf("SENTENCE | %s\n", sentence.text.c_str());
  std::printf("STATUS   | %s (%zu base LF%s -> %zu)\n",
              core::sentence_status_name(report.status).c_str(),
              report.base_forms, report.base_forms == 1 ? "" : "s",
              report.winnow.survivors.size());
  if (!report.final_form) return 1;
  std::printf("LF       | %s\n", report.final_form->to_string().c_str());

  const codegen::CodeGenerator generator(&sage.static_context());
  codegen::SentenceLf entry;
  entry.form = *report.final_form;
  entry.context = codegen::DynamicContext::from_map(sentence.context);
  entry.sentence = sentence.text;
  const auto outcome = generator.generate(
      "NTP", "NTP Peer Variables", "sender", {&entry, 1});
  if (outcome.function) {
    std::printf("CODE     |\n%s", outcome.function->c_source.c_str());
  } else {
    std::printf("CODE     | <generation failed>\n");
  }
  return 0;
}
