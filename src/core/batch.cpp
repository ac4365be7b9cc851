#include "core/batch.hpp"

namespace sage::core {

std::string protocol_run_signature(const ProtocolRun& run) {
  std::string out;
  out += "document: " + run.document.title + "\n";
  out += "sections: " + std::to_string(run.document.sections.size()) + "\n";
  for (const SentenceReport& report : run.reports) {
    out += "sentence: " + report.sentence.text + "\n";
    for (const auto& [key, value] : report.sentence.context) {
      out += "  ctx " + key + "=" + value + "\n";
    }
    out += "  status: " + sentence_status_name(report.status) + "\n";
    out += "  base_forms: " + std::to_string(report.base_forms) + "\n";
    for (const auto& candidate : report.base_candidates) {
      out += "  candidate: " + candidate.to_string() + "\n";
    }
    for (const auto& stage : report.winnow.stages) {
      out += "  stage " + stage.stage + ": " +
             std::to_string(stage.remaining) + "\n";
    }
    for (const auto& [check, removed] : report.winnow.removed_by_check) {
      out += "  removed " + check + ": " + std::to_string(removed) + "\n";
    }
    for (const auto& survivor : report.winnow.survivors) {
      out += "  survivor: " + survivor.to_string() + "\n";
    }
    if (report.final_form) {
      out += "  final: " + report.final_form->to_string() + "\n";
    }
    for (const auto& unknown : report.unknown_tokens) {
      out += "  unknown: " + unknown + "\n";
    }
    out += "  structural_context: ";
    out += report.used_structural_context ? "yes\n" : "no\n";
  }
  for (const auto& function : run.functions) {
    out += "function: " + function.name + " [" + function.protocol + "/" +
           function.message + "/" + function.role + "]\n";
    out += function.c_source + "\n";
  }
  for (const auto& discovered : run.discovered_non_actionable) {
    out += "discovered: " + discovered + "\n";
  }
  return out;
}

}  // namespace sage::core
