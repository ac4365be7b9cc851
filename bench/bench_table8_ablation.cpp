// Table 8: "Effect of disabling domain-specific dictionary and
// noun-phrase labeling on number of logical forms" — the 87 RFC 792
// sentence instances under three configurations, comparing pre-winnowing
// LF counts against the full pipeline.
#include <cstdio>

#include "bench_util.hpp"
#include "core/sage.hpp"
#include "corpus/rfc792.hpp"
#include "rfc/preprocessor.hpp"

int main() {
  using namespace sage;
  benchutil::title("Table 8",
                   "ablation: domain dictionary / noun-phrase labeling");

  core::Sage sage;
  sage.annotate_non_actionable(corpus::icmp_non_actionable_annotations());
  const auto doc = rfc::preprocess(corpus::rfc792_original(), "ICMP");
  const auto sentences = rfc::extract_sentences(doc, "ICMP");

  core::SageOptions full;
  core::SageOptions no_dict;
  no_dict.chunking = nlp::ChunkingMode::kNoDictionary;
  core::SageOptions no_label;
  no_label.chunking = nlp::ChunkingMode::kNoLabeling;

  const auto measure = [&](const core::SageOptions& options) {
    std::vector<std::size_t> counts;
    counts.reserve(sentences.size());
    for (const auto& s : sentences) {
      counts.push_back(sage.analyze_sentence(s, options).base_forms);
    }
    return counts;
  };

  const auto base = measure(full);
  const auto rows = std::vector<std::pair<std::string, std::vector<std::size_t>>>{
      {"Domain-specific Dict.", measure(no_dict)},
      {"Noun-phrase Labeling", measure(no_label)},
  };

  benchutil::row("ABLATION", "Increase  Decrease  Zero   (paper)");
  benchutil::rule();
  const char* expected[] = {"17 / 0 / 0", "0 / 8 / 54"};
  int r = 0;
  for (const auto& [name, counts] : rows) {
    std::size_t inc = 0, dec = 0, zero = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] == 0 && base[i] > 0) {
        ++zero;
      } else if (counts[i] > base[i]) {
        ++inc;
      } else if (counts[i] < base[i]) {
        ++dec;
      }
    }
    char right[80];
    std::snprintf(right, sizeof right, "%-9zu %-9zu %-6zu (%s)", inc, dec,
                  zero, expected[r++]);
    benchutil::row("Removing " + name, right);
  }
  benchutil::rule();
  std::printf("Shape to hold: removing the dictionary mostly *increases*\n"
              "pre-winnowing LF counts; removing labeling zeroes out most\n"
              "sentences (words lose their lexical entries entirely).\n");
  return 0;
}
