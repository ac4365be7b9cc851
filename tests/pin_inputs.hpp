// Inputs shared by the digest pins of test_disambig.cpp and
// test_codegen.cpp: every base candidate the parser hands the winnower on
// the six spec corpora, and seeded random logical forms.
#pragma once

#include <cstdint>
#include <iterator>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/sage.hpp"
#include "corpus/spec_corpora.hpp"
#include "lf/logical_form.hpp"
#include "util/rng.hpp"

namespace sage::pins {

struct Fnv1a {
  std::uint64_t h = 14695981039346656037ull;
  void add(std::string_view s) {
    for (const unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
  }
};

/// A base candidate with the dynamic context of its sentence.
struct ContextForm {
  lf::LogicalForm form;
  std::map<std::string, std::string> context;
};

/// Every base candidate the parser hands the winnower on the six spec
/// corpora, each corpus through a fresh Sage, in its sentence's context.
inline std::vector<ContextForm> corpus_base_forms_in_context() {
  std::vector<ContextForm> forms;
  for (const auto& c : corpus::spec_corpora()) {
    core::Sage sage;
    sage.annotate_non_actionable(c.annotations);
    for (auto& report : sage.process(c.text, c.protocol).reports) {
      for (auto& form : report.base_candidates) {
        forms.push_back({std::move(form), report.sentence.context});
      }
    }
  }
  return forms;
}

/// The same candidates without their contexts.
inline std::vector<lf::LogicalForm> corpus_base_forms() {
  std::vector<lf::LogicalForm> forms;
  for (auto& entry : corpus_base_forms_in_context()) {
    forms.push_back(std::move(entry.form));
  }
  return forms;
}

constexpr std::string_view kAllLabels[] = {
    lf::pred::kIs,        lf::pred::kIf,         lf::pred::kAnd,
    lf::pred::kOr,        lf::pred::kOf,         lf::pred::kIn,
    lf::pred::kAction,    lf::pred::kCompute,    lf::pred::kNum,
    lf::pred::kMay,       lf::pred::kMust,       lf::pred::kNot,
    lf::pred::kAdvBefore, lf::pred::kAdvComment, lf::pred::kSelect,
    lf::pred::kDiscard,   lf::pred::kSend,       lf::pred::kCease,
    lf::pred::kNonzero,   lf::pred::kCase,       lf::pred::kWhen,
    lf::pred::kGreater,   lf::pred::kLess,
};

/// Leaves: packet fields, bits and timers (read-only at the receiver), a
/// state variable, known and unknown function names, plain nouns.
constexpr std::string_view kLeaves[] = {
    "the state field", "the poll bit", "the detection timer",
    "bfd.sessionstate", "checksum", "type", "compute", "frobnicate",
};

inline lf::LogicalForm random_predicate(
    util::SplitMix64& rng, int depth,
    std::span<const std::string_view> leaves = kLeaves);

inline lf::LogicalForm random_node(util::SplitMix64& rng, int depth,
                                   std::span<const std::string_view> leaves) {
  if (depth == 0 || rng.chance(35)) {
    if (rng.chance(30)) return lf::LfNode::num(static_cast<long>(rng.below(3)));
    return lf::LfNode::str(std::string(leaves[rng.below(leaves.size())]));
  }
  return random_predicate(rng, depth, leaves);
}

/// A seeded random form rooted at a predicate. Most nodes take one or two
/// arguments; the rest take none or three, which the arity checks reject.
inline lf::LogicalForm random_predicate(
    util::SplitMix64& rng, int depth,
    std::span<const std::string_view> leaves) {
  std::string label(kAllLabels[rng.below(std::size(kAllLabels))]);
  const std::uint64_t arity = rng.chance(80) ? 1 + rng.below(2) : 3 * rng.below(2);
  std::vector<lf::LfNode> args;
  for (std::uint64_t i = 0; i < arity; ++i) {
    args.push_back(random_node(rng, depth - 1, leaves));
  }
  return lf::LfNode::predicate(std::move(label), std::move(args));
}

}  // namespace sage::pins
