// RFC 5880 (BFD) corpus — §4.1 packet header and the §6.8.6 state
// management sentences of the §6.4 experiment, plus the Table 5
// challenging sentences (originals that defeat the parser, and the
// human rewrites that succeed).
#pragma once

#include <string>
#include <vector>

namespace sage::corpus {

/// The §4.1 Mandatory Section header diagram and field list.
const std::string& rfc5880_header_section();

/// The 22 state-management sentences of §6.8.6 (reception of BFD
/// control packets), in clarified (parseable) form.
const std::vector<std::string>& bfd_state_sentences();

/// The state-management sentences formatted as an RFC-style section the
/// pre-processor can consume (one Description block).
std::string rfc5880_state_section();

/// The BFD spec document of the spec -> code corpora (the `bfd` corpus of
/// corpus::spec_corpora(), sage_debug and the serve daemon): the same
/// Description block under a "BFD State Management" heading.
const std::string& bfd_state_document();

/// The Table 5 data: challenging originals and their rewrites.
struct BfdChallenge {
  std::string type;      // "Nested code" | "Rephrasing"
  std::string original;
  std::string rewritten;
};
const std::vector<BfdChallenge>& bfd_challenges();

}  // namespace sage::corpus
