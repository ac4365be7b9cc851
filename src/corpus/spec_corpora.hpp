// The six spec texts of the spec -> code loop, each with the sentences a
// previous run annotated non-actionable: the inputs the end-to-end
// spec_cold workload passes through core::Sage::process, gathered in one
// place so stage tests and microbenches run over the same text.
#pragma once

#include <string>
#include <vector>

namespace sage::corpus {

struct SpecCorpus {
  std::string name;      // "icmp", "icmp-orig", "igmp", "ntp", "bfd", "icmp6"
  std::string text;
  std::string protocol;  // the title the pre-processor is given
  std::vector<std::string> annotations;
};

/// Revised and original ICMP (RFC 792), IGMP (RFC 1112 Appendix I), NTP
/// (RFC 1059 appendices), the BFD state-management sentences (RFC 5880
/// §6.8.6) under a "BFD State Management" heading, and revised ICMPv6
/// (RFC 4443).
const std::vector<SpecCorpus>& spec_corpora();

}  // namespace sage::corpus
