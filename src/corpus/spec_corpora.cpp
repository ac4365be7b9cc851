#include "corpus/spec_corpora.hpp"

#include "corpus/rfc1059.hpp"
#include "corpus/rfc1112.hpp"
#include "corpus/rfc4443.hpp"
#include "corpus/rfc5880.hpp"
#include "corpus/rfc792.hpp"

namespace sage::corpus {

const std::vector<SpecCorpus>& spec_corpora() {
  static const std::vector<SpecCorpus> corpora = {
      {"icmp", rfc792_revised(), "ICMP", icmp_non_actionable_annotations()},
      {"icmp-orig", rfc792_original(), "ICMP",
       icmp_non_actionable_annotations()},
      {"igmp", rfc1112_appendix_i(), "IGMP", igmp_non_actionable_annotations()},
      {"ntp", rfc1059_appendices(), "NTP", ntp_non_actionable_annotations()},
      {"bfd", bfd_state_document(), "BFD", {}},
      {"icmp6", rfc4443_revised(), "ICMP6", icmp6_non_actionable_annotations()},
  };
  return corpora;
}

}  // namespace sage::corpus
