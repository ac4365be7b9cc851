#include "corpus/rfc5880.hpp"

namespace sage::corpus {

const std::string& rfc5880_header_section() {
  static const std::string kText = R"(BFD Control Packet Format

    0                   1                   2                   3
    0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |Vers |  Diag   |Sta|P|F|C|A|D|M|  Detect Mult  |    Length     |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |                       My Discriminator                        |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |                      Your Discriminator                       |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |                    Desired Min TX Interval                    |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |                   Required Min RX Interval                    |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |                 Required Min Echo RX Interval                 |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
)";
  return kText;
}

const std::vector<std::string>& bfd_state_sentences() {
  // RFC 5880 §6.8.6 "Reception of BFD Control Packets", in the clarified
  // form that survives the SAGE feedback loop (the pre-rewrite forms of
  // the two hardest sentences are in bfd_challenges()). 22 sentences,
  // matching the count the paper analyzes.
  static const std::vector<std::string> kSentences = {
      // --- validation: packets that must be dropped -----------------------
      "If the Detect Mult field is zero, the packet MUST be discarded.",
      "If the Multipoint bit is nonzero, the packet MUST be discarded.",
      "If the My Discriminator field is zero, the packet MUST be discarded.",
      "If the Your Discriminator field is nonzero, the session is selected.",
      "If the Your Discriminator field is nonzero and the session is not "
      "found, the packet MUST be discarded.",
      "If the Your Discriminator field is zero and the State field is not "
      "Down, the packet MUST be discarded.",
      // --- state variable updates ------------------------------------------
      "The bfd.RemoteDiscr is the My Discriminator field.",
      "The bfd.RemoteSessionState is the State field.",
      "The bfd.RemoteDemandMode is the Demand bit.",
      "The bfd.RemoteMinRxInterval is the Required Min RX Interval field.",
      "If the Required Min Echo RX Interval field is zero, the periodic "
      "transmission of echo packets MUST cease.",
      // --- demand mode (Table 5's rephrasing sentence, rewritten) ----------
      "If bfd.RemoteDemandMode is 1, bfd.SessionState is Up, and "
      "bfd.RemoteSessionState is Up, the local system MUST cease the "
      "periodic transmission of BFD control packets.",
      "If the Poll bit is nonzero, the local system MUST send a bfd "
      "control packet.",
      // --- the three-way state machine --------------------------------------
      "If bfd.SessionState is AdminDown, the packet MUST be discarded.",
      "If the State field is AdminDown and bfd.SessionState is Up, the "
      "bfd.SessionState is Down.",
      "If the State field is AdminDown and bfd.SessionState is Init, the "
      "bfd.SessionState is Down.",
      "If the State field is Down and bfd.SessionState is Down, the "
      "bfd.SessionState is Init.",
      "If the State field is Init and bfd.SessionState is Down, the "
      "bfd.SessionState is Up.",
      "If the State field is Init and bfd.SessionState is Init, the "
      "bfd.SessionState is Up.",
      "If the State field is Up and bfd.SessionState is Init, the "
      "bfd.SessionState is Up.",
      "If the State field is Down and bfd.SessionState is Up, the "
      "bfd.SessionState is Down.",
      "If the State field is Down and bfd.SessionState is Init, the "
      "bfd.SessionState is Init.",
  };
  return kSentences;
}

namespace {

std::string state_document(const std::string& title) {
  std::string text = title + "\n\n   Description\n\n";
  for (const auto& sentence : bfd_state_sentences()) {
    text += "      " + sentence + "\n";
  }
  return text;
}

}  // namespace

std::string rfc5880_state_section() {
  return state_document("Reception of BFD Control Packets");
}

const std::string& bfd_state_document() {
  static const std::string kText = state_document("BFD State Management");
  return kText;
}

const std::vector<BfdChallenge>& bfd_challenges() {
  // Table 5: the two §6.8.6 sentences that defeat the underlying NLP
  // machinery. The originals exercise (a) cross-sentence co-reference
  // ("no session" refers to "the session" selected by the previous
  // sentence) and (b) a rephrased conditional embedded in prose; both
  // yield no usable logical form. The rewrites are what a spec author
  // produces in the feedback loop.
  static const std::vector<BfdChallenge> kChallenges = {
      {"Nested code",
       "If the Your Discriminator field is nonzero, it MUST be used to "
       "select the session with which this BFD packet is associated. If "
       "no session is found, the packet MUST be discarded.",
       "If the Your Discriminator field is nonzero, the session is "
       "selected. If the Your Discriminator field is nonzero and the "
       "session is not found, the packet MUST be discarded."},
      {"Rephrasing",
       "If bfd.RemoteDemandMode is 1, bfd.SessionState is Up, and "
       "bfd.RemoteSessionState is Up, Demand mode is active on the remote "
       "system and the local system MUST cease the periodic transmission "
       "of BFD Control packets.",
       "If bfd.RemoteDemandMode is 1, bfd.SessionState is Up, and "
       "bfd.RemoteSessionState is Up, the local system MUST cease the "
       "periodic transmission of BFD control packets."},
  };
  return kChallenges;
}

}  // namespace sage::corpus
