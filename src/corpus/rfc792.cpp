#include "corpus/rfc792.hpp"

#include "util/strings.hpp"

namespace sage::corpus {

std::string rewrite_category_name(RewriteCategory category) {
  switch (category) {
    case RewriteCategory::kMoreThanOneLf: return "More than 1 LF";
    case RewriteCategory::kZeroLf: return "0 LF";
    case RewriteCategory::kImprecise: return "Imprecise sentence";
  }
  return "?";
}

const std::string& rfc792_original() {
  // Reconstruction of RFC 792's eight message sections. Field layout,
  // wording, and the problematic sentences follow the original; prose
  // paragraphs the paper's 35 non-actionable annotations cover are
  // included under "Description".
  static const std::string kText = R"(Destination Unreachable Message

    0                   1                   2                   3
    0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |     Type      |     Code      |          Checksum             |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |                             unused                            |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |      Internet Header + 64 bits of Original Data Datagram      |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+

   IP Fields:

   Destination Address

      The source network and address from the original datagram's data.

   ICMP Fields:

   Type

      3

   Code

      0 = net unreachable;  1 = host unreachable;  2 = protocol
      unreachable;  3 = port unreachable;  4 = fragmentation needed and
      DF set;  5 = source route failed.

   Checksum

      The checksum is the 16-bit one's complement of the one's
      complement sum of the ICMP message starting with the ICMP type.
      For computing the checksum, the checksum field should be zero.
      This checksum may be replaced in the future.

   Internet Header + 64 bits of Data Datagram

      The internet header plus the first 64 bits of the original
      datagram's data.  This data is used by the host to match the
      message to the appropriate process.  If a higher level protocol
      uses port numbers, they are assumed to be in the first 64 data
      bits of the original datagram's data.

   Description

      If the gateway cannot deliver the datagram because the network
      specified in the destination field is unreachable, the gateway
      may send a destination unreachable message to the source host.
      In some networks the gateway may also be able to determine if the
      destination host is unreachable.

Time Exceeded Message

    0                   1                   2                   3
    0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |     Type      |     Code      |          Checksum             |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |                             unused                            |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |      Internet Header + 64 bits of Original Data Datagram      |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+

   IP Fields:

   Destination Address

      The source network and address from the original datagram's data.

   ICMP Fields:

   Type

      11

   Code

      0 = time to live exceeded in transit;  1 = fragment reassembly
      time exceeded.

   Checksum

      The checksum is the 16-bit one's complement of the one's
      complement sum of the ICMP message starting with the ICMP type.
      For computing the checksum, the checksum field should be zero.

   Internet Header + 64 bits of Data Datagram

      The internet header plus the first 64 bits of the original
      datagram's data.  This data is used by the host to match the
      message to the appropriate process.

   Description

      If the gateway processing a datagram finds the time to live field
      is zero it must discard the datagram.  The gateway may also
      notify the source host via the time exceeded message.

Parameter Problem Message

    0                   1                   2                   3
    0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |     Type      |     Code      |          Checksum             |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |    Pointer    |                   unused                      |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |      Internet Header + 64 bits of Original Data Datagram      |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+

   IP Fields:

   Destination Address

      The source network and address from the original datagram's data.

   ICMP Fields:

   Type

      12

   Code

      0 = pointer indicates the error.

   Checksum

      The checksum is the 16-bit one's complement of the one's
      complement sum of the ICMP message starting with the ICMP type.
      For computing the checksum, the checksum field should be zero.

   Pointer

      If code = 0, identifies the octet where an error was detected.

   Internet Header + 64 bits of Data Datagram

      The internet header plus the first 64 bits of the original
      datagram's data.  This data is used by the host to match the
      message to the appropriate process.

   Description

      If the gateway or host processing a datagram finds a problem with
      the header parameters such that it cannot complete processing the
      datagram it must discard the datagram.  One potential source of
      such a problem is with incorrect arguments in an option.

Source Quench Message

    0                   1                   2                   3
    0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |     Type      |     Code      |          Checksum             |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |                             unused                            |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |      Internet Header + 64 bits of Original Data Datagram      |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+

   IP Fields:

   Destination Address

      The source network and address from the original datagram's data.

   ICMP Fields:

   Type

      4

   Code

      0 = source quench.

   Checksum

      The checksum is the 16-bit one's complement of the one's
      complement sum of the ICMP message starting with the ICMP type.
      For computing the checksum, the checksum field should be zero.

   Internet Header + 64 bits of Data Datagram

      The internet header plus the first 64 bits of the original
      datagram's data.  This data is used by the host to match the
      message to the appropriate process.

   Description

      A gateway may discard internet datagrams if it does not have the
      buffer space needed to queue the datagrams for output to the next
      network on the route to the destination network.  The gateway may
      send a source quench message for every message that it discards.

Redirect Message

    0                   1                   2                   3
    0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |     Type      |     Code      |          Checksum             |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |                 Gateway Internet Address                      |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |      Internet Header + 64 bits of Original Data Datagram      |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+

   IP Fields:

   Destination Address

      The source network and address from the original datagram's data.

   ICMP Fields:

   Type

      5

   Code

      0 = redirect datagrams for the network;  1 = redirect datagrams
      for the host;  2 = redirect datagrams for the type of service and
      network;  3 = redirect datagrams for the type of service and
      host.

   Checksum

      The checksum is the 16-bit one's complement of the one's
      complement sum of the ICMP message starting with the ICMP type.
      For computing the checksum, the checksum field should be zero.

   Gateway Internet Address

      Address of the gateway to which traffic for the network specified
      in the internet destination network field of the original
      datagram's data should be sent.

   Internet Header + 64 bits of Data Datagram

      The internet header plus the first 64 bits of the original
      datagram's data.  This data is used by the host to match the
      message to the appropriate process.

   Description

      The gateway sends a redirect message to a host in the following
      situation.  The redirect message advises the host to send its
      traffic for the network directly to the gateway as a shorter path
      to the destination.

Echo or Echo Reply Message

    0                   1                   2                   3
    0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |     Type      |     Code      |          Checksum             |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |           Identifier          |        Sequence Number        |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |     Data ...
   +-+-+-+-+-

   IP Fields:

   Addresses

      The address of the source in an echo message will be the
      destination of the echo reply message.

   ICMP Fields:

   Type

      8 for echo message;  0 for echo reply message.

   Checksum

      The checksum is the 16-bit one's complement of the one's
      complement sum of the ICMP message starting with the ICMP type.
      For computing the checksum, the checksum field should be zero.

   Identifier

      If code = 0, an identifier to aid in matching echos and replies,
      may be zero.

   Sequence Number

      If code = 0, a sequence number to aid in matching echos and
      replies, may be zero.

   Data

      The data received in the echo message must be returned in the
      echo reply message.

   Description

      To form an echo reply message, the source and destination
      addresses are simply reversed, the type code changed to 0, and
      the checksum recomputed.  The identifier and sequence number may
      be used by the echo sender to aid in matching the replies.

Timestamp or Timestamp Reply Message

    0                   1                   2                   3
    0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |     Type      |     Code      |          Checksum             |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |           Identifier          |        Sequence Number        |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |     Originate Timestamp                                       |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |     Receive Timestamp                                         |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |     Transmit Timestamp                                        |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+

   ICMP Fields:

   Type

      13 for timestamp message;  14 for timestamp reply message.

   Checksum

      The checksum is the 16-bit one's complement of the one's
      complement sum of the ICMP message starting with the ICMP type.
      For computing the checksum, the checksum field should be zero.

   Identifier

      If code = 0, an identifier to aid in matching timestamp and
      replies, may be zero.

   Sequence Number

      If code = 0, a sequence number to aid in matching timestamp and
      replies, may be zero.

   Originate Timestamp

      The originate timestamp is the time the sender last touched the
      message.

   Receive Timestamp

      The receive timestamp is the time the echoer first touched the
      message.

   Transmit Timestamp

      The transmit timestamp is the time the echoer last touched the
      message.

   Description

      To form a timestamp reply message, the source and destination
      addresses are simply reversed, the type code changed to 14, and
      the checksum recomputed.  The timestamp is the number of
      milliseconds since midnight.

Information Request or Information Reply Message

    0                   1                   2                   3
    0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |     Type      |     Code      |          Checksum             |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |           Identifier          |        Sequence Number        |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+

   ICMP Fields:

   Type

      15 for information request message;  16 for information reply
      message.

   Checksum

      The checksum is the 16-bit one's complement of the one's
      complement sum of the ICMP message starting with the ICMP type.
      For computing the checksum, the checksum field should be zero.

   Identifier

      If code = 0, an identifier to aid in matching request and
      replies, may be zero.

   Sequence Number

      If code = 0, a sequence number to aid in matching request and
      replies, may be zero.

   Description

      To form a information reply message, the source and destination
      addresses are simply reversed, the type code changed to 16, and
      the checksum recomputed.  This message may be used by a host to
      find out the number of the network it is on.
)";
  return kText;
}

const std::vector<Rewrite>& rfc792_rewrites() {
  // Table 6: the sentences a human rewrote in SAGE's feedback loop.
  // 4 instances with more than one logical form (3 "To form ..." variants
  // plus the echo "Addresses" sentence), 1 with zero logical forms (the
  // Redirect gateway description, §4.1 example D), and 6 imprecise
  // "may be zero" variants discovered through unit testing.
  static const std::vector<Rewrite> kRewrites = {
      // ---- more than one logical form -----------------------------------
      {"The address of the source in an echo message will be the "
       "destination of the echo reply message.",
       "The destination address of the echo reply message is the source "
       "address of the echo message.",
       RewriteCategory::kMoreThanOneLf},
      {"To form an echo reply message, the source and destination "
       "addresses are simply reversed, the type code changed to 0, and "
       "the checksum recomputed.",
       "In the echo reply message, the source and destination addresses "
       "are simply reversed and the type is changed to 0 and the checksum "
       "is recomputed.",
       RewriteCategory::kMoreThanOneLf},
      {"To form a timestamp reply message, the source and destination "
       "addresses are simply reversed, the type code changed to 14, and "
       "the checksum recomputed.",
       "In the timestamp reply message, the source and destination "
       "addresses are simply reversed and the type is changed to 14 and "
       "the checksum is recomputed.",
       RewriteCategory::kMoreThanOneLf},
      {"To form a information reply message, the source and destination "
       "addresses are simply reversed, the type code changed to 16, and "
       "the checksum recomputed.",
       "In the information reply message, the source and destination "
       "addresses are simply reversed and the type is changed to 16 and "
       "the checksum is recomputed.",
       RewriteCategory::kMoreThanOneLf},
      // ---- zero logical forms --------------------------------------------
      {"Address of the gateway to which traffic for the network specified "
       "in the internet destination network field of the original "
       "datagram's data should be sent.",
       "The gateway internet address is the better gateway.",
       RewriteCategory::kZeroLf},
      // ---- imprecise sentences (under-specified sender/receiver) ---------
      {"If code = 0, an identifier to aid in matching echos and replies, "
       "may be zero.",
       "If code = 0, the sender may set the identifier to zero.",
       RewriteCategory::kImprecise},
      {"If code = 0, a sequence number to aid in matching echos and "
       "replies, may be zero.",
       "If code = 0, the sender may set the sequence number to zero.",
       RewriteCategory::kImprecise},
      {"If code = 0, an identifier to aid in matching timestamp and "
       "replies, may be zero.",
       "If code = 0, the sender may set the identifier to zero.",
       RewriteCategory::kImprecise},
      {"If code = 0, a sequence number to aid in matching timestamp and "
       "replies, may be zero.",
       "If code = 0, the sender may set the sequence number to zero.",
       RewriteCategory::kImprecise},
      {"If code = 0, an identifier to aid in matching request and "
       "replies, may be zero.",
       "If code = 0, the sender may set the identifier to zero.",
       RewriteCategory::kImprecise},
      {"If code = 0, a sequence number to aid in matching request and "
       "replies, may be zero.",
       "If code = 0, the sender may set the sequence number to zero.",
       RewriteCategory::kImprecise},
  };
  return kRewrites;
}

std::string apply_rewrites(std::string text,
                           const std::vector<Rewrite>& rewrites) {
  for (const auto& rewrite : rewrites) {
    const auto words = util::split(rewrite.original, " ");
    std::size_t search_from = 0;
    while (true) {
      const std::size_t start = text.find(words.front(), search_from);
      if (start == std::string::npos) break;
      std::size_t pos = start + words.front().size();
      bool matched = true;
      for (std::size_t w = 1; w < words.size(); ++w) {
        // Skip whitespace (including newlines + indentation).
        std::size_t ws = pos;
        while (ws < text.size() &&
               (text[ws] == ' ' || text[ws] == '\n' || text[ws] == '\t')) {
          ++ws;
        }
        if (ws == pos || text.compare(ws, words[w].size(), words[w]) != 0) {
          matched = false;
          break;
        }
        pos = ws + words[w].size();
      }
      if (matched) {
        text = text.substr(0, start) + rewrite.replacement + text.substr(pos);
        search_from = start + rewrite.replacement.size();
      } else {
        search_from = start + 1;
      }
    }
  }
  return text;
}

std::string rfc792_revised() {
  return apply_rewrites(rfc792_original(), rfc792_rewrites());
}

const std::vector<std::string>& icmp_non_actionable_annotations() {
  // Human annotations accumulated over earlier SAGE iterations (§5.2):
  // advisory prose, cross-protocol remarks, and future intent. These are
  // matched against the pre-processor's joined sentences.
  static const std::vector<std::string> kAnnotations = {
      "This checksum may be replaced in the future.",
      "If a higher level protocol uses port numbers, they are assumed to "
      "be in the first 64 data bits of the original datagram's data.",
      "This data is used by the host to match the message to the "
      "appropriate process.",
      "If the gateway cannot deliver the datagram because the network "
      "specified in the destination field is unreachable, the gateway may "
      "send a destination unreachable message to the source host.",
      "In some networks the gateway may also be able to determine if the "
      "destination host is unreachable.",
      "If the gateway processing a datagram finds the time to live field "
      "is zero it must discard the datagram.",
      "The gateway may also notify the source host via the time exceeded "
      "message.",
      "If the gateway or host processing a datagram finds a problem with "
      "the header parameters such that it cannot complete processing the "
      "datagram it must discard the datagram.",
      "One potential source of such a problem is with incorrect arguments "
      "in an option.",
      "A gateway may discard internet datagrams if it does not have the "
      "buffer space needed to queue the datagrams for output to the next "
      "network on the route to the destination network.",
      "The gateway may send a source quench message for every message "
      "that it discards.",
      "The gateway sends a redirect message to a host in the following "
      "situation.",
      "The redirect message advises the host to send its traffic for the "
      "network directly to the gateway as a shorter path to the "
      "destination.",
      "The timestamp is the number of milliseconds since midnight.",
      "This message may be used by a host to find out the number of the "
      "network it is on.",
  };
  return kAnnotations;
}

}  // namespace sage::corpus
