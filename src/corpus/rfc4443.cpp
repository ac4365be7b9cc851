#include "corpus/rfc4443.hpp"

namespace sage::corpus {

const std::string& rfc4443_original() {
  // Reconstruction of RFC 4443's five message sections in the corpus
  // document shape (section title at indent 0, group markers, field
  // headings, wrapped description paragraphs). Wording follows the RFC;
  // prose the non-actionable annotations cover is kept under
  // "Description" so the discovery loop sees it.
  static const std::string kText = R"(Destination Unreachable Message

    0                   1                   2                   3
    0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |     Type      |     Code      |          Checksum             |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |                             unused                            |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |                    Invoking Packet ...
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+

   IPv6 Fields:

   Destination Address

      The source address from the invoking packet's data.

   ICMPv6 Fields:

   Type

      1

   Code

      0 = no route to destination;  1 = communication with destination
      administratively prohibited;  2 = beyond scope of source address;
      3 = address unreachable;  4 = port unreachable.

   Checksum

      The checksum is the 16-bit one's complement of the one's
      complement sum of the ICMPv6 message starting with the ICMPv6
      type.  For computing the checksum, the checksum field should be
      zero.  The checksum also covers a pseudo-header of IPv6 header
      fields.

   Invoking Packet

      As much of the invoking packet as possible without the packet
      exceeding the minimum IPv6 MTU.

   Description

      A destination unreachable message should be generated by a router
      in response to a packet that cannot be delivered to its
      destination address for reasons other than congestion.  A router
      must not generate a destination unreachable message for a packet
      dropped due to congestion.

Packet Too Big Message

    0                   1                   2                   3
    0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |     Type      |     Code      |          Checksum             |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |                              MTU                              |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |                    Invoking Packet ...
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+

   IPv6 Fields:

   Destination Address

      The source address from the invoking packet's data.

   ICMPv6 Fields:

   Type

      2

   Code

      0 = packet too big.

   Checksum

      The checksum is the 16-bit one's complement of the one's
      complement sum of the ICMPv6 message starting with the ICMPv6
      type.  For computing the checksum, the checksum field should be
      zero.  The checksum also covers a pseudo-header of IPv6 header
      fields.

   MTU

      The Maximum Transmission Unit of the next-hop link.

   Invoking Packet

      As much of the invoking packet as possible without the packet
      exceeding the minimum IPv6 MTU.

   Description

      A packet too big message must be sent by a router in response to
      a packet that it cannot forward because the packet is larger than
      the MTU of the outgoing link.  This message is used as part of
      the path MTU discovery process.

Time Exceeded Message

    0                   1                   2                   3
    0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |     Type      |     Code      |          Checksum             |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |                             unused                            |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |                    Invoking Packet ...
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+

   IPv6 Fields:

   Destination Address

      The source address from the invoking packet's data.

   ICMPv6 Fields:

   Type

      3

   Code

      0 = hop limit exceeded in transit;  1 = fragment reassembly time
      exceeded.

   Checksum

      The checksum is the 16-bit one's complement of the one's
      complement sum of the ICMPv6 message starting with the ICMPv6
      type.  For computing the checksum, the checksum field should be
      zero.  The checksum also covers a pseudo-header of IPv6 header
      fields.

   Invoking Packet

      As much of the invoking packet as possible without the packet
      exceeding the minimum IPv6 MTU.

   Description

      If a router receives a packet with a hop limit of zero, or if a
      router decrements a packet's hop limit to zero, it must discard
      the packet and originate a time exceeded message.  This message
      indicates either a routing loop or an initial hop limit value
      that is too small.

Parameter Problem Message

    0                   1                   2                   3
    0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |     Type      |     Code      |          Checksum             |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |                            Pointer                            |
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
   |                    Invoking Packet ...
   +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+

   IPv6 Fields:

   Destination Address

      The source address from the invoking packet's data.

   ICMPv6 Fields:

   Type

      4

   Code

      0 = erroneous header field encountered;  1 = unrecognized next
      header type encountered;  2 = unrecognized ipv6 option
      encountered.

   Checksum

      The checksum is the 16-bit one's complement of the one's
      complement sum of the ICMPv6 message starting with the ICMPv6
      type.  For computing the checksum, the checksum field should be
      zero.  The checksum also covers a pseudo-header of IPv6 header
      fields.

   Pointer

      If code = 0, identifies the octet where an error was detected.

   Invoking Packet

      As much of the invoking packet as possible without the packet
      exceeding the minimum IPv6 MTU.

   Description

      The pointer identifies the octet offset within the invoking
      packet where the error was detected.  The pointer will point
      beyond the end of the ICMPv6 packet if the field in error is
      beyond what can fit in the maximum size of an ICMPv6 error
      message.

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

   IPv6 Fields:

   Addresses

      The address of the source in an echo message will be the
      destination of the echo reply message.

   ICMPv6 Fields:

   Type

      128 for echo message;  129 for echo reply message.

   Code

      0

   Checksum

      The checksum is the 16-bit one's complement of the one's
      complement sum of the ICMPv6 message starting with the ICMPv6
      type.  For computing the checksum, the checksum field should be
      zero.  The checksum also covers a pseudo-header of IPv6 header
      fields.

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
      addresses are simply reversed, the type code changed to 129, and
      the checksum recomputed.  The identifier and sequence number may
      be used by the echo sender to aid in matching the replies.  Every
      node must implement an ICMPv6 echo responder function that
      receives echo requests and originates corresponding echo replies.
)";
  return kText;
}

const std::vector<Rewrite>& rfc4443_rewrites() {
  // The same feedback loop RFC 792 went through (Table 6 categories).
  // RFC 4443 inherits both multi-LF echo sentences from RFC 792; its
  // own contributions are the zero-LF payload/MTU fragments and the two
  // imprecise "may be zero" variants.
  static const std::vector<Rewrite> kRewrites = {
      // ---- more than one logical form -----------------------------------
      {"The address of the source in an echo message will be the "
       "destination of the echo reply message.",
       "The destination address of the echo reply message is the source "
       "address of the echo message.",
       RewriteCategory::kMoreThanOneLf},
      {"To form an echo reply message, the source and destination "
       "addresses are simply reversed, the type code changed to 129, and "
       "the checksum recomputed.",
       "In the echo reply message, the source and destination addresses "
       "are simply reversed and the type is changed to 129 and the "
       "checksum is recomputed.",
       RewriteCategory::kMoreThanOneLf},
      // ---- zero logical forms --------------------------------------------
      {"As much of the invoking packet as possible without the packet "
       "exceeding the minimum IPv6 MTU.",
       "The ipv6 header plus the first 64 bits of the invoking packet's "
       "data.",
       RewriteCategory::kZeroLf},
      {"The Maximum Transmission Unit of the next-hop link.",
       "The mtu is the link mtu.",
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
  };
  return kRewrites;
}

std::string rfc4443_revised() {
  return apply_rewrites(rfc4443_original(), rfc4443_rewrites());
}

const std::vector<std::string>& icmp6_non_actionable_annotations() {
  // Advisory prose and derivation rules the static framework already
  // encodes (the pseudo-header coverage lives in the schema's
  // kPseudoDerived checksum location, not in generated code).
  static const std::vector<std::string> kAnnotations = {
      "The checksum also covers a pseudo-header of IPv6 header fields.",
      "A destination unreachable message should be generated by a router "
      "in response to a packet that cannot be delivered to its "
      "destination address for reasons other than congestion.",
      "A router must not generate a destination unreachable message for "
      "a packet dropped due to congestion.",
      "A packet too big message must be sent by a router in response to "
      "a packet that it cannot forward because the packet is larger than "
      "the MTU of the outgoing link.",
      "This message is used as part of the path MTU discovery process.",
      "If a router receives a packet with a hop limit of zero, or if a "
      "router decrements a packet's hop limit to zero, it must discard "
      "the packet and originate a time exceeded message.",
      "This message indicates either a routing loop or an initial hop "
      "limit value that is too small.",
      "The pointer identifies the octet offset within the invoking "
      "packet where the error was detected.",
      "The pointer will point beyond the end of the ICMPv6 packet if the "
      "field in error is beyond what can fit in the maximum size of an "
      "ICMPv6 error message.",
      "Every node must implement an ICMPv6 echo responder function that "
      "receives echo requests and originates corresponding echo replies.",
  };
  return kAnnotations;
}

}  // namespace sage::corpus
