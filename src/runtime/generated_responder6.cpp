#include "runtime/generated_responder6.hpp"

namespace sage::runtime {

const std::vector<GeneratedResponder::Event>&
GeneratedIcmp6Responder::events() {
  static const std::vector<Event> table = {
      event("ICMP6", "Echo or Echo Reply Message", "receiver", true,
            {"echo reply message"}),
      event("ICMP6", "Destination Unreachable Message", "sender", false,
            {"no route to destination",
             "communication with destination administratively prohibited",
             "beyond scope of source address", "address unreachable",
             "port unreachable"}),
      event("ICMP6", "Packet Too Big Message", "sender", false,
            {"packet too big"}),
      event("ICMP6", "Time Exceeded Message", "sender", false,
            {"hop limit exceeded in transit",
             "fragment reassembly time exceeded"}),
      event("ICMP6", "Parameter Problem Message", "sender", false,
            {"erroneous header field encountered",
             "unrecognized next header type encountered",
             "unrecognized ipv6 option encountered"}),
  };
  return table;
}

GeneratedIcmp6Responder::GeneratedIcmp6Responder(vm::ExecBackend backend)
    : GeneratedResponder(events(), "triggering packet is not decodable IPv6",
                         backend) {}

GeneratedResponder::Reply GeneratedIcmp6Responder::run(
    Icmp6 event, const sim::Responder6Context& ctx, std::uint8_t code,
    std::uint8_t pointer) {
  const Row* row = lookup(event);
  if (row == nullptr) return std::nullopt;
  auto env = SchemaExecEnv::icmp6(ctx.triggering_packet, ctx.own_address,
                                  row->event->start_from_incoming);
  env.set_error_pointer(pointer);
  return respond(*row, env, code);
}

}  // namespace sage::runtime
