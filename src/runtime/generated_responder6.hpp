// GeneratedIcmp6Responder: runs SAGE-generated ICMPv6 code (from the
// revised RFC 4443 corpus) behind the sim::Icmp6Responder boundary.
//
// A thin adapter over the event table and run core GeneratedIcmpResponder
// uses (runtime/generated_responder.hpp): each event dispatches to the
// generated packet-handling function for the corresponding RFC 4443
// message and role, on either execution backend (threaded-code VM or
// tree-walking interpreter). Nothing here hard-codes protocol behaviour
// — if the generated code is wrong or a function is missing, the
// differential fuzzer diverges.
#pragma once

#include "runtime/generated_responder.hpp"
#include "sim/responder6.hpp"

namespace sage::runtime {

class GeneratedIcmp6Responder : public sim::Icmp6Responder,
                                public GeneratedResponder {
 public:
  explicit GeneratedIcmp6Responder(
      vm::ExecBackend backend = vm::ExecBackend::kThreaded);

  // -- sim::Icmp6Responder ---------------------------------------------------
  Reply on_echo_request(const sim::Responder6Context& ctx) override {
    return run(kEcho, ctx);
  }
  Reply on_destination_unreachable(const sim::Responder6Context& ctx,
                                   std::uint8_t code) override {
    return run(kUnreachable, ctx, code);
  }
  Reply on_packet_too_big(const sim::Responder6Context& ctx) override {
    return run(kPacketTooBig, ctx);
  }
  Reply on_time_exceeded(const sim::Responder6Context& ctx,
                         std::uint8_t code) override {
    return run(kTimeExceeded, ctx, code);
  }
  Reply on_parameter_problem(const sim::Responder6Context& ctx,
                             std::uint8_t code, std::uint8_t pointer) override {
    return run(kParameterProblem, ctx, code, pointer);
  }

 private:
  /// RFC 4443 events, indexing events().
  enum Icmp6 : std::size_t {
    kEcho, kUnreachable, kPacketTooBig, kTimeExceeded, kParameterProblem,
  };
  static const std::vector<Event>& events();

  Reply run(Icmp6 event, const sim::Responder6Context& ctx,
            std::uint8_t code = 0, std::uint8_t pointer = 0);
};

}  // namespace sage::runtime
