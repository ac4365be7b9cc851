// Tests for the static-framework interpreter and the table-driven
// SchemaExecEnv across its protocol profiles (ICMP, BFD, IGMP, NTP).
#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>

#include "codegen/ir.hpp"
#include "core/sage.hpp"
#include "corpus/spec_corpora.hpp"
#include "net/icmp.hpp"
#include "net/igmp.hpp"
#include "net/ipv4.hpp"
#include "net/udp.hpp"
#include "runtime/interpreter.hpp"
#include "runtime/schema_env.hpp"
#include "runtime/vm/exec.hpp"
#include "runtime/vm/program.hpp"
#include "sim/ping.hpp"

namespace sage::runtime {
namespace {

using codegen::Cond;
using codegen::CmpOp;
using codegen::Expr;
using codegen::FieldRef;
using codegen::PacketSel;
using codegen::Stmt;

std::vector<std::uint8_t> echo_request() {
  return sim::PingClient::make_echo_request(net::IpAddr(10, 0, 1, 100),
                                            net::IpAddr(10, 0, 1, 1), {});
}

/// The ICMP message of the reply under construction, parsed back out of
/// the packet finish_reply() builds.
net::IcmpMessage reply_message(SchemaExecEnv& env) {
  const auto packet = env.finish_reply();
  const auto ip = net::Ipv4Header::parse(packet);
  return *net::IcmpMessage::parse(
      std::span<const std::uint8_t>(packet).subspan(ip->header_length()));
}

TEST(Interpreter, AssignAndReadScalar) {
  const auto request = echo_request();
  auto env = SchemaExecEnv::icmp(request, net::IpAddr(10, 0, 1, 1));
  Interpreter interp;
  const auto result = interp.run(
      Stmt::assign({"icmp", "type"}, Expr::constant(0)), env);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(reply_message(env).type, net::IcmpType::kEchoReply);
}

TEST(Interpreter, ConditionGatesBody) {
  const auto request = echo_request();
  auto env = SchemaExecEnv::icmp(request, net::IpAddr(10, 0, 1, 1),
                                 /*start_from_incoming=*/true);
  Interpreter interp;
  // in->icmp.type == 8 holds for an echo request.
  Stmt hit = Stmt::if_then(
      Cond::compare(Expr::field_read({"icmp", "type"}, PacketSel::kIncoming),
                    CmpOp::kEq, Expr::constant(8)),
      {Stmt::assign({"icmp", "code"}, Expr::constant(7))});
  interp.run(hit, env);
  EXPECT_EQ(reply_message(env).code, 7);

  Stmt miss = Stmt::if_then(
      Cond::compare(Expr::field_read({"icmp", "type"}, PacketSel::kIncoming),
                    CmpOp::kEq, Expr::constant(99)),
      {Stmt::assign({"icmp", "code"}, Expr::constant(1))});
  interp.run(miss, env);
  EXPECT_EQ(reply_message(env).code, 7);  // unchanged
}

TEST(Interpreter, UnknownFieldIsAnError) {
  const auto request = echo_request();
  auto env = SchemaExecEnv::icmp(request, net::IpAddr(10, 0, 1, 1));
  Interpreter interp;
  const auto result =
      interp.run(Stmt::assign({"icmp", "bogus"}, Expr::constant(1)), env);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.errors.empty());
}

TEST(Interpreter, BytesAssignmentCopiesPayload) {
  const auto request = echo_request();
  auto env = SchemaExecEnv::icmp(request, net::IpAddr(10, 0, 1, 1),
                                 /*start_from_incoming=*/true);
  Interpreter interp;
  const auto result = interp.run(
      Stmt::assign({"icmp", "data"},
                   Expr::field_read({"icmp", "data"}, PacketSel::kIncoming)),
      env);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(reply_message(env).payload, sim::PingClient::make_payload(56));
}

TEST(IcmpEnv, TruncatedRequestReadsShortNotZero) {
  // Satellite pin for the short-read status: a 1-byte ICMP message on the
  // receiver path exposes its one real byte and nothing else. The old
  // zero-fill behavior answered identifier=0 here, and a reply could be
  // built from invented field values.
  net::Ipv4Header ip;
  ip.src = net::IpAddr(10, 0, 1, 100);
  ip.dst = net::IpAddr(10, 0, 1, 1);
  ip.protocol = static_cast<std::uint8_t>(net::IpProto::kIcmp);
  const std::vector<std::uint8_t> one_byte{8};
  const auto packet = net::build_ipv4_packet(ip, one_byte);
  auto env = SchemaExecEnv::icmp(packet, net::IpAddr(10, 0, 1, 1),
                                 /*start_from_incoming=*/true);
  EXPECT_TRUE(env.input_truncated());
  const auto type = env.read_field({"icmp", "type"}, PacketSel::kIncoming);
  ASSERT_TRUE(type.has_value());
  EXPECT_EQ(*type, 8);
  EXPECT_FALSE(
      env.read_field({"icmp", "identifier"}, PacketSel::kIncoming).has_value());
  EXPECT_FALSE(
      env.read_field({"icmp", "checksum"}, PacketSel::kIncoming).has_value());
}

TEST(IcmpEnv, ScenarioSymbolComparison) {
  const auto request = echo_request();
  auto env = SchemaExecEnv::icmp(request, net::IpAddr(10, 0, 1, 1));
  env.set_scenario("net unreachable");
  EXPECT_EQ(env.resolve_symbol("scenario"),
            env.resolve_symbol("net unreachable"));
  EXPECT_NE(env.resolve_symbol("scenario"),
            env.resolve_symbol("port unreachable"));
}

TEST(IcmpEnv, ReverseAddressesEffect) {
  const auto request = echo_request();
  auto env = SchemaExecEnv::icmp(request, net::IpAddr(10, 0, 1, 1));
  EXPECT_TRUE(env.call_effect("reverse_addresses", {}));
  EXPECT_EQ(env.out_ip().src, net::IpAddr(10, 0, 1, 1));
  EXPECT_EQ(env.out_ip().dst, net::IpAddr(10, 0, 1, 100));
}

TEST(IcmpEnv, StaleChecksumSemantics) {
  // Starting from the incoming message and recomputing WITHOUT zeroing
  // first must bake the request's checksum into the sum (the advice's
  // absence is observable).
  const auto request = echo_request();
  {
    auto env = SchemaExecEnv::icmp(request, net::IpAddr(10, 0, 1, 1),
                                   /*start_from_incoming=*/true);
    env.call_effect("recompute_checksum", {});
    const auto packet = env.finish_reply();
    const auto ip = net::Ipv4Header::parse(packet);
    EXPECT_FALSE(net::IcmpMessage::verify_checksum(
        std::span<const std::uint8_t>(packet).subspan(ip->header_length())));
  }
  {
    auto env = SchemaExecEnv::icmp(request, net::IpAddr(10, 0, 1, 1),
                                   /*start_from_incoming=*/true);
    Interpreter interp;
    interp.run(Stmt::assign({"icmp", "checksum"}, Expr::constant(0)), env);
    env.call_effect("recompute_checksum", {});
    const auto packet = env.finish_reply();
    const auto ip = net::Ipv4Header::parse(packet);
    EXPECT_TRUE(net::IcmpMessage::verify_checksum(
        std::span<const std::uint8_t>(packet).subspan(ip->header_length())));
  }
}

TEST(IcmpEnv, TimestampFieldWritesLandInPayload) {
  const auto request = echo_request();
  auto env = SchemaExecEnv::icmp(request, net::IpAddr(10, 0, 1, 1));
  env.write_field({"icmp", "receive_timestamp"}, 1234);
  env.write_field({"icmp", "transmit_timestamp"}, 5678);
  EXPECT_EQ(reply_message(env).receive_timestamp(), 1234u);
  EXPECT_EQ(reply_message(env).transmit_timestamp(), 5678u);
  EXPECT_EQ(reply_message(env).payload.size(), 12u);
}

TEST(IcmpEnv, EventParameterFunctions) {
  const auto request = echo_request();
  auto env = SchemaExecEnv::icmp(request, net::IpAddr(10, 0, 1, 1));
  env.set_error_pointer(20);
  env.set_better_gateway(net::IpAddr(10, 0, 1, 50));
  EXPECT_EQ(*env.call_scalar("error_octet", {}), 20);
  EXPECT_EQ(*env.call_scalar("better_gateway", {}),
            static_cast<long>(net::IpAddr(10, 0, 1, 50).value()));
  EXPECT_EQ(*env.call_scalar("receive_time", {}) + 1,
            *env.call_scalar("transmit_time", {}));
}

// ---- BFD env ---------------------------------------------------------------

TEST(BfdEnv, StateVariableRoundTrip) {
  net::BfdSessionState state;
  net::BfdControlPacket packet;
  packet.state = net::BfdState::kInit;
  packet.my_discriminator = 42;
  auto env = SchemaExecEnv::bfd(&state, &packet);

  EXPECT_EQ(*env.read_field({"bfd", "state"}, PacketSel::kIncoming),
            static_cast<long>(net::BfdState::kInit));
  EXPECT_EQ(*env.read_field({"bfd", "my_discriminator"}, PacketSel::kIncoming),
            42);
  EXPECT_TRUE(env.write_field({"bfd", "session_state"},
                              static_cast<long>(net::BfdState::kUp)));
  EXPECT_EQ(state.session_state, net::BfdState::kUp);
}

TEST(BfdEnv, SymbolsMatchRfcEncodings) {
  net::BfdSessionState state;
  net::BfdControlPacket packet;
  auto env = SchemaExecEnv::bfd(&state, &packet);
  EXPECT_EQ(env.resolve_symbol("Up"), 3);
  EXPECT_EQ(env.resolve_symbol("down"), 1);
  EXPECT_EQ(env.resolve_symbol("Init"), 2);
  EXPECT_EQ(env.resolve_symbol("AdminDown"), 0);
}

TEST(BfdEnv, EffectsSetOperationalState) {
  net::BfdSessionState state;
  net::BfdControlPacket packet;
  auto env = SchemaExecEnv::bfd(&state, &packet);
  env.call_effect("cease_transmission", {});
  EXPECT_FALSE(state.periodic_transmission_enabled);
  env.call_effect("discard_packet", {});
  EXPECT_TRUE(state.packet_discarded);
  EXPECT_EQ(*env.call_scalar("session_lookup", {}), 1);
  env.set_session_lookup_fails(true);
  EXPECT_EQ(*env.call_scalar("session_lookup", {}), 0);
}

// ---- IGMP / NTP envs ----------------------------------------------------------

TEST(IgmpEnv, BuildQueryPacket) {
  auto env = SchemaExecEnv::igmp(net::IpAddr(10, 0, 1, 100),
                                  net::IpAddr(224, 1, 2, 3));
  env.write_field({"igmp", "version"}, 1);
  env.write_field({"igmp", "type"},
                  static_cast<long>(net::IgmpType::kHostMembershipQuery));
  env.write_field({"igmp", "group_address"}, 0);
  env.call_effect("compute_checksum", {});
  const auto packet = env.finish(net::IpAddr(224, 0, 0, 1));
  const auto ip = net::Ipv4Header::parse(packet);
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->protocol, static_cast<std::uint8_t>(net::IpProto::kIgmp));
  EXPECT_EQ(ip->ttl, 1);  // IGMP is link-local
  EXPECT_TRUE(net::IgmpMessage::verify_checksum(
      std::span<const std::uint8_t>(packet).subspan(ip->header_length())));
}

/// What one IGMP sender run leaves behind: its result and the group
/// address of the packet the env then finishes.
struct IgmpOutcome {
  ExecResult result;
  net::IpAddr group_address;
};

/// Run `fn` on a fresh IGMP env for host group 224.1.2.3, on the VM or
/// the tree interpreter.
IgmpOutcome run_igmp_sender(const codegen::GeneratedFunction& fn, bool on_vm,
                            std::string_view scenario = {}) {
  auto env = SchemaExecEnv::igmp(net::IpAddr(10, 0, 1, 100),
                                 net::IpAddr(224, 1, 2, 3));
  env.set_scenario(scenario);
  IgmpOutcome out;
  if (on_vm) {
    const auto program = vm::compile(fn);
    EXPECT_TRUE(program.has_value()) << fn.name;
    if (program) out.result = vm::execute(*program, env);
  } else {
    out.result = Interpreter().run(fn.body, env);
  }
  const auto packet = env.finish(net::IpAddr(224, 0, 0, 1));
  const auto ip = net::Ipv4Header::parse(packet);
  out.group_address = net::IgmpMessage::parse(
      std::span<const std::uint8_t>(packet).subspan(ip->header_length()))
                          ->group_address;
  return out;
}

codegen::GeneratedFunction igmp_function(std::vector<Stmt> body) {
  codegen::GeneratedFunction fn;
  fn.name = "igmp_host_group_probe";
  fn.protocol = "IGMP";
  fn.body = Stmt::seq(std::move(body));
  return fn;
}

TEST(IgmpEnv, HostGroupAddressService) {
  const net::IpAddr group(224, 1, 2, 3);
  const FieldRef host_group{"igmp", "host_group_address"};
  auto env = SchemaExecEnv::igmp(net::IpAddr(10, 0, 1, 100), group);
  for (const auto sel : {PacketSel::kIncoming, PacketSel::kOutgoing}) {
    EXPECT_EQ(*env.read_field(host_group, sel),
              static_cast<long>(group.value()));
  }
  EXPECT_FALSE(env.write_field(host_group, 1));
  EXPECT_EQ(*env.read_field(host_group, PacketSel::kIncoming),
            static_cast<long>(group.value()));

  for (const bool on_vm : {false, true}) {
    SCOPED_TRACE(on_vm ? "vm" : "tree");
    // Both selectors read the group, on both backends.
    for (const auto sel : {PacketSel::kIncoming, PacketSel::kOutgoing}) {
      const auto read = run_igmp_sender(
          igmp_function({Stmt::assign({"igmp", "group_address"},
                                      Expr::field_read(host_group, sel))}),
          on_vm);
      EXPECT_TRUE(read.result.ok);
      EXPECT_EQ(read.group_address, group);
    }
    // Both refuse a write, with the same error.
    const auto write = run_igmp_sender(
        igmp_function({Stmt::assign(host_group, Expr::constant(1))}), on_vm);
    EXPECT_FALSE(write.result.ok);
    EXPECT_EQ(write.result.errors,
              std::vector<std::string>{
                  "cannot write field igmp.host_group_address"});
  }

  // The generated sender announces the env's group in a report.
  const auto& corpora = corpus::spec_corpora();
  const auto igmp = std::find_if(corpora.begin(), corpora.end(),
                                 [](const auto& c) { return c.name == "igmp"; });
  ASSERT_NE(igmp, corpora.end());
  core::Sage sage;
  sage.annotate_non_actionable(igmp->annotations);
  const auto run = sage.process(igmp->text, igmp->protocol);
  const auto sender =
      std::find_if(run.functions.begin(), run.functions.end(),
                   [](const auto& fn) { return fn.role == "sender"; });
  ASSERT_NE(sender, run.functions.end());
  for (const bool on_vm : {false, true}) {
    SCOPED_TRACE(on_vm ? "vm" : "tree");
    const auto report =
        run_igmp_sender(*sender, on_vm, "host membership report message");
    EXPECT_TRUE(report.result.ok);
    EXPECT_EQ(report.group_address, group);
  }
}

TEST(NtpEnv, BuildsNtpInUdpInIp) {
  auto env = SchemaExecEnv::ntp(net::IpAddr(10, 0, 1, 100), 0x83aa7e80);
  env.write_field({"ntp", "version"}, 1);
  env.write_field({"ntp", "stratum"}, 2);
  env.write_field({"ntp", "transmit_timestamp"},
                  *env.call_scalar("current_time", {}));
  env.call_effect("call_timeout", {});
  EXPECT_TRUE(env.timeout_called());

  const auto packet = env.finish(net::IpAddr(192, 168, 2, 100));
  const auto ip = net::Ipv4Header::parse(packet);
  ASSERT_TRUE(ip.has_value());
  const auto udp = net::UdpHeader::parse(
      std::span<const std::uint8_t>(packet).subspan(ip->header_length()));
  ASSERT_TRUE(udp.has_value());
  EXPECT_EQ(udp->dst_port, net::kNtpPort);  // defaulted by the framework
  const auto ntp = net::NtpPacket::parse(
      std::span<const std::uint8_t>(packet).subspan(ip->header_length() + 8));
  ASSERT_TRUE(ntp.has_value());
  EXPECT_EQ(ntp->stratum, 2);
  EXPECT_EQ(ntp->transmit_timestamp.seconds, 0x83aa7e80u);
}

}  // namespace
}  // namespace sage::runtime
