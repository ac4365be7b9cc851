// The respond path's per-packet contract: once warm, answering a packet
// allocates exactly one heap block — the returned reply — because every
// per-protocol and per-event fact (handler, scenario symbol, env
// template) is resolved before the packet arrives. Runs under the
// `zero-copy-smoke` preset (ASan), which also exercises the views the
// env keeps into the triggering packet.
//
// Heap blocks are counted with the replaced global operator new of
// heap_counter.hpp, which tests/test_zero_copy_smoke.cpp also uses for
// the sim kernel.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "core/generated_icmp.hpp"
#include "heap_counter.hpp"
#include "net/icmp.hpp"
#include "net/ipv4.hpp"
#include "net/ipv6.hpp"
#include "runtime/generated_responder.hpp"
#include "runtime/generated_responder6.hpp"
#include "sim/network.hpp"
#include "util/bytes.hpp"

namespace sage {
namespace {

using Reply = std::optional<std::vector<std::uint8_t>>;

const net::IpAddr kClient(10, 0, 1, 100);
const net::IpAddr kRouter(10, 0, 1, 1);
const net::Ip6Addr kClient6 =
    net::Ip6Addr::from_groups(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1);
const net::Ip6Addr kServer6 =
    net::Ip6Addr::from_groups(0x2001, 0xdb8, 0, 0, 0, 0, 0, 2);

std::vector<std::uint8_t> icmp_packet(net::IpAddr dst, net::IcmpType type,
                                      std::size_t data_bytes) {
  net::IcmpMessage m;
  m.type = type;
  m.set_identifier(0x2a17);
  m.set_sequence_number(7);
  if (type == net::IcmpType::kTimestamp) {
    m.set_timestamps(1234, 0, 0);
  } else {
    for (std::size_t i = 0; i < data_bytes; ++i) {
      m.payload.push_back(static_cast<std::uint8_t>(i));
    }
  }
  net::Ipv4Header ip;
  ip.src = kClient;
  ip.dst = dst;
  ip.protocol = static_cast<std::uint8_t>(net::IpProto::kIcmp);
  return net::build_ipv4_packet(ip, m.serialize());
}

std::vector<std::uint8_t> echo6_packet(std::size_t data_bytes) {
  std::vector<std::uint8_t> msg(8, 0);
  msg.resize(8 + data_bytes, 0x5a);
  msg[0] = 128;
  util::put_be16({msg.data() + 4, 2}, 0x1234);
  util::put_be16({msg.data() + 6, 2}, 9);
  net::Ipv6Header ip;
  ip.next_header = net::kIpProtoIcmp6;
  ip.src = kClient6;
  ip.dst = kServer6;
  util::put_be16({msg.data() + 2, 2}, net::icmp6_checksum(ip.src, ip.dst, msg));
  return net::build_ipv6_packet(ip, msg);
}

/// The eight RFC 792 events, each on a packet that provokes it.
struct Packets4 {
  std::vector<std::uint8_t> echo =
      icmp_packet(kRouter, net::IcmpType::kEcho, 200);
  std::vector<std::uint8_t> timestamp =
      icmp_packet(kRouter, net::IcmpType::kTimestamp, 0);
  std::vector<std::uint8_t> info =
      icmp_packet(kRouter, net::IcmpType::kInformationRequest, 0);
  std::vector<std::uint8_t> datagram =
      icmp_packet(net::IpAddr(203, 0, 113, 9), net::IcmpType::kEcho, 64);
};

constexpr std::size_t kIcmpEvents = 8;
constexpr std::size_t kIcmp6Events = 5;

Reply fire(runtime::GeneratedIcmpResponder& r, const Packets4& p,
           std::size_t event) {
  const sim::ResponderContext error{kRouter, p.datagram};
  switch (event) {
    case 0: return r.on_echo_request({kRouter, p.echo});
    case 1: return r.on_timestamp_request({kRouter, p.timestamp});
    case 2: return r.on_information_request({kRouter, p.info});
    case 3: return r.on_destination_unreachable(error, 3);
    case 4: return r.on_time_exceeded(error);
    case 5: return r.on_parameter_problem(error, 1);
    case 6: return r.on_source_quench(error);
    default: return r.on_redirect(error, net::IpAddr(10, 0, 1, 254));
  }
}

Reply fire6(runtime::GeneratedIcmp6Responder& r,
            const std::vector<std::uint8_t>& packet, std::size_t event) {
  const sim::Responder6Context ctx{kServer6, packet};
  switch (event) {
    case 0: return r.on_echo_request(ctx);
    case 1: return r.on_destination_unreachable(ctx, 4);
    case 2: return r.on_packet_too_big(ctx);
    case 3: return r.on_time_exceeded(ctx, 1);
    default: return r.on_parameter_problem(ctx, 2, 40);
  }
}

template <typename Responder>
Responder canonical(const core::ProtocolRun& run, bool reverse = false) {
  Responder r;
  if (reverse) {
    for (auto it = run.functions.rbegin(); it != run.functions.rend(); ++it) {
      r.add_function(*it);
    }
  } else {
    for (const auto& fn : run.functions) r.add_function(fn);
  }
  return r;
}

/// Heap blocks one warm call of `call` allocates while its reply is
/// alive; the first call warms the env arena and the diagnostics.
template <typename Call>
std::uint64_t warm_blocks(Call&& call, Reply* reply) {
  call();
  const std::uint64_t before = t_heap_blocks;
  *reply = call();
  return t_heap_blocks - before;
}

TEST(RespondPath, EachIcmpEventAllocatesOnlyItsReply) {
  auto r = canonical<runtime::GeneratedIcmpResponder>(
      core::canonical_icmp_run());
  const Packets4 p;
  for (std::size_t e = 0; e < kIcmpEvents; ++e) {
    Reply reply;
    const std::uint64_t blocks =
        warm_blocks([&] { return fire(r, p, e); }, &reply);
    ASSERT_TRUE(reply.has_value()) << "event " << e;
    EXPECT_EQ(blocks, 1u) << "event " << e;
    EXPECT_TRUE(r.last_errors().empty()) << "event " << e;
  }
}

TEST(RespondPath, EachIcmp6EventAllocatesOnlyItsReply) {
  auto r = canonical<runtime::GeneratedIcmp6Responder>(
      core::canonical_icmp6_run());
  const auto packet = echo6_packet(300);
  for (std::size_t e = 0; e < kIcmp6Events; ++e) {
    Reply reply;
    const std::uint64_t blocks =
        warm_blocks([&] { return fire6(r, packet, e); }, &reply);
    ASSERT_TRUE(reply.has_value()) << "event " << e;
    EXPECT_EQ(blocks, 1u) << "event " << e;
    EXPECT_TRUE(r.last_errors().empty()) << "event " << e;
  }
}

/// Forwards to the generated responder and counts the calls.
class CountingResponder : public sim::IcmpResponder {
 public:
  explicit CountingResponder(sim::IcmpResponder& inner) : inner_(inner) {}
  std::uint64_t calls = 0;

  Reply on_echo_request(const sim::ResponderContext& ctx) override {
    ++calls;
    return inner_.on_echo_request(ctx);
  }
  Reply on_timestamp_request(const sim::ResponderContext& ctx) override {
    ++calls;
    return inner_.on_timestamp_request(ctx);
  }
  Reply on_information_request(const sim::ResponderContext& ctx) override {
    ++calls;
    return inner_.on_information_request(ctx);
  }
  Reply on_destination_unreachable(const sim::ResponderContext& ctx,
                                   std::uint8_t code) override {
    ++calls;
    return inner_.on_destination_unreachable(ctx, code);
  }
  Reply on_time_exceeded(const sim::ResponderContext& ctx) override {
    ++calls;
    return inner_.on_time_exceeded(ctx);
  }
  Reply on_parameter_problem(const sim::ResponderContext& ctx,
                             std::uint8_t pointer) override {
    ++calls;
    return inner_.on_parameter_problem(ctx, pointer);
  }
  Reply on_source_quench(const sim::ResponderContext& ctx) override {
    ++calls;
    return inner_.on_source_quench(ctx);
  }
  Reply on_redirect(const sim::ResponderContext& ctx,
                    net::IpAddr gateway) override {
    ++calls;
    return inner_.on_redirect(ctx, gateway);
  }

 private:
  sim::IcmpResponder& inner_;
};

TEST(RespondPath, AppendixAEchoAllocatesOneBlockPerResponderCall) {
  auto generated = canonical<runtime::GeneratedIcmpResponder>(
      core::canonical_icmp_run());
  CountingResponder responder(generated);
  sim::Network net = sim::make_appendix_a_network();
  net.router()->set_responder(&responder);
  net.find_host("server1")->set_responder(&responder);
  net.find_host("server2")->set_responder(&responder);
  sim::Host& client = *net.find_host("client");

  for (const net::IpAddr target :
       {kRouter, net::IpAddr(192, 168, 2, 100), net::IpAddr(172, 64, 3, 100)}) {
    const auto request = icmp_packet(target, net::IcmpType::kEcho, 512);
    net.send_from_host(client, request);  // warm the run arena and logs
    net.clear_transient();

    const std::uint64_t calls_before = responder.calls;
    const std::uint64_t before = t_heap_blocks;
    net.send_from_host(client, request);
    const std::uint64_t blocks = t_heap_blocks - before;
    const std::uint64_t calls = responder.calls - calls_before;

    EXPECT_EQ(calls, 1u) << target.to_string();
    EXPECT_EQ(blocks, calls) << target.to_string();
    // The last transmission is the echo reply heading back to the client.
    ASSERT_FALSE(net.capture().empty());
    const auto& last = net.capture().back().packet;
    ASSERT_EQ(last.size(), request.size());
    EXPECT_EQ(last.data()[20], 0);  // echo reply
    net.clear_transient();
  }
}

/// The canonical echo receiver with its body replaced: the reply keeps
/// the request's bytes except the code octet, which it sets to 7.
codegen::GeneratedFunction echo_setting_code_7() {
  codegen::GeneratedFunction replacement;
  for (const auto& fn : core::canonical_icmp_run().functions) {
    if (fn.name == "icmp_echo_or_echo_reply_receiver") replacement = fn;
  }
  replacement.body = codegen::Stmt::seq({codegen::Stmt::assign(
      {"icmp", "code"}, codegen::Expr::constant(7))});
  return replacement;
}

TEST(RespondPath, ReregisteringANameReplacesTheEventHandler) {
  auto r = canonical<runtime::GeneratedIcmpResponder>(
      core::canonical_icmp_run());
  const Packets4 p;
  const sim::ResponderContext request{kRouter, p.echo};
  const auto original = r.on_echo_request(request);
  ASSERT_TRUE(original.has_value());
  const std::size_t functions = r.function_count();

  const codegen::GeneratedFunction replacement = echo_setting_code_7();
  ASSERT_FALSE(replacement.name.empty());
  r.add_function(replacement);

  EXPECT_EQ(r.function_count(), functions);
  const auto replaced = r.on_echo_request(request);
  ASSERT_TRUE(replaced.has_value()) << r.last_errors().size();
  EXPECT_NE(*replaced, *original);
  EXPECT_EQ((*replaced)[20 + 1], 7);
  EXPECT_EQ((*replaced)[20], static_cast<std::uint8_t>(net::IcmpType::kEcho));
}

/// Every canonical ICMP function but the echo receiver.
runtime::GeneratedIcmpResponder without_echo() {
  runtime::GeneratedIcmpResponder r;
  for (const auto& fn : core::canonical_icmp_run().functions) {
    if (fn.name != "icmp_echo_or_echo_reply_receiver") r.add_function(fn);
  }
  return r;
}

TEST(RespondPath, MissingEchoHandlerReportsItsName) {
  auto r = without_echo();
  const Packets4 p;
  EXPECT_FALSE(r.on_echo_request({kRouter, p.echo}).has_value());
  EXPECT_EQ(r.last_errors(),
            std::vector<std::string>{
                "no generated function named icmp_echo_or_echo_reply_receiver"});
  // The other events still answer.
  EXPECT_TRUE(r.on_time_exceeded({kRouter, p.datagram}).has_value());
  EXPECT_TRUE(r.last_errors().empty());
}

TEST(RespondPath, ReverseRegistrationOrderGivesIdenticalReplies) {
  const Packets4 p;
  auto forward = canonical<runtime::GeneratedIcmpResponder>(
      core::canonical_icmp_run());
  auto reverse = canonical<runtime::GeneratedIcmpResponder>(
      core::canonical_icmp_run(), /*reverse=*/true);
  for (std::size_t e = 0; e < kIcmpEvents; ++e) {
    const Reply a = fire(forward, p, e);
    ASSERT_TRUE(a.has_value()) << "event " << e;
    EXPECT_EQ(a, fire(reverse, p, e)) << "event " << e;
  }

  const auto packet = echo6_packet(64);
  auto forward6 = canonical<runtime::GeneratedIcmp6Responder>(
      core::canonical_icmp6_run());
  auto reverse6 = canonical<runtime::GeneratedIcmp6Responder>(
      core::canonical_icmp6_run(), /*reverse=*/true);
  for (std::size_t e = 0; e < kIcmp6Events; ++e) {
    const Reply a = fire6(forward6, packet, e);
    ASSERT_TRUE(a.has_value()) << "icmp6 event " << e;
    EXPECT_EQ(a, fire6(reverse6, packet, e)) << "icmp6 event " << e;
  }
}

// ---- copies share their compiled handlers ---------------------------------

TEST(RespondPath, ACopyAnswersEveryEventLikeItsSource) {
  const Packets4 p;
  auto source = canonical<runtime::GeneratedIcmpResponder>(
      core::canonical_icmp_run());
  auto copy = source;
  for (std::size_t e = 0; e < kIcmpEvents; ++e) {
    const Reply a = fire(copy, p, e);
    ASSERT_TRUE(a.has_value()) << "event " << e;
    EXPECT_EQ(a, fire(source, p, e)) << "event " << e;
  }

  const auto packet = echo6_packet(64);
  auto source6 = canonical<runtime::GeneratedIcmp6Responder>(
      core::canonical_icmp6_run());
  auto copy6 = source6;
  for (std::size_t e = 0; e < kIcmp6Events; ++e) {
    const Reply a = fire6(copy6, packet, e);
    ASSERT_TRUE(a.has_value()) << "icmp6 event " << e;
    EXPECT_EQ(a, fire6(source6, packet, e)) << "icmp6 event " << e;
  }
}

TEST(RespondPath, AddFunctionOnACopyChangesOnlyTheCopy) {
  const Packets4 p;
  const sim::ResponderContext request{kRouter, p.echo};

  // Registering a missing name.
  auto source = without_echo();
  auto copy = source;
  for (const auto& fn : core::canonical_icmp_run().functions) {
    if (fn.name == "icmp_echo_or_echo_reply_receiver") copy.add_function(fn);
  }
  EXPECT_TRUE(copy.has_function("icmp_echo_or_echo_reply_receiver"));
  EXPECT_FALSE(source.has_function("icmp_echo_or_echo_reply_receiver"));
  EXPECT_EQ(copy.function_count(), source.function_count() + 1);
  const Reply original = copy.on_echo_request(request);
  ASSERT_TRUE(original.has_value());
  EXPECT_FALSE(source.on_echo_request(request).has_value());

  // Replacing a registered name.
  auto replaced = copy;
  replaced.add_function(echo_setting_code_7());
  const Reply changed = replaced.on_echo_request(request);
  ASSERT_TRUE(changed.has_value());
  EXPECT_EQ((*changed)[20 + 1], 7);
  EXPECT_EQ(copy.on_echo_request(request), original);
}

TEST(RespondPath, ACopysDiagnosticsStayItsOwn) {
  const Packets4 p;
  const auto source = without_echo();
  auto copy = source;
  EXPECT_TRUE(copy.last_errors().empty());
  EXPECT_FALSE(copy.on_echo_request({kRouter, p.echo}).has_value());
  EXPECT_EQ(copy.last_errors().size(), 1u);
  EXPECT_TRUE(source.last_errors().empty());
}

TEST(RespondPath, ACopyKeepsAnsweringAfterItsSourceIsDestroyed) {
  const Packets4 p;
  std::optional<runtime::GeneratedIcmpResponder> source =
      canonical<runtime::GeneratedIcmpResponder>(core::canonical_icmp_run());
  std::vector<Reply> expected;
  for (std::size_t e = 0; e < kIcmpEvents; ++e) {
    expected.push_back(fire(*source, p, e));
  }
  runtime::GeneratedIcmpResponder copy = *source;
  source.reset();
  for (std::size_t e = 0; e < kIcmpEvents; ++e) {
    const Reply reply = fire(copy, p, e);
    ASSERT_TRUE(reply.has_value()) << "event " << e;
    EXPECT_EQ(reply, expected[e]) << "event " << e;
  }
}

}  // namespace
}  // namespace sage
