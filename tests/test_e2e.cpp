// End-to-end evaluation (§6.2): SAGE-generated ICMP code, produced from
// the revised RFC 792 text, is installed in the simulated router and
// hosts (the Mininet substitute) and driven by the Linux-tool models.
//
//   * packet-capture verification: every packet in the capture decodes
//     cleanly under the tcpdump model (no warnings or errors);
//   * interop: ping (echo), ping to an unknown subnet (destination
//     unreachable), ping with TTL 1 (time exceeded), and traceroute all
//     behave as with the reference implementation;
//   * all eight message types produce correct packets (Appendix A
//     scenarios).
#include <gtest/gtest.h>

#include "core/generated_icmp.hpp"
#include "core/sage.hpp"
#include "net/icmp.hpp"
#include "corpus/rfc5880.hpp"
#include "corpus/rfc792.hpp"
#include "runtime/bfd_session.hpp"
#include "runtime/generated_responder.hpp"
#include "sim/inspector.hpp"
#include "sim/network.hpp"
#include "sim/ping.hpp"
#include "sim/traceroute.hpp"

namespace sage {
namespace {

/// The canonical ICMP run (processed once per process), and each test's
/// own copy of its compiled responder.
class GeneratedIcmp : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = sim::make_appendix_a_network();
    net_.router()->set_responder(&responder_);
    net_.find_host("server1")->set_responder(&responder_);
    net_.find_host("server2")->set_responder(&responder_);
  }

  const core::ProtocolRun& run_ = core::canonical_icmp_run();
  runtime::GeneratedIcmpResponder responder_ =
      core::canonical_icmp_responder();
  sim::Network net_;
  sim::PingClient ping_;
};

TEST_F(GeneratedIcmp, PipelineFullyDisambiguatedTheRevisedSpec) {
  EXPECT_EQ(run_.count(core::SentenceStatus::kAmbiguous), 0u);
  EXPECT_EQ(run_.count(core::SentenceStatus::kZeroForms), 0u);
  // 11 functions: sender for all 8 messages + receiver for the three
  // request/reply messages.
  EXPECT_EQ(run_.functions.size(), 11u);
}

// ---- interop with the Linux tool models (the four commands of §6.2) -----

TEST_F(GeneratedIcmp, PingRouterEchoInterop) {
  const auto result = ping_.ping(net_, "client", net::IpAddr(10, 0, 1, 1));
  EXPECT_TRUE(result.success) << (result.detail.empty() ? "" : result.detail[0]);
}

TEST_F(GeneratedIcmp, PingServerThroughRouter) {
  const auto result =
      ping_.ping(net_, "client", net::IpAddr(192, 168, 2, 100));
  EXPECT_TRUE(result.success) << (result.detail.empty() ? "" : result.detail[0]);
}

TEST_F(GeneratedIcmp, PingUnknownSubnetYieldsDestinationUnreachable) {
  sim::PingOptions opts;
  opts.expect = sim::PingExpect::kDestinationUnreachable;
  const auto result = ping_.ping(net_, "client", net::IpAddr(8, 8, 8, 8), opts);
  EXPECT_TRUE(result.success) << (result.detail.empty() ? "" : result.detail[0]);
}

TEST_F(GeneratedIcmp, TtlLimitedPingYieldsTimeExceeded) {
  sim::PingOptions opts;
  opts.ttl = 1;
  opts.expect = sim::PingExpect::kTimeExceeded;
  const auto result =
      ping_.ping(net_, "client", net::IpAddr(192, 168, 2, 100), opts);
  EXPECT_TRUE(result.success) << (result.detail.empty() ? "" : result.detail[0]);
}

TEST_F(GeneratedIcmp, TracerouteInterop) {
  sim::TracerouteClient tr;
  const auto result = tr.trace(net_, "client", net::IpAddr(192, 168, 2, 100));
  ASSERT_TRUE(result.reached_destination);
  ASSERT_EQ(result.hops.size(), 2u);
  EXPECT_EQ(result.hops[0].responder, net::IpAddr(10, 0, 1, 1));
  EXPECT_TRUE(result.hops[1].is_destination);
}

// ---- packet-capture verification (tcpdump model, §6.2) -------------------

TEST_F(GeneratedIcmp, AllCapturedPacketsAreClean) {
  // Exercise several scenarios, then check the whole capture.
  ping_.ping(net_, "client", net::IpAddr(192, 168, 2, 100));
  sim::PingOptions unreachable;
  unreachable.expect = sim::PingExpect::kDestinationUnreachable;
  ping_.ping(net_, "client", net::IpAddr(8, 8, 8, 8), unreachable);
  sim::TracerouteClient tr;
  tr.trace(net_, "client", net::IpAddr(172, 64, 3, 100));

  sim::PacketInspector inspector;
  const auto results = inspector.inspect_pcap(net_.capture_to_pcap());
  ASSERT_GT(results.size(), 6u);
  for (const auto& r : results) {
    EXPECT_TRUE(r.clean()) << r.summary << ": "
                           << (r.warnings.empty()
                                   ? (r.errors.empty() ? "" : r.errors[0])
                                   : r.warnings[0]);
  }
}

// ---- the remaining Appendix A scenarios -----------------------------------

/// Decode the last reply in a host's inbox as (ip, icmp).
std::pair<net::Ipv4Header, net::IcmpMessage> last_reply(sim::Host* host) {
  EXPECT_FALSE(host->inbox().empty());
  const auto& reply = host->inbox().back();
  const auto ip = net::Ipv4Header::parse(reply);
  EXPECT_TRUE(ip.has_value());
  const auto icmp = net::IcmpMessage::parse(
      std::span<const std::uint8_t>(reply).subspan(ip->header_length()));
  EXPECT_TRUE(icmp.has_value());
  return {*ip, *icmp};
}

TEST_F(GeneratedIcmp, ParameterProblemScenario) {
  net_.router()->behavior().require_tos_zero = true;
  net::Ipv4Header ip;
  ip.tos = 1;
  ip.protocol = static_cast<std::uint8_t>(net::IpProto::kIcmp);
  ip.src = net::IpAddr(10, 0, 1, 100);
  ip.dst = net::IpAddr(192, 168, 2, 100);
  net::IcmpMessage icmp;
  icmp.type = net::IcmpType::kEcho;
  icmp.payload = sim::PingClient::make_payload(56);
  net_.send_from_host("client", net::build_ipv4_packet(ip, icmp.serialize()));

  const auto [rip, ricmp] = last_reply(net_.find_host("client"));
  EXPECT_EQ(ricmp.type, net::IcmpType::kParameterProblem);
  EXPECT_EQ(ricmp.code, 0);
  EXPECT_EQ(ricmp.pointer(), 1);  // the TOS octet
  EXPECT_GE(ricmp.payload.size(), 28u);  // quoted header + 64 bits
}

TEST_F(GeneratedIcmp, SourceQuenchScenario) {
  net_.router()->behavior().full_outbound_interface = 1;
  const auto request = sim::PingClient::make_echo_request(
      net::IpAddr(10, 0, 1, 100), net::IpAddr(192, 168, 2, 100), {});
  net_.send_from_host("client", request);
  const auto [rip, ricmp] = last_reply(net_.find_host("client"));
  EXPECT_EQ(ricmp.type, net::IcmpType::kSourceQuench);
  EXPECT_EQ(ricmp.code, 0);
}

TEST_F(GeneratedIcmp, RedirectScenario) {
  const net::IpAddr same_subnet(10, 0, 1, 50);
  const auto request = sim::PingClient::make_echo_request(
      net::IpAddr(10, 0, 1, 100), same_subnet, {});
  net_.send_from_host_via_router("client", request);
  const auto [rip, ricmp] = last_reply(net_.find_host("client"));
  EXPECT_EQ(ricmp.type, net::IcmpType::kRedirect);
  EXPECT_EQ(ricmp.code, 1);  // redirect datagrams for the host
  EXPECT_EQ(ricmp.gateway_address(), same_subnet);
}

TEST_F(GeneratedIcmp, TimestampScenario) {
  net::Ipv4Header ip;
  ip.protocol = static_cast<std::uint8_t>(net::IpProto::kIcmp);
  ip.src = net::IpAddr(10, 0, 1, 100);
  ip.dst = net::IpAddr(10, 0, 1, 1);
  net::IcmpMessage icmp;
  icmp.type = net::IcmpType::kTimestamp;
  icmp.set_identifier(0x42);
  icmp.set_sequence_number(7);
  icmp.set_timestamps(1234, 0, 0);
  net_.send_from_host("client", net::build_ipv4_packet(ip, icmp.serialize()));

  const auto [rip, ricmp] = last_reply(net_.find_host("client"));
  EXPECT_EQ(ricmp.type, net::IcmpType::kTimestampReply);
  EXPECT_EQ(ricmp.identifier(), 0x42);
  EXPECT_EQ(ricmp.sequence_number(), 7);
  EXPECT_EQ(ricmp.originate_timestamp(), 1234u);  // echoed
  EXPECT_NE(ricmp.receive_timestamp(), 0u);       // stamped by the echoer
  EXPECT_NE(ricmp.transmit_timestamp(), 0u);
  EXPECT_EQ(rip.src, net::IpAddr(10, 0, 1, 1));
  EXPECT_EQ(rip.dst, net::IpAddr(10, 0, 1, 100));
}

TEST_F(GeneratedIcmp, InformationRequestScenario) {
  net::Ipv4Header ip;
  ip.protocol = static_cast<std::uint8_t>(net::IpProto::kIcmp);
  ip.src = net::IpAddr(10, 0, 1, 100);
  ip.dst = net::IpAddr(10, 0, 1, 1);
  net::IcmpMessage icmp;
  icmp.type = net::IcmpType::kInformationRequest;
  icmp.set_identifier(0x99);
  net_.send_from_host("client", net::build_ipv4_packet(ip, icmp.serialize()));

  const auto [rip, ricmp] = last_reply(net_.find_host("client"));
  EXPECT_EQ(ricmp.type, net::IcmpType::kInformationReply);
  EXPECT_EQ(ricmp.identifier(), 0x99);
  EXPECT_TRUE(ricmp.payload.empty());  // information messages carry no data
}

TEST_F(GeneratedIcmp, EchoReplyChecksumIsCorrectlyRecomputed) {
  // The advice sentence ("For computing the checksum, the checksum field
  // should be zero") is load-bearing: the reply starts as a mutation of
  // the request, so skipping the zeroing would bake the request's
  // checksum into the sum.
  ping_.ping(net_, "client", net::IpAddr(10, 0, 1, 1));
  const auto [rip, ricmp] = last_reply(net_.find_host("client"));
  const auto& raw = net_.find_host("client")->inbox().back();
  EXPECT_TRUE(net::IcmpMessage::verify_checksum(
      std::span<const std::uint8_t>(raw).subspan(rip.header_length())));
}

}  // namespace
}  // namespace sage

namespace sage {
namespace {

TEST_F(GeneratedIcmp, GeneratedCodeRunsAcrossTwoRouters) {
  // Both routers run only SAGE-generated code; traceroute must see three
  // hops and ping must survive two TTL decrements.
  sim::Network net;
  sim::Router& r1 = net.add_router("r1");
  r1.add_interface(net::IpAddr(10, 0, 1, 1), 24);
  r1.add_interface(net::IpAddr(10, 0, 9, 1), 24);
  r1.add_route(net::IpAddr(192, 168, 2, 0), 24, net::IpAddr(10, 0, 9, 2));
  sim::Router& r2 = net.add_router("r2");
  r2.add_interface(net::IpAddr(10, 0, 9, 2), 24);
  r2.add_interface(net::IpAddr(192, 168, 2, 1), 24);
  r2.add_route(net::IpAddr(10, 0, 1, 0), 24, net::IpAddr(10, 0, 9, 1));
  net.add_host("client", net::IpAddr(10, 0, 1, 100), 24);
  net.add_host("server", net::IpAddr(192, 168, 2, 100), 24);

  r1.set_responder(&responder_);
  r2.set_responder(&responder_);
  net.find_host("server")->set_responder(&responder_);

  sim::PingClient ping;
  const auto echo = ping.ping(net, "client", net::IpAddr(192, 168, 2, 100));
  EXPECT_TRUE(echo.success) << (echo.detail.empty() ? "" : echo.detail[0]);

  sim::TracerouteClient tr;
  const auto trace = tr.trace(net, "client", net::IpAddr(192, 168, 2, 100));
  ASSERT_TRUE(trace.reached_destination);
  ASSERT_EQ(trace.hops.size(), 3u);
  EXPECT_EQ(trace.hops[0].responder, net::IpAddr(10, 0, 1, 1));
  EXPECT_EQ(trace.hops[1].responder, net::IpAddr(10, 0, 9, 2));
  EXPECT_TRUE(trace.hops[2].is_destination);

  sim::PacketInspector inspector;
  EXPECT_TRUE(inspector.all_clean(net.capture_to_pcap()));
}

}  // namespace
}  // namespace sage

namespace sage {
namespace {

TEST(GeneratedBfd, NetworkTransportedHandshake) {
  // Two BFD endpoints on the same subnet exchange real UDP/3784 control
  // packets through the simulator; both run only generated §6.8.6 code.
  core::Sage sage;
  const auto run = sage.process(corpus::rfc5880_state_section(), "BFD");
  ASSERT_EQ(run.functions.size(), 1u);
  const auto& fn = run.functions[0];

  sim::Network net;
  net.add_host("a", net::IpAddr(10, 0, 1, 10), 24);
  net.add_host("b", net::IpAddr(10, 0, 1, 20), 24);
  // Control packets land in the hosts' open UDP sockets; the sessions
  // poll them like a daemon would.
  net.find_host("a")->open_udp_port(net::kBfdControlPort);
  net.find_host("b")->open_udp_port(net::kBfdControlPort);

  runtime::BfdSession session_a(net::IpAddr(10, 0, 1, 10), 101, &fn);
  runtime::BfdSession session_b(net::IpAddr(10, 0, 1, 20), 202, &fn);

  const auto exchange = [&](runtime::BfdSession& from,
                            runtime::BfdSession& to) {
    const auto packet = from.make_control_packet(to.address());
    net.send_from_host(from.address() == net::IpAddr(10, 0, 1, 10) ? "a" : "b",
                       packet);
    // The simulator stored the UDP payload; hand the raw packet to the
    // session (the daemon's receive path).
    ASSERT_TRUE(to.receive(packet));
  };

  EXPECT_EQ(session_a.state().session_state, net::BfdState::kDown);
  exchange(session_a, session_b);  // B: Down + recv Down -> Init
  EXPECT_EQ(session_b.state().session_state, net::BfdState::kInit);
  exchange(session_b, session_a);  // A: Down + recv Init -> Up
  EXPECT_EQ(session_a.state().session_state, net::BfdState::kUp);
  exchange(session_a, session_b);  // B: Init + recv Up -> Up
  EXPECT_EQ(session_b.state().session_state, net::BfdState::kUp);

  // Discriminators learned through the exchange.
  EXPECT_EQ(session_a.state().remote_discr, 202u);
  EXPECT_EQ(session_b.state().remote_discr, 101u);

  // The control packets themselves are clean under the tcpdump model.
  sim::PacketInspector inspector;
  EXPECT_TRUE(inspector.all_clean(net.capture_to_pcap()));
}

// ---- interop on the original RFC 792 text --------------------------------

/// A ping of the Appendix-A router running the handlers generated from
/// `text`, with the network's capture as "<node> <bytes> <summary>" lines
/// and the readings left of the echo-reply sentence.
struct RouterPing {
  sim::PingResult result;
  std::vector<std::string> capture;
  std::size_t echo_reply_readings = 0;
};

RouterPing ping_router(const std::string& text) {
  core::Sage sage;
  sage.annotate_non_actionable(corpus::icmp_non_actionable_annotations());
  const core::ProtocolRun run = sage.process(text, "ICMP");
  runtime::GeneratedIcmpResponder responder;
  for (const auto& fn : run.functions) responder.add_function(fn);
  sim::Network net = sim::make_appendix_a_network();
  net.router()->set_responder(&responder);
  RouterPing out;
  for (const auto& report : run.reports) {
    if (report.sentence.text.starts_with("To form an echo reply message")) {
      out.echo_reply_readings = report.winnow.survivors.size();
    }
  }
  out.result = sim::PingClient().ping(net, "client", net::IpAddr(10, 0, 1, 1));
  const sim::PacketInspector inspector;
  for (const auto& entry : net.capture()) {
    out.capture.push_back(entry.node + " " +
                          std::to_string(entry.packet.size()) + " " +
                          inspector.inspect(entry.packet).summary);
  }
  return out;
}

TEST(OriginalTextInterop, EchoReplyWithoutAddressesNeverArrives) {
  // The original text keeps six readings of "To form an echo reply
  // message, the source and destination addresses are simply reversed,
  // ...", so that sentence generates no code and
  // icmp_echo_or_echo_reply_receiver never sets the reply's addresses.
  // The router sends its echo reply to 0.0.0.0, cannot route it, and
  // answers itself with a 56-byte destination unreachable, which is
  // dropped: the ping only sees silence.
  const RouterPing original = ping_router(corpus::rfc792_original());
  EXPECT_EQ(original.echo_reply_readings, 6u);
  EXPECT_FALSE(original.result.success);
  EXPECT_TRUE(original.result.errors.empty());
  EXPECT_EQ(original.result.detail,
            std::vector<std::string>{"no reply received"});
  EXPECT_TRUE(original.result.reply.empty());
  EXPECT_EQ(original.capture,
            (std::vector<std::string>{
                "client 84 IP 10.0.1.100 > 10.0.1.1: ICMP echo request, id "
                "10775, seq 1, length 64",
                "r 84 IP 10.0.1.1 > 0.0.0.0: ICMP echo reply, id 10775, seq 1, "
                "length 64",
                "r 56 IP 10.0.1.1 > 10.0.1.1: ICMP destination unreachable",
            }));

  // The revised text rewrites the sentence ("In the echo reply message,
  // the source and destination addresses are simply reversed and ..."),
  // and the same ping passes.
  const RouterPing revised = ping_router(corpus::rfc792_revised());
  EXPECT_EQ(revised.echo_reply_readings, 0u);
  EXPECT_TRUE(revised.result.success);
  EXPECT_TRUE(revised.result.detail.empty());
  EXPECT_EQ(revised.capture,
            (std::vector<std::string>{
                "client 84 IP 10.0.1.100 > 10.0.1.1: ICMP echo request, id "
                "10775, seq 1, length 64",
                "r 84 IP 10.0.1.1 > 10.0.1.100: ICMP echo reply, id 10775, seq "
                "1, length 64",
            }));
}

}  // namespace
}  // namespace sage
