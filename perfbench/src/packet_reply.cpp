// packet_reply: the §6.2 interop path. Generated ICMP responders from
// core::canonical_icmp_run() sit on the router and both servers of
// pre-built Appendix-A networks, one network per router behaviour (plain,
// ToS must be zero, full outbound interface). The generated ICMPv6
// responder from core::canonical_icmp6_run() is called directly. One op
// is one seeded packet, from injection until its reply lands.
//
// Oracle: the op's whole capture (ICMPv6: the reply) is byte-equal to
// what sim::ReferenceIcmpResponder / ReferenceIcmp6Responder produce for
// the same packet, computed during set-up.
//
// Traced run: sim.send spans the injection, runtime.respond wraps each
// responder call, and the call's three stages (SchemaExecEnv factory,
// vm::execute, finish_reply) are replayed on the call's own packet and
// attached as its children; a replay whose reply differs from the
// responder's fails the op. The run then probes the fuzz layer
// (fuzz_layers.cpp), whose cases are packets answered by the same
// generated responders.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "codegen/generator.hpp"
#include "codegen/lowering.hpp"
#include "core/generated_icmp.hpp"
#include "net/icmp.hpp"
#include "net/ipv4.hpp"
#include "net/ipv6.hpp"
#include "runtime/generated_responder.hpp"
#include "runtime/generated_responder6.hpp"
#include "runtime/schema_env.hpp"
#include "runtime/vm/exec.hpp"
#include "sim/network.hpp"
#include "sim/reference_responder.hpp"
#include "sim/reference_responder6.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace sage;
using Reply = std::optional<std::vector<std::uint8_t>>;

enum class Kind : std::uint8_t {
  kEcho, kTimestamp, kInfo, kTtl1, kUnroutable, kTos, kQuench, kRedirect,
  kV6Echo, kV6Unreachable, kV6TooBig, kV6TimeExceeded, kV6ParamProblem,
};
constexpr std::size_t kKinds = 13;
constexpr const char* kKindNames[kKinds] = {
    "echo", "timestamp", "info", "ttl1", "unroutable", "tos", "quench",
    "redirect", "v6_echo", "v6_unreachable", "v6_too_big", "v6_time_exceeded",
    "v6_param_problem"};

bool is_v6(Kind k) { return k >= Kind::kV6Echo; }

/// Router behaviour the packet needs (index into the network triple).
enum NetIndex : std::size_t { kPlain = 0, kTosZero = 1, kFullOutbound = 2 };

std::size_t network_for(Kind k) {
  if (k == Kind::kTos) return kTosZero;
  if (k == Kind::kQuench) return kFullOutbound;
  return kPlain;
}

const net::IpAddr kClient(10, 0, 1, 100);
const net::IpAddr kNodes[] = {
    net::IpAddr(10, 0, 1, 1),      net::IpAddr(192, 168, 2, 1),
    net::IpAddr(172, 64, 3, 1),    net::IpAddr(192, 168, 2, 100),
    net::IpAddr(172, 64, 3, 100),
};
const net::IpAddr kServer1(192, 168, 2, 100);
const net::Ip6Addr kClient6 = net::Ip6Addr::from_groups(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1);
const net::Ip6Addr kServer6 = net::Ip6Addr::from_groups(0x2001, 0xdb8, 0, 0, 0, 0, 0, 2);

constexpr std::size_t kPayloadMax = 1400;
constexpr std::size_t kPackets = 4096;
/// peak_rss_mb is read after this many packets (~0.4 s on a 4-vCPU Xeon,
/// before the first set-up slice of a 30 s loop adds a second set-up's
/// state).
constexpr std::uint64_t kRssPackets = 1u << 18;

struct PacketCase {
  Kind kind = Kind::kEcho;
  std::vector<std::uint8_t> bytes;
  std::uint8_t code = 0;     // ICMPv6 error code
  std::uint8_t pointer = 0;  // ICMPv6 parameter-problem pointer
  std::vector<sim::OwnedCaptureEntry> expected_capture;  // IPv4 kinds
  Reply expected_reply;                                  // IPv6 kinds
};

std::vector<std::uint8_t> random_bytes(util::SplitMix64& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

std::vector<std::uint8_t> ipv4_icmp(net::IpAddr dst, std::uint8_t ttl,
                                    std::uint8_t tos, const net::IcmpMessage& m,
                                    std::uint16_t id) {
  net::Ipv4Header ip;
  ip.src = kClient;
  ip.dst = dst;
  ip.ttl = ttl;
  ip.tos = tos;
  ip.identification = id;
  ip.protocol = static_cast<std::uint8_t>(net::IpProto::kIcmp);
  return net::build_ipv4_packet(ip, m.serialize());
}

std::vector<std::uint8_t> ipv6_echo(util::SplitMix64& rng, std::uint8_t hop_limit) {
  net::Ipv6Header ip;
  ip.src = kClient6;
  ip.dst = kServer6;
  ip.hop_limit = hop_limit;
  ip.next_header = net::kIpProtoIcmp6;
  std::vector<std::uint8_t> msg(8, 0);
  msg[0] = 128;
  util::put_be16({msg.data() + 4, 2}, static_cast<std::uint16_t>(rng.next()));
  util::put_be16({msg.data() + 6, 2}, static_cast<std::uint16_t>(rng.next()));
  const auto data = random_bytes(rng, rng.below(kPayloadMax + 1));
  msg.insert(msg.end(), data.begin(), data.end());
  util::put_be16({msg.data() + 2, 2}, net::icmp6_checksum(ip.src, ip.dst, msg));
  return net::build_ipv6_packet(ip, msg);
}

PacketCase make_case(Kind kind, std::size_t echo_node, util::SplitMix64& rng) {
  PacketCase c;
  c.kind = kind;
  net::IcmpMessage m;
  m.type = net::IcmpType::kEcho;
  m.set_identifier(static_cast<std::uint16_t>(rng.next()));
  m.set_sequence_number(static_cast<std::uint16_t>(rng.next()));
  const auto id = static_cast<std::uint16_t>(rng.next());
  const auto payload = [&] { return random_bytes(rng, rng.below(kPayloadMax + 1)); };
  const net::IpAddr any_node = kNodes[rng.below(std::size(kNodes))];
  switch (kind) {
    case Kind::kEcho:
      m.payload = payload();
      c.bytes = ipv4_icmp(kNodes[echo_node], 64, 0, m, id);
      break;
    case Kind::kTimestamp:
      m.type = net::IcmpType::kTimestamp;
      m.set_timestamps(static_cast<std::uint32_t>(rng.below(86400000)), 0, 0);
      c.bytes = ipv4_icmp(any_node, 64, 0, m, id);
      break;
    case Kind::kInfo:
      m.type = net::IcmpType::kInformationRequest;
      c.bytes = ipv4_icmp(any_node, 64, 0, m, id);
      break;
    case Kind::kTtl1:
      m.payload = payload();
      c.bytes = ipv4_icmp(kNodes[3 + rng.below(2)], 1, 0, m, id);
      break;
    case Kind::kUnroutable:
      m.payload = payload();
      c.bytes = ipv4_icmp(net::IpAddr(203, 0, 113, static_cast<std::uint8_t>(
                                                       1 + rng.below(250))),
                          64, 0, m, id);
      break;
    case Kind::kTos:
      m.payload = payload();
      c.bytes = ipv4_icmp(kServer1, 64,
                          static_cast<std::uint8_t>(1 + rng.below(255)), m, id);
      break;
    case Kind::kQuench:
      m.payload = payload();
      c.bytes = ipv4_icmp(kServer1, 64, 0, m, id);
      break;
    case Kind::kRedirect:
      m.payload = payload();
      c.bytes = ipv4_icmp(
          net::IpAddr(10, 0, 1, static_cast<std::uint8_t>(2 + rng.below(90))), 64,
          0, m, id);
      break;
    case Kind::kV6TimeExceeded:
      c.code = static_cast<std::uint8_t>(rng.below(2));
      c.bytes = ipv6_echo(rng, 1);
      break;
    default:  // the other ICMPv6 events take any datagram as the trigger
      c.code = static_cast<std::uint8_t>(
          rng.below(kind == Kind::kV6Unreachable ? 5 : 3));
      c.pointer = static_cast<std::uint8_t>(rng.next());
      c.bytes = ipv6_echo(rng, 64);
      break;
  }
  return c;
}

/// The seeded packet mix: blocks of 17 — an echo to each of the five
/// Appendix-A addresses, each other ICMP scenario once, and each ICMPv6
/// event once — shuffled within the block, so every seed sends the same
/// proportions.
std::vector<PacketCase> make_cases(std::uint64_t seed) {
  util::SplitMix64 rng(seed);
  std::vector<std::pair<Kind, std::size_t>> block;
  for (std::size_t node = 0; node < std::size(kNodes); ++node) {
    block.emplace_back(Kind::kEcho, node);
  }
  for (std::size_t k = 1; k < kKinds; ++k) block.emplace_back(static_cast<Kind>(k), 0);
  std::vector<PacketCase> cases;
  cases.reserve(kPackets);
  while (cases.size() < kPackets) {
    for (std::size_t i = block.size(); i > 1; --i) {
      std::swap(block[i - 1], block[rng.below(i)]);
    }
    for (const auto& [kind, node] : block) {
      if (cases.size() < kPackets) cases.push_back(make_case(kind, node, rng));
    }
  }
  return cases;
}

/// The three Appendix-A networks with `responder` on router and servers.
std::vector<sim::Network> make_networks(sim::IcmpResponder* responder) {
  std::vector<sim::Network> nets;
  for (std::size_t i = 0; i < 3; ++i) {
    nets.push_back(sim::make_appendix_a_network());
    sim::Network& net = nets.back();
    net.router()->set_responder(responder);
    net.find_host("server1")->set_responder(responder);
    net.find_host("server2")->set_responder(responder);
  }
  nets[kTosZero].router()->behavior().require_tos_zero = true;
  nets[kFullOutbound].router()->behavior().full_outbound_interface = 1;
  return nets;
}

void send(sim::Network& net, sim::Host& client, const PacketCase& c) {
  if (c.kind == Kind::kRedirect) {
    net.send_from_host_via_router("client", c.bytes);
  } else {
    net.send_from_host(client, c.bytes);
  }
}

Reply call6(sim::Icmp6Responder& r, const PacketCase& c) {
  const sim::Responder6Context ctx{kServer6, c.bytes};
  switch (c.kind) {
    case Kind::kV6Echo: return r.on_echo_request(ctx);
    case Kind::kV6Unreachable: return r.on_destination_unreachable(ctx, c.code);
    case Kind::kV6TooBig: return r.on_packet_too_big(ctx);
    case Kind::kV6TimeExceeded: return r.on_time_exceeded(ctx, c.code);
    default: return r.on_parameter_problem(ctx, c.code, c.pointer);
  }
}

bool capture_matches(const std::vector<sim::CaptureEntry>& got,
                     const std::vector<sim::OwnedCaptureEntry>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].node != want[i].node ||
        !std::equal(got[i].packet.begin(), got[i].packet.end(),
                    want[i].packet.begin(), want[i].packet.end())) {
      return false;
    }
  }
  return true;
}

// ---- traced-run replay of the responder's stages ----------------------------

/// Which responder event a call was, and its extra argument.
enum class Event : std::uint8_t {
  kEcho, kTimestamp, kInfo, kUnreachable, kTimeExceeded, kParamProblem,
  kQuench, kRedirect,
};
constexpr const char* kEventNames[] = {"echo",       "timestamp",     "info",
                                       "unreachable", "time_exceeded", "param_problem",
                                       "quench",      "redirect"};

/// The generated handler an event runs and how its env is prepared —
/// the same table runtime/generated_responder{,6}.cpp applies.
struct Handler {
  const runtime::vm::Program* program = nullptr;
  bool from_incoming = false;
  std::string scenario;
};

struct Call {
  Event event;
  std::span<const std::uint8_t> packet;
  net::IpAddr own;
  std::uint8_t code = 0;
  net::IpAddr gateway;
  std::int32_t span = -1;
  Reply reply;  // what the responder answered, for the replay to match
};

class Programs {
 public:
  Programs(const core::ProtocolRun& run4, const core::ProtocolRun& run6) {
    for (const auto* run : {&run4, &run6}) {
      for (const auto& fn : run->functions) {
        if (auto p = runtime::vm::compile(fn)) {
          programs_.emplace(fn.name, std::move(*p));
        }
      }
    }
  }
  const runtime::vm::Program* find(const char* protocol, const char* message,
                                   const char* role) const {
    const auto it = programs_.find(
        codegen::CodeGenerator::function_name(protocol, message, role));
    return it == programs_.end() ? nullptr : &it->second;
  }

 private:
  std::map<std::string, runtime::vm::Program> programs_;
};

Handler handler4(const Programs& p, const Call& call) {
  switch (call.event) {
    case Event::kEcho:
      return {p.find("ICMP", "Echo or Echo Reply Message", "receiver"), true,
              "echo reply message"};
    case Event::kTimestamp:
      return {p.find("ICMP", "Timestamp or Timestamp Reply Message", "receiver"),
              true, "timestamp reply message"};
    case Event::kInfo:
      return {p.find("ICMP", "Information Request or Information Reply Message",
                     "receiver"),
              true, "information reply message"};
    case Event::kUnreachable: {
      static const char* kScenario[] = {
          "net unreachable", "host unreachable", "protocol unreachable",
          "port unreachable", "fragmentation needed and df set",
          "source route failed"};
      return {p.find("ICMP", "Destination Unreachable Message", "sender"), false,
              call.code < 6 ? kScenario[call.code] : "net unreachable"};
    }
    case Event::kTimeExceeded:
      return {p.find("ICMP", "Time Exceeded Message", "sender"), false,
              "time to live exceeded in transit"};
    case Event::kParamProblem:
      return {p.find("ICMP", "Parameter Problem Message", "sender"), false,
              "pointer indicates the error"};
    case Event::kQuench:
      return {p.find("ICMP", "Source Quench Message", "sender"), false,
              "source quench"};
    case Event::kRedirect:
      return {p.find("ICMP", "Redirect Message", "sender"), false,
              "redirect datagrams for the host"};
  }
  return {};
}

Handler handler6(const Programs& p, const PacketCase& c) {
  switch (c.kind) {
    case Kind::kV6Echo:
      return {p.find("ICMP6", "Echo or Echo Reply Message", "receiver"), true,
              "echo reply message"};
    case Kind::kV6Unreachable: {
      static const char* kScenario[] = {
          "no route to destination",
          "communication with destination administratively prohibited",
          "beyond scope of source address", "address unreachable",
          "port unreachable"};
      return {p.find("ICMP6", "Destination Unreachable Message", "sender"), false,
              c.code < 5 ? kScenario[c.code] : "no route to destination"};
    }
    case Kind::kV6TooBig:
      return {p.find("ICMP6", "Packet Too Big Message", "sender"), false,
              "packet too big"};
    case Kind::kV6TimeExceeded:
      return {p.find("ICMP6", "Time Exceeded Message", "sender"), false,
              c.code == 1 ? "fragment reassembly time exceeded"
                          : "hop limit exceeded in transit"};
    default: {
      static const char* kScenario[] = {"erroneous header field encountered",
                                        "unrecognized next header type encountered",
                                        "unrecognized ipv6 option encountered"};
      return {p.find("ICMP6", "Parameter Problem Message", "sender"), false,
              c.code < 3 ? kScenario[c.code] : "erroneous header field encountered"};
    }
  }
}

struct StageNames {
  std::uint32_t send = span_name("sim.send");
  std::uint32_t env = span_name("runtime.env_build");
  std::uint32_t exec = span_name("runtime.vm_exec");
  std::uint32_t serialize = span_name("runtime.serialize");
  std::uint32_t op[kKinds];
  std::uint32_t respond4[std::size(kEventNames)];
  std::uint32_t respond6[kKinds];
  StageNames() {
    for (std::size_t k = 0; k < kKinds; ++k) {
      op[k] = span_name(std::string("op:") + kKindNames[k]);
      respond6[k] = span_name(std::string("runtime.respond:") + kKindNames[k]);
    }
    for (std::size_t e = 0; e < std::size(kEventNames); ++e) {
      respond4[e] = span_name(std::string("runtime.respond:") + kEventNames[e]);
    }
  }
};

/// Replay one responder call's stages; returns the replayed reply.
Reply replay(const Handler& h, bool v6, std::span<const std::uint8_t> packet,
             net::IpAddr own4, std::uint8_t pointer, net::IpAddr gateway,
             bool set_pointer, bool set_gateway, SpanLog& log,
             const StageNames& n, std::int32_t parent) {
  if (h.program == nullptr) return std::nullopt;
  const std::int64_t t0 = now_ns();
  auto env = v6 ? runtime::SchemaExecEnv::icmp6(packet, kServer6, h.from_incoming)
                : runtime::SchemaExecEnv::icmp(packet, own4, h.from_incoming);
  if (!env.valid()) return std::nullopt;
  env.set_scenario(h.scenario);
  if (set_pointer) env.set_error_pointer(pointer);
  if (set_gateway) env.set_better_gateway(gateway);
  const std::int64_t t1 = now_ns();
  const runtime::ExecResult result = runtime::vm::execute(*h.program, env);
  const std::int64_t t2 = now_ns();
  Reply reply;
  if (result.ok) reply = env.finish_reply();
  const std::int64_t t3 = now_ns();
  log.add_replay(n.env, parent, t1 - t0);
  log.add_replay(n.exec, parent, t2 - t1);
  log.add_replay(n.serialize, parent, t3 - t2);
  return reply;
}

/// Wraps the generated responder on the traced networks: each call gets
/// a runtime.respond span and is remembered for its replay.
class TracingResponder : public sim::IcmpResponder {
 public:
  TracingResponder(sim::IcmpResponder* inner, const StageNames& names)
      : inner_(inner), names_(names) {
    calls.reserve(16);
  }

  SpanLog* log = nullptr;
  std::int32_t parent = -1;
  std::uint64_t op = 0;
  std::vector<Call> calls;

  Reply on_echo_request(const sim::ResponderContext& ctx) override {
    return record(Event::kEcho, ctx, 0, {},
                  [&] { return inner_->on_echo_request(ctx); });
  }
  Reply on_timestamp_request(const sim::ResponderContext& ctx) override {
    return record(Event::kTimestamp, ctx, 0, {},
                  [&] { return inner_->on_timestamp_request(ctx); });
  }
  Reply on_information_request(const sim::ResponderContext& ctx) override {
    return record(Event::kInfo, ctx, 0, {},
                  [&] { return inner_->on_information_request(ctx); });
  }
  Reply on_destination_unreachable(const sim::ResponderContext& ctx,
                                   std::uint8_t code) override {
    return record(Event::kUnreachable, ctx, code, {},
                  [&] { return inner_->on_destination_unreachable(ctx, code); });
  }
  Reply on_time_exceeded(const sim::ResponderContext& ctx) override {
    return record(Event::kTimeExceeded, ctx, 0, {},
                  [&] { return inner_->on_time_exceeded(ctx); });
  }
  Reply on_parameter_problem(const sim::ResponderContext& ctx,
                             std::uint8_t pointer) override {
    return record(Event::kParamProblem, ctx, pointer, {},
                  [&] { return inner_->on_parameter_problem(ctx, pointer); });
  }
  Reply on_source_quench(const sim::ResponderContext& ctx) override {
    return record(Event::kQuench, ctx, 0, {},
                  [&] { return inner_->on_source_quench(ctx); });
  }
  Reply on_redirect(const sim::ResponderContext& ctx, net::IpAddr gateway) override {
    return record(Event::kRedirect, ctx, 0, gateway,
                  [&] { return inner_->on_redirect(ctx, gateway); });
  }

 private:
  template <class Fn>
  Reply record(Event event, const sim::ResponderContext& ctx, std::uint8_t code,
               net::IpAddr gateway, Fn&& fn) {
    const std::int32_t span =
        log->begin(names_.respond4[static_cast<std::size_t>(event)], parent, op);
    Reply reply = fn();
    log->end(span);
    calls.push_back(
        {event, ctx.triggering_packet, ctx.own_address, code, gateway, span, reply});
    return reply;
  }

  sim::IcmpResponder* inner_;
  const StageNames& names_;
};

struct Setup {
  std::vector<PacketCase> cases;
  std::unique_ptr<runtime::GeneratedIcmpResponder> gen4;
  std::unique_ptr<runtime::GeneratedIcmp6Responder> gen6;
  std::vector<sim::Network> nets;
};

Setup make_setup(std::uint64_t seed) {
  Setup s;
  s.cases = make_cases(seed);
  s.gen4 = std::make_unique<runtime::GeneratedIcmpResponder>();
  for (const auto& fn : core::canonical_icmp_run().functions) s.gen4->add_function(fn);
  s.gen6 = std::make_unique<runtime::GeneratedIcmp6Responder>();
  for (const auto& fn : core::canonical_icmp6_run().functions) s.gen6->add_function(fn);
  s.nets = make_networks(s.gen4.get());

  sim::ReferenceIcmpResponder ref4;
  sim::ReferenceIcmp6Responder ref6;
  std::vector<sim::Network> ref_nets = make_networks(&ref4);
  for (PacketCase& c : s.cases) {
    if (is_v6(c.kind)) {
      c.expected_reply = call6(ref6, c);
      continue;
    }
    sim::Network& net = ref_nets[network_for(c.kind)];
    send(net, *net.find_host("client"), c);
    c.expected_capture = sim::own_capture(net.capture());
    net.clear_transient();
  }
  return s;
}

}  // namespace

WorkloadResult run_packet_reply(const Options& options) {
  WorkloadResult result;
  result.tail_q = 0.99;
  // The generated handlers come from the memoized canonical pipeline
  // runs; build them before set-up so every set-up repetition is alike.
  core::canonical_icmp_run();
  core::canonical_icmp6_run();

  SetupTimer setups([&] { return make_setup(options.seed); });
  Setup s = setups.first();
  RssProbe rss(kRssPackets);
  QuietCpu quiet;
  std::vector<sim::Host*> clients;
  for (auto& net : s.nets) clients.push_back(net.find_host("client"));

  // One op: inject, run to quiescence, check against the reference.
  const auto run_op = [&](const PacketCase& c, const PacketCase& expect,
                          std::int64_t* ns) {
    if (is_v6(c.kind)) {
      const std::int64_t t0 = now_ns();
      const Reply reply = call6(*s.gen6, c);
      *ns = now_ns() - t0;
      return reply == expect.expected_reply;
    }
    sim::Network& net = s.nets[network_for(c.kind)];
    const std::int64_t t0 = now_ns();
    send(net, *clients[network_for(c.kind)], c);
    *ns = now_ns() - t0;
    const bool ok = capture_matches(net.capture(), expect.expected_capture);
    net.clear_transient();
    return ok;
  };

  // Oracle self-test: a reply checked against another packet's expected
  // bytes (a corrupted expectation) must be counted as a failure.
  {
    std::int64_t ns = 0;
    PacketCase corrupted = s.cases[0];
    if (is_v6(corrupted.kind)) {
      if (corrupted.expected_reply && !corrupted.expected_reply->empty()) {
        corrupted.expected_reply->back() ^= 1;
      }
    } else if (!corrupted.expected_capture.empty()) {
      corrupted.expected_capture.back().packet.back() ^= 1;
    }
    const bool clean = run_op(s.cases[0], s.cases[0], &ns);
    result.self_test_flagged = clean && !run_op(s.cases[0], corrupted, &ns);
  }

  std::size_t next = 0;
  const auto measure = [&](double seconds, Samples* samples) {
    const std::int64_t start = now_ns();
    const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
    *samples = Samples(start, seconds);
    std::int64_t ns = 0;
    while (now_ns() < deadline) {
      setups.tick(start, seconds);
      quiet.maybe_repin();
      for (int i = 0; i < 64; ++i) {
        const PacketCase& c = s.cases[next];
        next = (next + 1) % s.cases.size();
        ++result.attempted;
        try {
          if (!run_op(c, c, &ns)) ++result.failed;
          samples->add(ns, 1.0, now_ns());
        } catch (const std::exception& e) {
          report_exception(e);
          ++result.failed;
          for (auto& net : s.nets) net.clear_transient();
        }
      }
      rss.tick(result.attempted);
    }
  };

  if (!options.trace) {
    measure(options.seconds, &result.ops);
  } else {
    Samples untraced;
    measure(options.seconds * kUntracedShare, &untraced);

    const StageNames n;
    const Programs programs(core::canonical_icmp_run(), core::canonical_icmp6_run());
    TracingResponder tracer(s.gen4.get(), n);
    std::vector<sim::Network> traced_nets = make_networks(&tracer);
    std::vector<sim::Host*> traced_clients;
    for (auto& net : traced_nets) traced_clients.push_back(net.find_host("client"));
    SpanLog log;
    tracer.log = &log;

    double v4_ops = 0;
    double events = 0;
    double allocs = 0;
    const codegen::ExecStats exec_before = codegen::exec_stats();
    codegen::ExecStats exec_replays{};
    const double traced_s = options.seconds * (1 - kUntracedShare);
    const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(traced_s * 1e9);
    result.ops = Samples(now_ns(), traced_s);
    while (now_ns() < deadline && !log.full()) {
      quiet.maybe_repin();
      const PacketCase& c = s.cases[next];
      next = (next + 1) % s.cases.size();
      const std::uint64_t op = result.attempted++;
      const auto kind = static_cast<std::size_t>(c.kind);
      const std::uint64_t allocs_before = thread_allocs();
      bool ok = false;
      std::int64_t t0 = 0;
      std::int64_t t1 = 0;
      try {
        if (is_v6(c.kind)) {
          t0 = now_ns();
          const std::int32_t root = log.add(n.op[kind], -1, op, t0, t0);
          const std::int32_t respond = log.add(n.respond6[kind], root, op, t0, t0);
          const Reply reply = call6(*s.gen6, c);
          t1 = now_ns();
          log.end_at(root, t1);
          log.end_at(respond, t1);
          allocs += static_cast<double>(thread_allocs() - allocs_before);
          ok = reply == c.expected_reply;
          const codegen::ExecStats before = codegen::exec_stats();
          const Reply again = replay(handler6(programs, c), true, c.bytes, {}, c.pointer,
                                     {}, c.kind == Kind::kV6ParamProblem, false, log,
                                     n, respond);
          const codegen::ExecStats after = codegen::exec_stats();
          exec_replays.ops_executed += after.ops_executed - before.ops_executed;
          exec_replays.slow_path_entries +=
              after.slow_path_entries - before.slow_path_entries;
          ok = ok && again == reply;
        } else {
          sim::Network& net = traced_nets[network_for(c.kind)];
          const std::size_t events_before = net.events_processed();
          tracer.calls.clear();
          t0 = now_ns();
          const std::int32_t root = log.add(n.op[kind], -1, op, t0, t0);
          tracer.parent = log.add(n.send, root, op, t0, t0);
          tracer.op = op;
          send(net, *traced_clients[network_for(c.kind)], c);
          t1 = now_ns();
          log.end_at(root, t1);
          log.end_at(tracer.parent, t1);
          allocs += static_cast<double>(thread_allocs() - allocs_before);
          events += static_cast<double>(net.events_processed() - events_before);
          ++v4_ops;
          ok = capture_matches(net.capture(), c.expected_capture);
          // A stage replay that answers differently from the responder
          // timed another handler: the op fails.
          for (const Call& call : tracer.calls) {
            const codegen::ExecStats before = codegen::exec_stats();
            const Reply again = replay(handler4(programs, call), false, call.packet,
                                       call.own, call.code, call.gateway,
                                       call.event == Event::kParamProblem,
                                       call.event == Event::kRedirect, log, n, call.span);
            const codegen::ExecStats after = codegen::exec_stats();
            exec_replays.ops_executed += after.ops_executed - before.ops_executed;
            exec_replays.slow_path_entries +=
                after.slow_path_entries - before.slow_path_entries;
            ok = ok && again == call.reply;
          }
          net.clear_transient();
        }
      } catch (const std::exception& e) {
        report_exception(e);
        ++result.failed;
        for (auto& net : traced_nets) net.clear_transient();
        continue;
      }
      if (!ok) ++result.failed;
      result.ops.add(t1 - t0, 1.0, t1);
    }
    const codegen::ExecStats exec_after = codegen::exec_stats();

    const TraceSummary t = summarize({&log});
    const double ops = static_cast<double>(t.count_of("op"));
    const double calls = static_cast<double>(t.count_of("runtime.respond"));
    auto& m = result.layer;
    m["runtime.respond_ns"] = t.total_of("runtime.respond") / calls;
    m["runtime.env_build_ns"] = t.self_of("runtime.env_build") / calls;
    m["runtime.vm_exec_ns"] = t.self_of("runtime.vm_exec") / calls;
    m["runtime.serialize_ns"] = t.self_of("runtime.serialize") / calls;
    m["runtime.dispatch_glue_ns"] = t.self_of("runtime.respond") / calls;
    m["sim.hop_ns"] = v4_ops > 0 ? t.self_of("sim.send") / v4_ops : 0.0;
    m["runtime.vm_ops_per_reply"] =
        static_cast<double>(exec_after.ops_executed - exec_before.ops_executed -
                            exec_replays.ops_executed) / ops;
    m["runtime.slow_path_per_reply"] =
        static_cast<double>(exec_after.slow_path_entries -
                            exec_before.slow_path_entries -
                            exec_replays.slow_path_entries) / ops;
    m["sim.events_per_reply"] = v4_ops > 0 ? events / v4_ops : 0.0;
    m["reply.allocs_per_packet"] = allocs / ops;
    m["sim.arena_high_water_bytes"] =
        static_cast<double>(sim::Network::peak_arena_high_water());
    finish_trace(options, {&log}, untraced.quantile_us(0.5),
                 result.ops.quantile_us(0.5), result);
    measure_fuzz_layers(options.seed, result);
  }

  result.peak_rss_mb = rss.mb();
  setups.finish(result);
  result.names[0] = "reply_pps";
  result.names[1] = "reply_ns_p50";
  result.names[2] = "reply_ns_p99";
  result.latency_scale = 1e3;
  result.latency_unit = "ns";
  return result;
}

}  // namespace perfbench
