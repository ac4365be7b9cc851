// Properties of the fuzzing subsystem itself: seeded determinism of the
// generator / fault injector / whole differential campaigns (the verdict
// log must be byte-identical across 1, 2, and 8 worker threads — the
// `concurrency` label runs this file under TSan), schema round trips
// over every registry layer, the corpus file format, and a divergence
// self-test proving the capture oracle actually fires on a known-bad
// responder.
#include <gtest/gtest.h>

#include <set>

#include "codegen/lowering.hpp"
#include "eval/students.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/differential.hpp"
#include "net/schema.hpp"
#include "sim/network.hpp"
#include "sim/ping.hpp"
#include "sim/reference_responder.hpp"

namespace sage::fuzz {
namespace {

// ---- rng ------------------------------------------------------------------

TEST(FuzzRng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(FuzzRng, ForkIsIndependentOfParentDraws) {
  // fork(i) must depend only on (seed, i), never on how many draws the
  // parent has made — that is what makes work-stealing order irrelevant.
  Rng parent(7);
  Rng child_before = parent.fork(3);
  (void)parent.next();
  (void)parent.next();
  Rng child_after = Rng(7).fork(3);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(child_before.next(), child_after.next());
  }
}

TEST(FuzzRng, ForksForDistinctStreamsDiffer) {
  Rng seed(9);
  Rng a = seed.fork(0);
  Rng b = seed.fork(1);
  bool any_diff = false;
  for (int i = 0; i < 8; ++i) any_diff |= a.next() != b.next();
  EXPECT_TRUE(any_diff);
}

// ---- generator ------------------------------------------------------------

TEST(PacketGenerator, SameSeedSamePackets) {
  for (const auto& proto : PacketGenerator::known_protocols()) {
    const PacketGenerator gen(proto);
    Rng a(11), b(11);
    for (int i = 0; i < 200; ++i) {
      const FuzzPacket pa = gen.generate(a);
      const FuzzPacket pb = gen.generate(b);
      ASSERT_EQ(pa.bytes, pb.bytes) << proto << " iter " << i;
      EXPECT_EQ(pa.scenario, pb.scenario);
      EXPECT_EQ(pa.mutation, pb.mutation);
      EXPECT_EQ(pa.via_router, pb.via_router);
      EXPECT_EQ(pa.require_tos_zero, pb.require_tos_zero);
      EXPECT_EQ(pa.full_outbound, pb.full_outbound);
    }
  }
}

TEST(PacketGenerator, CoversMutationTaxonomy) {
  // 500 draws must exercise every generator-produced mutation class —
  // if a class silently vanishes the fuzzer loses coverage without any
  // test noticing, so pin it here.
  const PacketGenerator gen("icmp");
  Rng rng(5);
  std::set<MutationKind> seen;
  for (int i = 0; i < 500; ++i) seen.insert(gen.generate(rng).mutation);
  for (const auto kind :
       {MutationKind::kValid, MutationKind::kBoundary, MutationKind::kBitFlip,
        MutationKind::kFieldSwap, MutationKind::kTruncate,
        MutationKind::kOversizePayload, MutationKind::kBadChecksum,
        MutationKind::kBadVersion}) {
    EXPECT_TRUE(seen.count(kind)) << mutation_kind_name(kind);
  }
}

// ---- fault plan / fault injector ------------------------------------------

TEST(FaultPlan, ParseRoundTrip) {
  const auto plan = FaultPlan::parse("loss=5,dup=10,reorder=20,delay=1,corrupt=7");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->loss, 5u);
  EXPECT_EQ(plan->dup, 10u);
  EXPECT_EQ(plan->reorder, 20u);
  EXPECT_EQ(plan->delay, 1u);
  EXPECT_EQ(plan->corrupt, 7u);
  const auto again = FaultPlan::parse(plan->to_string());
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->to_string(), plan->to_string());
}

TEST(FaultPlan, RejectsBadSpecs) {
  std::string error;
  EXPECT_FALSE(FaultPlan::parse("gravity=5", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(FaultPlan::parse("loss", &error).has_value());
  EXPECT_FALSE(FaultPlan::parse("loss=101", &error).has_value());
  EXPECT_FALSE(FaultPlan::parse("loss=x", &error).has_value());
}

TEST(FaultyNetwork, SameRngSameWeather) {
  // Two independent networks fed identical traffic through wrappers that
  // share a fault plan and rng value must end with byte-identical
  // captures — the property the differential harness leans on.
  const FaultPlan plan = *FaultPlan::parse("loss=20,dup=20,reorder=20,corrupt=20");
  const auto run_once = [&] {
    sim::Network net = sim::make_appendix_a_network();
    FaultyNetwork wire(net, plan, Rng(99));
    for (int i = 0; i < 20; ++i) {
      sim::PingOptions opts;
      opts.sequence = static_cast<std::uint16_t>(i + 1);
      wire.send("client",
                sim::PingClient::make_echo_request(net::IpAddr(10, 0, 1, 100),
                                                   net::IpAddr(10, 0, 1, 1),
                                                   opts));
    }
    wire.flush();
    return sim::own_capture(net.capture());
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].node, b[i].node);
    EXPECT_EQ(a[i].packet, b[i].packet);
  }
}

// ---- whole-campaign determinism across thread counts ----------------------

FuzzReport run_campaign(const std::string& proto, std::size_t jobs,
                        const FaultPlan& faults = {}) {
  FuzzOptions options;
  options.protocol = proto;
  options.seed = 5;
  options.iterations = 60;
  options.jobs = jobs;
  options.faults = faults;
  return DifferentialFuzzer(options).run();
}

TEST(DifferentialFuzzer, VerdictLogIndependentOfJobs) {
  for (const char* proto : {"icmp", "icmp6"}) {
    const FuzzReport serial = run_campaign(proto, 1);
    for (const std::size_t jobs : {std::size_t{2}, std::size_t{8}}) {
      const FuzzReport parallel = run_campaign(proto, jobs);
      EXPECT_EQ(parallel.log, serial.log) << proto << " jobs=" << jobs;
      EXPECT_EQ(parallel.log_hash, serial.log_hash);
      EXPECT_EQ(parallel.agree_bytes, serial.agree_bytes);
      EXPECT_EQ(parallel.agree_silent, serial.agree_silent);
    }
  }
}

TEST(DifferentialFuzzer, CasesCompileNoHandlerOnceTheResponderExists) {
  // The first campaign builds the canonical responder; every later case,
  // on any worker, answers on a copy of it and compiles nothing.
  for (const char* proto : {"icmp", "icmp6"}) {
    run_campaign(proto, 1);
    const std::size_t compiled = codegen::exec_stats().programs_compiled;
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
      EXPECT_TRUE(run_campaign(proto, jobs).clean()) << proto;
      EXPECT_EQ(codegen::exec_stats().programs_compiled, compiled)
          << proto << " jobs=" << jobs;
    }
  }
}

TEST(DifferentialFuzzer, VerdictLogIndependentOfJobsUnderFaults) {
  const FaultPlan plan = *FaultPlan::parse("loss=10,dup=10,reorder=10,corrupt=10");
  const FuzzReport serial = run_campaign("icmp", 1, plan);
  const FuzzReport parallel = run_campaign("icmp", 8, plan);
  EXPECT_EQ(parallel.log, serial.log);
  EXPECT_EQ(parallel.log_hash, serial.log_hash);
}

TEST(DifferentialFuzzer, LayerProtocolsDeterministicToo) {
  for (const auto* proto : {"igmp", "ntp", "bfd", "udp"}) {
    const FuzzReport serial = run_campaign(proto, 1);
    const FuzzReport parallel = run_campaign(proto, 4);
    EXPECT_EQ(parallel.log, serial.log) << proto;
    EXPECT_TRUE(serial.clean()) << proto << ": " << serial.summary();
  }
}

// ---- schema round-trip properties -----------------------------------------

TEST(SchemaRoundTrip, EveryLayerReserializesExactly) {
  // 1000 seeded random header images per registry layer: reading every
  // scalar field and writing it into a fresh image must reproduce the
  // original bytes (random_layer_image leaves uncovered bits zero).
  const auto& reg = net::schema::SchemaRegistry::instance();
  Rng rng(1234);
  for (const auto& layer : reg.layers()) {
    if (layer.header_bytes == 0) continue;
    for (int i = 0; i < 1000; ++i) {
      const auto image = random_layer_image(layer, rng);
      EXPECT_EQ(reserialize_layer(layer, image), image)
          << layer.name << " iter " << i;
    }
  }
}

TEST(SchemaRoundTrip, DecodeLinesRebuildTheImage) {
  // The textual decode ("layer.field = value") carries enough
  // information to reconstruct the header image bit-for-bit.
  const auto& reg = net::schema::SchemaRegistry::instance();
  Rng rng(4321);
  for (const auto& layer : reg.layers()) {
    if (layer.header_bytes == 0) continue;
    for (int i = 0; i < 1000; ++i) {
      const auto image = random_layer_image(layer, rng);
      const auto lines = reg.decode_layer(layer.name, image);
      const RebuiltImages rebuilt = images_from_decode(lines);
      EXPECT_TRUE(rebuilt.complete) << layer.name;
      ASSERT_EQ(rebuilt.layers.size(), 1u) << layer.name;
      EXPECT_EQ(rebuilt.layers[0].first, layer.name);
      EXPECT_EQ(rebuilt.layers[0].second, image) << layer.name << " iter " << i;
    }
  }
}

TEST(SchemaRoundTrip, TruncatedImageDecodesAsShortReadNotZero) {
  // The satellite-1 pin at the decode level: a 1-byte ICMP image renders
  // its out-of-range fields as "<short read>", never as fabricated "0".
  const auto& reg = net::schema::SchemaRegistry::instance();
  const std::vector<std::uint8_t> one_byte{8};
  const auto lines = reg.decode_layer("icmp", one_byte);
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines[0], "icmp.type = 8");
  bool any_short = false;
  for (const auto& line : lines) {
    any_short |= line.find("<short read>") != std::string::npos;
    EXPECT_EQ(line.find("checksum = 0"), std::string::npos) << line;
  }
  EXPECT_TRUE(any_short);
  EXPECT_FALSE(images_from_decode(lines).complete);
}

// ---- divergence self-test -------------------------------------------------

TEST(DifferentialOracle, KnownBadResponderProducesDivergentCaptures) {
  // Feed one echo request to two Appendix-A networks under identical
  // (fault-free) weather: reference responder on one, a Table-2 faulty
  // student on the other. The captures must differ — if they did not,
  // the fuzzer's byte-compare oracle would be vacuous.
  const auto request = sim::PingClient::make_echo_request(
      net::IpAddr(10, 0, 1, 100), net::IpAddr(10, 0, 1, 1), {});
  const auto run_with = [&](sim::IcmpResponder* responder) {
    sim::Network net = sim::make_appendix_a_network();
    net.router()->set_responder(responder);
    FaultyNetwork wire(net, FaultPlan{}, Rng(1));
    wire.send("client", request);
    wire.flush();
    return sim::own_capture(net.capture());
  };
  sim::ReferenceIcmpResponder reference;
  eval::FaultyIcmpResponder faulty({eval::Fault::kTruncatedReply});
  const auto ref_cap = run_with(&reference);
  const auto bad_cap = run_with(&faulty);
  ASSERT_FALSE(ref_cap.empty());
  bool differs = ref_cap.size() != bad_cap.size();
  for (std::size_t i = 0; !differs && i < ref_cap.size(); ++i) {
    differs = ref_cap[i].packet != bad_cap[i].packet;
  }
  EXPECT_TRUE(differs);
}

TEST(DifferentialFuzzer, RunCaseIsDeterministic) {
  const PacketGenerator gen("icmp");
  Rng rng(77);
  FuzzOptions options;
  options.protocol = "icmp";
  const DifferentialFuzzer fuzzer(options);
  for (int i = 0; i < 10; ++i) {
    const FuzzPacket pkt = gen.generate(rng);
    const CaseResult a = fuzzer.run_case(pkt, Rng(123));
    const CaseResult b = fuzzer.run_case(pkt, Rng(123));
    EXPECT_EQ(a.verdict, b.verdict);
    EXPECT_EQ(a.capture_hash, b.capture_hash);
    EXPECT_EQ(a.detail, b.detail);
  }
}

// ---- corpus format --------------------------------------------------------

TEST(Corpus, RenderParseRoundTrip) {
  CorpusCase c;
  c.name = "example";
  c.note = "a note line";
  c.packet.protocol = "icmp";
  c.packet.mutation = MutationKind::kHandWritten;
  c.packet.scenario = "example";
  c.packet.via_router = true;
  c.packet.require_tos_zero = true;
  c.packet.full_outbound = 2;
  c.packet.bytes = {0x45, 0x00, 0x00, 0x1c, 0xff, 0x01};
  const std::string text = render_corpus_case(c);
  std::string error;
  const auto parsed = parse_corpus_case("example", text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->note, c.note);
  EXPECT_EQ(parsed->packet.protocol, "icmp");
  EXPECT_EQ(parsed->packet.mutation, MutationKind::kHandWritten);
  EXPECT_TRUE(parsed->packet.via_router);
  EXPECT_TRUE(parsed->packet.require_tos_zero);
  ASSERT_TRUE(parsed->packet.full_outbound.has_value());
  EXPECT_EQ(*parsed->packet.full_outbound, 2u);
  EXPECT_EQ(parsed->packet.bytes, c.packet.bytes);
}

TEST(Corpus, RejectsMalformedCases) {
  std::string error;
  EXPECT_FALSE(parse_corpus_case("x", "bytes:\n45 00\n", &error).has_value())
      << "missing protocol must fail";
  EXPECT_FALSE(
      parse_corpus_case("x", "protocol: quic\nbytes:\n45\n", &error).has_value())
      << "unknown protocol must fail";
  EXPECT_FALSE(
      parse_corpus_case("x", "protocol: icmp\nbytes:\n4z\n", &error).has_value())
      << "bad hex must fail";
  EXPECT_FALSE(parse_corpus_case("x", "protocol: icmp\n", &error).has_value())
      << "missing bytes must fail";
}

}  // namespace
}  // namespace sage::fuzz
