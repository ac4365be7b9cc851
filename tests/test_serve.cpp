// serve wire protocol + daemon tests (ISSUE PR 9 satellite 1):
//   * frame codec round-trip property tests — 1k random frames per kind
//     through the SchemaRegistry-backed encode/decode,
//   * the codec reads back through the registry's own read_wire (the
//     dogfood pin: the daemon's wire format IS a schema layer),
//   * truncated / oversized / bad-magic / bad-version rejection pins,
//   * end-to-end jobs over the loopback transport asserting
//     protocol_run_signature equality with direct Sage calls,
//   * FaultyNetwork-style seeded corruption: 500 malformed frames, each
//     answered with a well-formed error frame, no crash (the serve-smoke
//     ASan preset runs this file),
//   * StatsSnapshot and the sim::Network clear_transient refusal counter
//     (satellite 4).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/batch.hpp"
#include "core/sage.hpp"
#include "corpus/rfc792.hpp"
#include "fuzz/differential.hpp"
#include "net/schema.hpp"
#include "serve/client.hpp"
#include "serve/frame.hpp"
#include "serve/server.hpp"
#include "serve/soak.hpp"
#include "serve/stats.hpp"
#include "serve/transport.hpp"
#include "sim/network.hpp"
#include "util/digest.hpp"
#include "util/rng.hpp"

namespace sage::serve {
namespace {

using net::schema::SchemaRegistry;

const std::vector<FrameKind>& all_kinds() {
  static const std::vector<FrameKind> kinds = {
      FrameKind::kParseRequest, FrameKind::kCodegenRequest,
      FrameKind::kInteropRequest, FrameKind::kFuzzRequest,
      FrameKind::kStatsRequest, FrameKind::kGoodbye,
      FrameKind::kResult, FrameKind::kStatsResult, FrameKind::kError};
  return kinds;
}

Frame random_frame(util::SplitMix64& rng, FrameKind kind) {
  Frame frame;
  frame.kind = kind;
  frame.job_id = static_cast<std::uint32_t>(rng.next());
  frame.status = static_cast<JobStatus>(rng.below(5));
  frame.flags = static_cast<std::uint8_t>(rng.below(2));
  frame.time_micros = static_cast<std::uint32_t>(rng.next());
  const std::size_t length = rng.below(64);
  frame.payload.resize(length);
  for (std::size_t i = 0; i < length; ++i) {
    frame.payload[i] = static_cast<char>(rng.below(256));
  }
  return frame;
}

// ---- codec property tests --------------------------------------------------

TEST(ServeFrameCodec, RoundTripsRandomFramesForEveryKind) {
  util::SplitMix64 rng(0x5e7e5e7eULL);
  for (const FrameKind kind : all_kinds()) {
    for (int i = 0; i < 1000; ++i) {
      const Frame frame = random_frame(rng, kind);
      const std::vector<std::uint8_t> image = encode_frame(frame);
      ASSERT_EQ(image.size(), kHeaderBytes + frame.payload.size());
      Frame decoded;
      ASSERT_EQ(decode_frame(image, &decoded), DecodeStatus::kOk);
      EXPECT_EQ(decoded.kind, frame.kind);
      EXPECT_EQ(decoded.job_id, frame.job_id);
      EXPECT_EQ(decoded.status, frame.status);
      EXPECT_EQ(decoded.flags, frame.flags);
      EXPECT_EQ(decoded.time_micros, frame.time_micros);
      EXPECT_EQ(decoded.payload, frame.payload);
    }
  }
}

TEST(ServeFrameCodec, HeaderFieldsReadBackThroughTheRegistry) {
  // The dogfood pin: the frame header is the registry's `serve` layer,
  // so read_wire must see exactly what encode_frame wrote.
  util::SplitMix64 rng(0xd06f00dULL);
  const auto& reg = SchemaRegistry::instance();
  for (int i = 0; i < 100; ++i) {
    const Frame frame = random_frame(rng, FrameKind::kResult);
    const std::vector<std::uint8_t> image = encode_frame(frame);
    const std::span<const std::uint8_t> header(image.data(), kHeaderBytes);
    EXPECT_EQ(reg.read_wire("serve", "magic", header).value, kMagic);
    EXPECT_EQ(reg.read_wire("serve", "version", header).value, kWireVersion);
    EXPECT_EQ(reg.read_wire("serve", "kind", header).value,
              static_cast<long>(frame.kind));
    EXPECT_EQ(reg.read_wire("serve", "job_id", header).value,
              static_cast<long>(frame.job_id));
    EXPECT_EQ(reg.read_wire("serve", "status", header).value,
              static_cast<long>(frame.status));
    EXPECT_EQ(reg.read_wire("serve", "flags", header).value,
              static_cast<long>(frame.flags));
    EXPECT_EQ(reg.read_wire("serve", "time_micros", header).value,
              static_cast<long>(frame.time_micros));
    EXPECT_EQ(reg.read_wire("serve", "payload_length", header).value,
              static_cast<long>(frame.payload.size()));
    EXPECT_EQ(reg.read_wire("serve", "reserved", header).value, 0);
  }
}

TEST(ServeFrameCodec, SchemaRegistersTheServeLayerAndProtocol) {
  const auto& reg = SchemaRegistry::instance();
  const auto* layer = reg.layer("serve");
  ASSERT_NE(layer, nullptr);
  EXPECT_EQ(layer->header_bytes, kHeaderBytes);
  EXPECT_TRUE(layer->has_payload);
  ASSERT_NE(reg.field("serve", "magic"), nullptr);
  EXPECT_EQ(reg.field("serve", "magic")->bit_width, 16u);
  EXPECT_EQ(reg.field("serve", "job_id")->bit_offset, 32u);
  EXPECT_EQ(reg.field("serve", "payload_length")->bit_offset, 112u);
  // The SERVE protocol entry names the frame kinds as schema symbols.
  const std::string dump = reg.dump();
  EXPECT_NE(dump.find("serve"), std::string::npos);
  EXPECT_NE(dump.find("SERVE"), std::string::npos);
}

// ---- rejection pins --------------------------------------------------------

TEST(ServeFrameCodec, RejectsBadMagic) {
  Frame frame;
  frame.kind = FrameKind::kParseRequest;
  std::vector<std::uint8_t> image = encode_frame(frame);
  image[0] ^= 0xff;
  Frame out;
  EXPECT_EQ(decode_frame(image, &out), DecodeStatus::kBadMagic);
}

TEST(ServeFrameCodec, RejectsBadVersion) {
  Frame frame;
  frame.kind = FrameKind::kParseRequest;
  std::vector<std::uint8_t> image = encode_frame(frame);
  image[2] = 0x7f;  // version byte (bits 16..23)
  Frame out;
  EXPECT_EQ(decode_frame(image, &out), DecodeStatus::kBadVersion);
}

TEST(ServeFrameCodec, RejectsReservedBits) {
  Frame frame;
  std::vector<std::uint8_t> image = encode_frame(frame);
  image[kHeaderBytes - 1] = 1;  // reserved (bits 144..159)
  Frame out;
  EXPECT_EQ(decode_frame(image, &out), DecodeStatus::kBadReserved);
}

TEST(ServeFrameCodec, RejectsTruncatedHeader) {
  const std::vector<std::uint8_t> image = encode_frame(Frame{});
  Frame out;
  for (std::size_t n = 0; n < kHeaderBytes; ++n) {
    EXPECT_EQ(decode_frame({image.data(), n}, &out),
              DecodeStatus::kShortHeader);
  }
}

TEST(ServeFrameCodec, RejectsOversizedPayloadLength) {
  Frame frame;
  std::vector<std::uint8_t> image = encode_frame(frame);
  // payload_length sits at bits 112..143 (bytes 14..17); write > 2^24.
  image[14] = 0x02;
  image[15] = 0x00;
  image[16] = 0x00;
  image[17] = 0x01;
  Frame out;
  EXPECT_EQ(decode_frame(image, &out), DecodeStatus::kOversized);
}

TEST(ServeFrameCodec, RejectsShortAndTrailingPayload) {
  Frame frame;
  frame.payload = "hello";
  std::vector<std::uint8_t> image = encode_frame(frame);
  Frame out;
  EXPECT_EQ(decode_frame({image.data(), image.size() - 1}, &out),
            DecodeStatus::kShortPayload);
  image.push_back(0);
  EXPECT_EQ(decode_frame(image, &out), DecodeStatus::kTrailingBytes);
}

TEST(ServeFrameCodec, ResultDigestIgnoresSchedulingFields) {
  Frame a;
  a.kind = FrameKind::kResult;
  a.payload = "corpus=icmp";
  Frame b = a;
  b.job_id = 999;
  b.flags = Frame::kFlagCacheHit;
  b.time_micros = 123456;
  EXPECT_EQ(result_digest(a), result_digest(b));
  b.payload = "corpus=igmp";
  EXPECT_NE(result_digest(a), result_digest(b));
}

// ---- end-to-end over loopback ----------------------------------------------

class ServeLoopbackTest : public ::testing::Test {
 protected:
  Client connect(Server& server) {
    auto [client_end, server_end] = make_loopback_pair();
    server.serve_connection_async(std::move(server_end));
    return Client(std::move(client_end));
  }
};

TEST_F(ServeLoopbackTest, ParseJobMatchesDirectSageSignature) {
  Server server({.jobs = 2});
  Client client = connect(server);
  const Frame response = client.parse("icmp");
  ASSERT_EQ(response.status, JobStatus::kOk);
  ASSERT_EQ(response.kind, FrameKind::kResult);

  core::Sage sage;
  sage.annotate_non_actionable(corpus::icmp_non_actionable_annotations());
  const core::ProtocolRun direct =
      sage.process(corpus::rfc792_revised(), "ICMP");
  const std::string expected =
      hex64(util::fnv1a_str(core::protocol_run_signature(direct)));
  EXPECT_NE(response.payload.find("signature=" + expected), std::string::npos)
      << response.payload;
  EXPECT_NE(response.payload.find("functions=" +
                                  std::to_string(direct.functions.size())),
            std::string::npos);
}

TEST_F(ServeLoopbackTest, CodegenJobIsCachedOnSecondRequest) {
  Server server({.jobs = 2});
  Client client = connect(server);
  const Frame first = client.codegen("ntp");
  const Frame second = client.codegen("ntp");
  ASSERT_EQ(first.status, JobStatus::kOk);
  ASSERT_EQ(second.status, JobStatus::kOk);
  EXPECT_FALSE(first.cache_hit());
  EXPECT_TRUE(second.cache_hit());
  // Identical results either way — cache temperature is not observable
  // in the digest.
  EXPECT_EQ(result_digest(first), result_digest(second));
}

TEST_F(ServeLoopbackTest, InteropJobPingsTheGeneratedResponder) {
  Server server({.jobs = 2});
  Client client = connect(server);
  const Frame response = client.interop("icmp");
  ASSERT_EQ(response.status, JobStatus::kOk);
  EXPECT_NE(response.payload.find("ping=pass"), std::string::npos)
      << response.payload;
  EXPECT_NE(response.payload.find("icmp.type = 0"), std::string::npos);
  // Non-ICMP corpora have no runnable responder: a request error, not a
  // server fault.
  const Frame bad = client.interop("ntp");
  EXPECT_EQ(bad.status, JobStatus::kBadRequest);
  EXPECT_EQ(bad.kind, FrameKind::kError);
}

TEST_F(ServeLoopbackTest, FuzzJobMatchesDirectFuzzerLogHash) {
  Server server({.jobs = 2});
  Client client = connect(server);
  const Frame response = client.fuzz("igmp", 7, 40);
  ASSERT_EQ(response.status, JobStatus::kOk);

  fuzz::FuzzOptions options;
  options.protocol = "igmp";
  options.seed = 7;
  options.iterations = 40;
  options.jobs = 1;
  options.minimize = false;
  const fuzz::FuzzReport direct = fuzz::DifferentialFuzzer(options).run();
  EXPECT_NE(response.payload.find("log=" + hex64(direct.log_hash)),
            std::string::npos)
      << response.payload;
}

TEST_F(ServeLoopbackTest, UnknownCorpusAndBadFuzzSpecAreRequestErrors) {
  Server server({.jobs = 1});
  Client client = connect(server);
  EXPECT_EQ(client.parse("no-such-corpus").status, JobStatus::kUnknownCorpus);
  EXPECT_EQ(client.fuzz("icmp", 1, 0).status, JobStatus::kBadRequest);
  EXPECT_EQ(client.fuzz("no-such-proto", 1, 10).status,
            JobStatus::kBadRequest);
  const Frame garbled = client.submit({Client::make_request(
      FrameKind::kFuzzRequest, "seed=banana proto=icmp")})[0];
  EXPECT_EQ(garbled.status, JobStatus::kBadRequest);
  // The connection survived all of it.
  EXPECT_EQ(client.parse("icmp").status, JobStatus::kOk);
}

TEST_F(ServeLoopbackTest, StatsRequestAnswersSnapshotJson) {
  Server server({.jobs = 1});
  Client client = connect(server);
  ASSERT_EQ(client.parse("igmp").status, JobStatus::kOk);
  const Frame stats = client.stats();
  ASSERT_EQ(stats.kind, FrameKind::kStatsResult);
  EXPECT_NE(stats.payload.find("\"pipeline_cache\""), std::string::npos);
  EXPECT_NE(stats.payload.find("\"parse_cache\""), std::string::npos);
  EXPECT_NE(stats.payload.find("\"sim\""), std::string::npos);
}

TEST_F(ServeLoopbackTest, ServerExecuteMatchesLoopbackResponses) {
  // The soak oracle: direct execute() and the full transport path must
  // produce digest-identical responses.
  Server server({.jobs = 2});
  SoakOptions options;
  options.total_jobs = 40;
  options.fuzz_iters = 10;
  const std::vector<Frame> jobs = soak_job_list(options);
  Client client = connect(server);
  const std::vector<Frame> via_wire = client.submit(jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Frame direct = server.execute(jobs[i]);
    if (direct.kind == FrameKind::kStatsResult) continue;  // excluded
    EXPECT_EQ(result_digest(direct), result_digest(via_wire[i])) << i;
  }
}

// ---- malformed-frame battery (FaultyNetwork-style corruption) --------------

TEST_F(ServeLoopbackTest, SurvivesFiveHundredCorruptedFrames) {
  Server server({.jobs = 2});
  util::SplitMix64 rng(0xbadf00dULL);
  std::size_t rejected = 0;
  for (int i = 0; i < 500; ++i) {
    // Start from a valid request, then corrupt or truncate it the way
    // fuzz::FaultyNetwork mangles packets: bit flips at seeded offsets,
    // seeded truncation, or garbage prefixes.
    Frame request = Client::make_request(FrameKind::kParseRequest, "icmp");
    request.job_id = static_cast<std::uint32_t>(i + 1);
    std::vector<std::uint8_t> image = encode_frame(request);
    const std::uint64_t mode = rng.below(3);
    if (mode == 0) {
      const std::size_t flips = 1 + rng.below(4);
      for (std::size_t f = 0; f < flips; ++f) {
        image[rng.below(image.size())] ^=
            static_cast<std::uint8_t>(1u << rng.below(8));
      }
    } else if (mode == 1) {
      image.resize(rng.below(image.size()));
    } else {
      image.insert(image.begin(), static_cast<std::uint8_t>(rng.next()));
    }

    auto [client_end, server_end] = make_loopback_pair();
    server.serve_connection_async(std::move(server_end));
    client_end->write_all(image.data(), image.size());
    client_end->close_write();

    // Whatever the server answers must be well-formed frames; a
    // malformed input elicits exactly one kBadFrame error then EOF.
    std::size_t frames_read = 0;
    for (;;) {
      std::uint8_t header[kHeaderBytes];
      const std::size_t got = client_end->read_exact(header, kHeaderBytes);
      if (got == 0) break;
      ASSERT_EQ(got, kHeaderBytes) << "half a frame from the server";
      Frame response;
      std::size_t payload_length = 0;
      ASSERT_EQ(decode_header({header, kHeaderBytes}, &response,
                              &payload_length),
                DecodeStatus::kOk)
          << "server answered a malformed frame";
      if (payload_length > 0) {
        response.payload.resize(payload_length);
        ASSERT_EQ(client_end->read_exact(
                      reinterpret_cast<std::uint8_t*>(response.payload.data()),
                      payload_length),
                  payload_length);
      }
      ++frames_read;
      if (response.kind == FrameKind::kError &&
          response.status == JobStatus::kBadFrame) {
        ++rejected;
      }
    }
    ASSERT_LE(frames_read, 2u) << "server answered more frames than sent";
    client_end->close();
  }
  // The battery must have actually exercised the rejection path (most
  // corruptions break magic/version/length).
  EXPECT_GT(rejected, 250u);
  EXPECT_EQ(server.stats().frames_rejected, rejected);
}

TEST_F(ServeLoopbackTest, WellFormedUnknownKindKeepsConnectionOpen) {
  Server server({.jobs = 1});
  auto [client_end, server_end] = make_loopback_pair();
  server.serve_connection_async(std::move(server_end));

  Frame bogus;
  bogus.kind = static_cast<FrameKind>(9);  // in no enumerator's range
  bogus.job_id = 1;
  const std::vector<std::uint8_t> image = encode_frame(bogus);
  ASSERT_TRUE(client_end->write_all(image.data(), image.size()));

  std::uint8_t header[kHeaderBytes];
  ASSERT_EQ(client_end->read_exact(header, kHeaderBytes), kHeaderBytes);
  Frame response;
  std::size_t payload_length = 0;
  ASSERT_EQ(decode_header({header, kHeaderBytes}, &response, &payload_length),
            DecodeStatus::kOk);
  EXPECT_EQ(response.kind, FrameKind::kError);
  EXPECT_EQ(response.status, JobStatus::kBadRequest);
  std::vector<std::uint8_t> sink(payload_length);
  ASSERT_EQ(client_end->read_exact(sink.data(), sink.size()), sink.size());

  // Stream still in sync: a real job on the same connection succeeds.
  Frame request = Client::make_request(FrameKind::kStatsRequest, "");
  request.job_id = 2;
  const std::vector<std::uint8_t> image2 = encode_frame(request);
  ASSERT_TRUE(client_end->write_all(image2.data(), image2.size()));
  ASSERT_EQ(client_end->read_exact(header, kHeaderBytes), kHeaderBytes);
  ASSERT_EQ(decode_header({header, kHeaderBytes}, &response, &payload_length),
            DecodeStatus::kOk);
  EXPECT_EQ(response.kind, FrameKind::kStatsResult);
  EXPECT_EQ(response.job_id, 2u);
  client_end->close();
}

// Each arrival joins the threads of connections that have ended, so a
// long-lived server holds the live connection's thread and at most one
// still returning, not one per connection it ever served.
TEST_F(ServeLoopbackTest, FinishedConnectionThreadsAreReaped) {
  Server server({.jobs = 2});
  constexpr int kConnections = 200;
  for (int i = 0; i < kConnections; ++i) {
    auto [client_end, server_end] = make_loopback_pair();
    server.serve_connection_async(std::move(server_end));
    Frame job = Client::make_request(FrameKind::kParseRequest, "bfd");
    job.job_id = 1;
    Frame goodbye = Client::make_request(FrameKind::kGoodbye, "");
    goodbye.job_id = 2;
    for (const Frame& frame : {job, goodbye}) {
      const std::vector<std::uint8_t> image = encode_frame(frame);
      ASSERT_TRUE(client_end->write_all(image.data(), image.size()));
    }
    // The job's answer, then EOF: the server closes its side as the
    // connection's thread returns.
    std::vector<std::uint8_t> answer;
    std::uint8_t byte = 0;
    while (client_end->read_exact(&byte, 1) == 1) answer.push_back(byte);
    Frame response;
    ASSERT_EQ(decode_frame(answer, &response), DecodeStatus::kOk);
    ASSERT_EQ(response.status, JobStatus::kOk);
    client_end->close();
  }
  const StatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.connections, static_cast<std::uint64_t>(kConnections));
  EXPECT_LE(stats.connection_threads, 2u);
  EXPECT_NE(stats.to_json().find("\"connection_threads\": "),
            std::string::npos);
}

// ---- TCP transport ---------------------------------------------------------

TEST(ServeSocket, RoundTripsJobsOverRealSockets) {
  Server server({.jobs = 2});
  SocketAcceptor acceptor(0);
  ASSERT_GT(acceptor.port(), 0);
  std::jthread accept_thread([&] { server.serve_acceptor(acceptor); });
  {
    Client client(connect_socket(acceptor.port()));
    const Frame response = client.parse("bfd");
    EXPECT_EQ(response.status, JobStatus::kOk);
    EXPECT_NE(response.payload.find("corpus=bfd"), std::string::npos);
  }
  acceptor.close();
}

// ---- StatsSnapshot + sim counters (satellite 4) ----------------------------

TEST(ServeStats, SnapshotJsonCarriesEveryGroup) {
  ccg::ParseCache cache(64);
  const StatsSnapshot snap = StatsSnapshot::capture(&cache);
  const std::string json = snap.to_json();
  for (const char* key :
       {"\"serve\"", "\"pipeline_cache\"", "\"parse_cache\"", "\"exec\"",
        "\"sim\"", "\"capacity\": 64"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(ServeStats, ClearTransientRefusalIsCountedAndMachineReadable) {
  const std::uint64_t before = sim::Network::total_transient_clear_refusals();
  sim::Network network = sim::make_appendix_a_network();
  EXPECT_EQ(network.transient_clear_refusals(), 0u);

  // Schedule without draining: clear_transient must refuse the arena
  // rewind (queued images still view it) and say so in the counter
  // instead of silently leaking the refusal.
  const std::vector<std::uint8_t> packet(28, 0);
  network.schedule_from_host("client", packet, 1000, true);
  network.clear_transient();
  EXPECT_EQ(network.transient_clear_refusals(), 1u);
  EXPECT_EQ(sim::Network::total_transient_clear_refusals(), before + 1);

  // Drained queue: reclaim proceeds, no new refusal.
  network.run();
  network.clear_transient();
  EXPECT_EQ(network.transient_clear_refusals(), 1u);

  const StatsSnapshot snap = StatsSnapshot::capture(nullptr);
  EXPECT_GE(snap.sim_clear_refusals, before + 1);
  EXPECT_GT(snap.sim_peak_arena_high_water, 0u);
}

}  // namespace
}  // namespace sage::serve
