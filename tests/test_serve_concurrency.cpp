// serve concurrency battery (ISSUE PR 9 satellite 2; runs under TSan
// via the `concurrency` ctest label):
//   * N clients × M mixed jobs against servers at --jobs 1/2/8 produce
//     byte-identical digests (the determinism contract of
//     docs/SERVICE.md),
//   * cache hit-rate assertions on repeated corpora — the session
//     pipeline cache answers every repeat, the shared ParseCache reuses
//     sentences across the ICMP original/revised pair,
//   * a small soak configuration exercising the full driver
//     (serve/soak.hpp) with stats sampling.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/frame.hpp"
#include "serve/server.hpp"
#include "serve/soak.hpp"
#include "serve/transport.hpp"

namespace sage::serve {
namespace {

Client connect(Server& server) {
  auto [client_end, server_end] = make_loopback_pair();
  server.serve_connection_async(std::move(server_end));
  return Client(std::move(client_end));
}

/// The mixed job list both determinism tests replay: every request kind
/// at every worker count, fuzz jobs on both generated responders as well
/// as a layer protocol, and a burst of interop jobs on one corpus.
std::vector<Frame> mixed_jobs() {
  std::vector<Frame> jobs;
  for (int round = 0; round < 3; ++round) {
    for (const char* corpus : {"icmp", "igmp", "ntp", "bfd", "icmp-orig"}) {
      jobs.push_back(
          Client::make_request(FrameKind::kParseRequest, corpus));
      jobs.push_back(
          Client::make_request(FrameKind::kCodegenRequest, corpus));
    }
    jobs.push_back(Client::make_request(FrameKind::kInteropRequest, "icmp"));
    for (const char* proto : {"udp", "icmp", "icmp6"}) {
      jobs.push_back(Client::make_request(
          FrameKind::kFuzzRequest,
          std::string("proto=") + proto + " seed=3 iters=15"));
    }
  }
  // A burst on one corpus: several workers answer on copies of the same
  // pipeline responder at once.
  for (int i = 0; i < 8; ++i) {
    jobs.push_back(Client::make_request(FrameKind::kInteropRequest, "icmp"));
  }
  return jobs;
}

std::vector<std::uint64_t> run_batch_digests(std::size_t server_jobs,
                                             std::size_t clients) {
  Server server({.jobs = server_jobs});
  const std::vector<Frame> jobs = mixed_jobs();
  // Split round-robin across clients, gather digests back at the job's
  // global index so the result is comparable across client counts.
  std::vector<std::uint64_t> digests(jobs.size(), 0);
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        std::vector<std::size_t> mine;
        std::vector<Frame> requests;
        for (std::size_t i = c; i < jobs.size(); i += clients) {
          mine.push_back(i);
          requests.push_back(jobs[i]);
        }
        Client client = connect(server);
        const std::vector<Frame> responses = client.submit(requests);
        for (std::size_t k = 0; k < mine.size(); ++k) {
          digests[mine[k]] = result_digest(responses[k]);
        }
      });
    }
  }
  return digests;
}

TEST(ServeConcurrency, DigestsAreIdenticalAcrossWorkerAndClientCounts) {
  const std::vector<std::uint64_t> baseline = run_batch_digests(1, 1);
  ASSERT_FALSE(baseline.empty());
  EXPECT_EQ(run_batch_digests(2, 2), baseline);
  EXPECT_EQ(run_batch_digests(8, 4), baseline);
  EXPECT_EQ(run_batch_digests(8, 1), baseline);
}

TEST(ServeConcurrency, ManyClientsShareOnePipelineBuild) {
  Server server({.jobs = 4});
  constexpr std::size_t kClients = 6;
  constexpr std::size_t kJobsPerClient = 8;
  std::vector<std::uint64_t> digests(kClients * kJobsPerClient, 0);
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        Client client = connect(server);
        for (std::size_t k = 0; k < kJobsPerClient; ++k) {
          const Frame response = client.parse("igmp");
          digests[c * kJobsPerClient + k] = result_digest(response);
        }
      });
    }
  }
  // Every one of the 48 responses is identical...
  for (const std::uint64_t d : digests) EXPECT_EQ(d, digests[0]);
  // ...and the pipeline ran at most a handful of times: exactly one
  // build wins the promise; every post-build request is a hit.
  const StatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.pipelines_cached, 1u);
  EXPECT_EQ(stats.pipeline_hits + stats.pipeline_misses,
            kClients * kJobsPerClient);
  EXPECT_GE(stats.pipeline_hits, kClients * kJobsPerClient - kClients);
}

TEST(ServeConcurrency, RepeatedCorporaHitBothCaches) {
  Server server({.jobs = 2});
  Client client = connect(server);
  // Cold: both ICMP corpora (original + revised share most sentences,
  // so the second document's parses come mostly from the shared
  // ParseCache).
  ASSERT_EQ(client.parse("icmp").status, JobStatus::kOk);
  const StatsSnapshot after_first = server.stats();
  ASSERT_EQ(client.parse("icmp-orig").status, JobStatus::kOk);
  const StatsSnapshot after_second = server.stats();
  EXPECT_GT(after_second.parse_cache.hits, after_first.parse_cache.hits);

  // Warm: 20 repeats across both corpora are all pipeline-cache hits —
  // no new parse-cache lookups at all.
  for (int i = 0; i < 10; ++i) {
    const Frame a = client.parse("icmp");
    const Frame b = client.codegen("icmp-orig");
    EXPECT_TRUE(a.cache_hit());
    EXPECT_TRUE(b.cache_hit());
  }
  const StatsSnapshot warm = server.stats();
  EXPECT_EQ(warm.parse_cache.lookups(), after_second.parse_cache.lookups());
  EXPECT_EQ(warm.pipeline_misses, 2u);
  EXPECT_EQ(warm.pipeline_hits, 20u);
}

TEST(ServeConcurrency, SoakDriverIsDeterministicAcrossServerJobs) {
  SoakOptions options;
  options.total_jobs = 120;
  options.clients = 3;
  options.batch = 16;
  options.stats_every = 40;
  options.fuzz_iters = 10;

  options.server_jobs = 1;
  const SoakReport serial = run_serve_soak(options);
  EXPECT_EQ(serial.jobs_failed, 0u);
  EXPECT_EQ(serial.jobs_ok, options.total_jobs);
  EXPECT_FALSE(serial.samples.empty());

  options.server_jobs = 2;
  const SoakReport two = run_serve_soak(options);
  options.server_jobs = 8;
  options.clients = 1;
  const SoakReport eight = run_serve_soak(options);

  EXPECT_EQ(two.digest, serial.digest);
  EXPECT_EQ(eight.digest, serial.digest);
  EXPECT_EQ(two.summary().substr(0, two.summary().find(" pipeline-hits")),
            serial.summary().substr(
                0, serial.summary().find(" pipeline-hits")))
      << "digest-bearing prefix of the summary must match";

  // Warm pipeline cache: ~10% of the mix is fuzz (no pipeline), and of
  // the remaining ~108 pipeline jobs only the first touches (plus
  // concurrent first-touch races) miss.
  EXPECT_GT(serial.pipeline_hits, 90u);
  EXPECT_LT(serial.pipeline_misses, 15u);
  // Memory stability: the process-wide arena peak reached by the first
  // 120-job run never grows across the next 240 jobs (steady state),
  // and no run left queued events that refused arena reclaim.
  EXPECT_EQ(two.arena_peak_final, serial.arena_peak_final);
  EXPECT_EQ(eight.arena_peak_final, serial.arena_peak_final);
  EXPECT_EQ(eight.clear_refusals, serial.clear_refusals);
}

}  // namespace
}  // namespace sage::serve
