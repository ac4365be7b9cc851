// Zero-copy packet-path smoke: the workload behind the
// `zero-copy-smoke` CMake preset (asan+sim). Drives the soak driver on
// a 256-host star — the full generate → inject → route → deliver →
// capture lifecycle over arena-backed spans — so AddressSanitizer gets
// a real shot at any view that outlives its arena, and pins the soak
// digest goldens recorded before the arena/span refactor landed. It
// also counts the kernel's heap blocks per warm routing round, with the
// replaced global operator new of heap_counter.hpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "heap_counter.hpp"
#include "net/ipv4.hpp"
#include "sim/ping.hpp"
#include "sim/soak.hpp"
#include "sim/topology.hpp"

namespace sage::sim {
namespace {

constexpr std::uint64_t kStar256Digest = 0x572f84e742782cffULL;

SoakReport soak_star256(std::size_t jobs) {
  SoakOptions options;
  options.topology.kind = TopologyKind::kStar;
  options.topology.hosts = 256;
  options.sessions = 60;
  options.seed = 11;
  options.jobs = jobs;
  return run_soak(options);
}

TEST(ZeroCopySmoke, SoakDigestPinnedAcrossJobsAndKernels) {
  // Pre-refactor golden, which the retired synchronous kernel also
  // produced: the arena representation change must be invisible to the
  // digest at every worker count.
  for (const std::size_t jobs : {1u, 2u, 8u}) {
    const SoakReport report = soak_star256(jobs);
    EXPECT_EQ(report.digest, kStar256Digest) << "jobs=" << jobs;
    EXPECT_EQ(report.sessions, 60u);
  }
}

TEST(ZeroCopySmoke, RunArenaReachesSteadyStateUnderTraffic) {
  // A session loop on one Network must stop reserving after warmup:
  // clear_transient() rewinds the arena and the next session's packets
  // land in the retained chunks. Growth here means a leak of arena
  // memory per session — exactly the bug class the pool exists to kill.
  Topology topo = make_star(256);
  PingClient ping;
  const auto session = [&](int round) {
    for (int i = 0; i < 8; ++i) {
      const auto& src = topo.hosts[(round * 8 + i) % topo.hosts.size()];
      const auto& dst =
          topo.hosts[(round * 8 + i + 128) % topo.hosts.size()];
      EXPECT_TRUE(ping.ping(topo.net, src->name(), dst->address()).success);
    }
    topo.net.clear_transient();
  };

  session(0);  // warmup: chunks reserved here
  const std::size_t reserved = topo.net.arena().bytes_reserved();
  ASSERT_GT(reserved, 0u);
  for (int round = 1; round < 20; ++round) {
    session(round);
    ASSERT_EQ(topo.net.arena().bytes_reserved(), reserved)
        << "arena grew in round " << round;
  }
  // After a drained clear_transient, the run holds no live bytes.
  EXPECT_EQ(topo.net.arena().bytes_allocated(), 0u);
}

/// bench_sim_kernel's sweep batch, one probe per host: each host pings a
/// never-assigned address (.200 upward) in a different star subnet, so
/// the probe crosses the core and falls off the far edge. No responder
/// runs, so the round is routing only.
std::vector<std::vector<std::uint8_t>> sweep_batch(const Topology& topo,
                                                   int round) {
  const std::size_t n = topo.hosts.size();
  const std::size_t subnets = (n + 127) / 128;
  std::vector<std::vector<std::uint8_t>> batch;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t far = (i / 128 + 1) % subnets;
    const net::IpAddr dst(10, static_cast<std::uint8_t>(far >> 8),
                          static_cast<std::uint8_t>(far & 255),
                          static_cast<std::uint8_t>(200 + (i % 50)));
    PingOptions opts;
    opts.sequence = static_cast<std::uint16_t>(round * 1024 + i);
    batch.push_back(
        PingClient::make_echo_request(topo.hosts[i]->address(), dst, opts));
  }
  return batch;
}

TEST(ZeroCopySmoke, WarmSweepRoundAllocatesNothing) {
  // Once the first round has sized the arena, the capture log and the
  // event queue, a routing round allocates no heap block on either star:
  // each probe is interned into retained arena chunks and every hop
  // forwards a view. A per-hop or per-event block here is the
  // regression the sweep throughput numbers would only hint at.
  for (const std::size_t hosts : {256u, 1024u}) {
    Topology topo = make_star(hosts);
    for (int round = 0; round < 8; ++round) {
      const auto batch = sweep_batch(topo, round);  // built off the count
      const std::size_t events_before = topo.net.events_processed();
      const std::uint64_t blocks_before = t_heap_blocks;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        topo.net.send_from_host(*topo.hosts[i], batch[i]);
      }
      topo.net.clear_transient();
      const std::uint64_t blocks = t_heap_blocks - blocks_before;
      EXPECT_EQ(topo.net.events_processed() - events_before, 2 * hosts)
          << hosts << " hosts, round " << round;
      if (round > 0) {
        EXPECT_EQ(blocks, 0u) << hosts << " hosts, round " << round;
      }
    }
  }
}

}  // namespace
}  // namespace sage::sim
