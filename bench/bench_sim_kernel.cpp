// Event-queue simulator kernel throughput (not a paper artifact).
//
// The kernel runs pre-built probe batches on star topologies of 16, 256,
// and 1024 hosts. Two workloads, measured kernel-time only (packet
// building and transient clears happen outside the timed region):
//   * sweep (gated): every host probes an unassigned address in a far
//     subnet, so packets route through the core and fall off the edge.
//     No responder runs; the workload isolates node resolution and hop
//     dispatch.
//   * ping mix (informational): hosts echo-ping peers across subnets,
//     adding responder reply construction and the reply leg's capture.
//
// Before timing, each (workload, hosts) pair replays batch 0 on a fresh
// topology and hashes its capture: FNV-1a over every entry's node name,
// a 0 separator, and its packet bytes. The digest must equal the pin
// recorded when the seed's synchronous kernel was retired, from runs in
// which both kernels captured the same bytes. A throughput number from a
// drifted run can never land in the JSON.
//
// Gate: sweep events/s at 1024 hosts must be at least 0.5x sweep
// events/s at 256 hosts, both from this run. Per-event cost has to stay
// flat in topology size; a kernel that scans the topology on every hop
// loses about 4x per 4x hosts (the retired synchronous kernel measured
// about 0.2x here).
//
// Results go through benchutil::Scorecard to BENCH_sim_kernel.json
// (EXPERIMENTS.md records a run), copied into bench/results/. Exit is
// nonzero if a capture digest moves or the scale gate fails.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "sim/network.hpp"
#include "sim/ping.hpp"
#include "sim/topology.hpp"

using namespace sage;
using namespace sage::sim;

namespace {

constexpr int kReps = 5;
constexpr int kRounds = 8;  // probe batches per repetition
constexpr double kScaleGate = 0.5;

enum class Workload { kSweep, kPingMix };

/// One pre-built probe batch: (source host index, packet bytes) pairs.
/// Batches depend only on (workload, host count).
std::vector<std::pair<std::size_t, std::vector<std::uint8_t>>> build_batch(
    const Topology& topo, Workload workload, int round) {
  const std::size_t n = topo.hosts.size();
  std::vector<std::pair<std::size_t, std::vector<std::uint8_t>>> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t src = i;
    net::IpAddr dst;
    if (workload == Workload::kSweep) {
      // Probe host addresses that were never assigned: star subnets hold
      // at most 128 hosts at .1+, so .200 upward in a *different* subnet
      // routes through the core and falls off the far edge.
      const std::size_t subnets = (n + 127) / 128;
      const std::size_t far = (i / 128 + 1) % subnets;
      dst = net::IpAddr(10, static_cast<std::uint8_t>(far >> 8),
                        static_cast<std::uint8_t>(far & 255),
                        static_cast<std::uint8_t>(200 + (i % 50)));
    } else {
      dst = topo.hosts[(i + n / 2) % n]->address();
    }
    PingOptions opts;
    opts.sequence = static_cast<std::uint16_t>(round * 1024 + i);
    batch.emplace_back(src, PingClient::make_echo_request(
                                topo.hosts[src]->address(), dst, opts));
  }
  return batch;
}

struct Measurement {
  double best_eps = 0.0;
  std::uint64_t events = 0;  // per batch-set
};

/// Replays kRounds batches, timing only the send loop. clear_transient()
/// between rounds (untimed) keeps the capture from growing unboundedly.
Measurement measure(Topology& topo, Workload workload) {
  Network& net = topo.net;
  const std::uint64_t before = net.events_processed();
  double elapsed_ms = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    const auto batch = build_batch(topo, workload, round);
    const double t0 = benchutil::now_ms();
    for (const auto& [src, packet] : batch) {
      net.send_from_host(*topo.hosts[src], packet);
    }
    elapsed_ms += benchutil::now_ms() - t0;
    net.clear_transient();
  }
  Measurement m;
  m.events = net.events_processed() - before;
  m.best_eps = static_cast<double>(m.events) / (elapsed_ms / 1000.0);
  return m;
}

/// FNV-1a of batch 0's (node, packet) capture sequence on a fresh star.
std::uint64_t batch0_capture_digest(std::size_t hosts, Workload workload) {
  Topology topo = make_star(hosts);
  for (const auto& [src, packet] : build_batch(topo, workload, 0)) {
    topo.net.send_from_host(*topo.hosts[src], packet);
  }
  std::uint64_t h = 1469598103934665603ULL;
  const auto fold = [&h](std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ULL;
  };
  for (const auto& entry : topo.net.capture()) {
    for (const char c : entry.node) fold(static_cast<std::uint8_t>(c));
    fold(0);
    for (const std::uint8_t b : entry.packet) fold(b);
  }
  return h;
}

}  // namespace

int main() {
  benchutil::title("Simulator kernel throughput",
                   "event-queue kernel, star topologies");

  benchutil::Scorecard card("sim_kernel");
  card.obj("workloads",
           benchutil::Json()
               .str("sweep", "probes to unassigned far-subnet addresses; "
                             "routing-only, no responder")
               .str("ping-mix", "cross-subnet echo sessions"))
      .str("method", benchutil::fmt("pre-built batches, kernel send loop "
                                    "timed only, best of %d reps x %d rounds",
                                    kReps, kRounds));
  std::vector<benchutil::Json> points;
  bool all_pinned = true;
  double sweep_eps[3] = {};  // per kHosts entry

  constexpr std::size_t kHosts[] = {16, 256, 1024};
  const struct {
    Workload workload;
    const char* name;
    std::uint64_t digests[3];  // batch-0 capture pins, one per kHosts entry
  } workloads[] = {
      {Workload::kSweep,
       "sweep",
       {0x2e1d5bed575f5258ULL, 0xc22d4c233f1473c7ULL, 0x88f6afc871444f89ULL}},
      {Workload::kPingMix,
       "ping-mix",
       {0x990b3bfe8ba0c7cdULL, 0x35ead3107dbb5f71ULL, 0x9f38872de6f4e699ULL}},
  };

  for (const auto& w : workloads) {
    for (std::size_t k = 0; k < 3; ++k) {
      const std::size_t hosts = kHosts[k];
      const std::uint64_t digest = batch0_capture_digest(hosts, w.workload);
      const bool pinned = digest == w.digests[k];
      all_pinned = all_pinned && pinned;

      Topology topo = make_star(hosts);
      (void)measure(topo, w.workload);  // warmup
      Measurement ev;
      for (int r = 0; r < kReps; ++r) {
        const Measurement e = measure(topo, w.workload);
        if (e.best_eps > ev.best_eps) ev.best_eps = e.best_eps;
        ev.events = e.events;
      }
      if (w.workload == Workload::kSweep) sweep_eps[k] = ev.best_eps;
      const auto digest_text = benchutil::fmt(
          "%016llx", static_cast<unsigned long long>(digest));
      points.push_back(benchutil::Json()
                           .str("workload", w.name)
                           .num("hosts", hosts)
                           .num("events", ev.events)
                           .num("event_eps", ev.best_eps)
                           .str("capture_digest", "0x" + digest_text));
      benchutil::row(std::string(w.name) + " " + std::to_string(hosts) +
                         " hosts",
                     benchutil::fmt("%9.0f ev/s   capture %s%s", ev.best_eps,
                                    digest_text.c_str(),
                                    pinned ? "" : "  CAPTURE DRIFTED"));
    }
  }

  benchutil::rule();
  const double scale = sweep_eps[1] > 0.0 ? sweep_eps[2] / sweep_eps[1] : 0.0;
  card.arr("points", points).num("sweep_scale_1024_vs_256", scale, 2);
  card.gate("sweep_scale", scale >= kScaleGate,
            benchutil::fmt("%.2fx sweep ev/s, 1024 vs 256 hosts (>= %.1fx)",
                           scale, kScaleGate));
  card.gate("capture_pinned", all_pinned,
            all_pinned ? "batch-0 captures match their pins"
                       : "see rows above");
  return card.finish();
}
