#include "serve/soak.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "util/digest.hpp"
#include "util/rng.hpp"

namespace sage::serve {

namespace {

const std::vector<std::string>& fuzz_protocols() {
  static const std::vector<std::string> protos = {"icmp", "igmp", "ntp",
                                                  "bfd", "udp"};
  return protos;
}

}  // namespace

std::vector<Frame> soak_job_list(const SoakOptions& options) {
  std::vector<Frame> jobs;
  jobs.reserve(options.total_jobs);
  util::SplitMix64 rng(options.seed);
  const auto& corpora = known_corpora();
  for (std::size_t i = 0; i < options.total_jobs; ++i) {
    // Mix: mostly cheap cached pipeline jobs, a sprinkle of interop and
    // fuzz. Weights are arbitrary but fixed — part of the digest's
    // identity.
    const std::uint64_t roll = rng.below(100);
    if (roll < 45) {
      jobs.push_back(Client::make_request(
          FrameKind::kParseRequest, corpora[rng.below(corpora.size())]));
    } else if (roll < 75) {
      jobs.push_back(Client::make_request(
          FrameKind::kCodegenRequest, corpora[rng.below(corpora.size())]));
    } else if (roll < 90) {
      // Interop only runs on ICMP corpora; pick between the two.
      jobs.push_back(Client::make_request(
          FrameKind::kInteropRequest, rng.chance(50) ? "icmp" : "icmp-orig"));
    } else {
      const auto& protos = fuzz_protocols();
      std::ostringstream payload;
      payload << "proto=" << protos[rng.below(protos.size())]
              << " seed=" << (1 + rng.below(4))
              << " iters=" << options.fuzz_iters;
      jobs.push_back(
          Client::make_request(FrameKind::kFuzzRequest, payload.str()));
    }
  }
  return jobs;
}

SoakReport run_serve_soak(const SoakOptions& options) {
  SoakReport report;
  report.options = options;

  ServerOptions server_options;
  server_options.jobs = options.server_jobs;
  Server server(server_options);

  const std::vector<Frame> jobs = soak_job_list(options);
  const std::size_t clients = options.clients == 0 ? 1 : options.clients;

  // Round-robin assignment: job i belongs to client i % clients. The
  // digest is folded in global job order afterwards, so the split is
  // cosmetic for determinism and only matters for contention.
  std::vector<std::vector<std::size_t>> assignment(clients);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    assignment[i % clients].push_back(i);
  }

  std::vector<std::uint64_t> digests(jobs.size(), 0);
  std::vector<std::uint8_t> ok(jobs.size(), 0);

  // Progress counter + sampler: one designated stats connection polls a
  // snapshot every stats_every completions. Samples observe a racing
  // server, so they never feed the digest — only the memory gates.
  std::mutex sample_mutex;
  std::size_t completed = 0;
  std::size_t next_sample = options.stats_every;

  auto client_main = [&](std::size_t client_index) {
    auto [client_end, server_end] = make_loopback_pair();
    server.serve_connection_async(std::move(server_end));
    Client client(std::move(client_end));
    const std::vector<std::size_t>& mine = assignment[client_index];
    const std::size_t batch = options.batch == 0 ? 1 : options.batch;
    for (std::size_t start = 0; start < mine.size(); start += batch) {
      const std::size_t count = std::min(batch, mine.size() - start);
      std::vector<Frame> requests;
      requests.reserve(count);
      for (std::size_t k = 0; k < count; ++k) {
        requests.push_back(jobs[mine[start + k]]);
      }
      const std::vector<Frame> responses = client.submit(requests);
      for (std::size_t k = 0; k < count; ++k) {
        const std::size_t slot = mine[start + k];
        digests[slot] = result_digest(responses[k]);
        ok[slot] = responses[k].status == JobStatus::kOk ? 1 : 0;
      }
      bool sample_now = false;
      {
        std::lock_guard lock(sample_mutex);
        completed += count;
        if (options.stats_every > 0 && completed >= next_sample) {
          next_sample += options.stats_every;
          sample_now = true;
        }
      }
      if (sample_now) {
        std::lock_guard lock(sample_mutex);
        report.samples.push_back(server.stats());
      }
    }
  };

  {
    std::vector<std::jthread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back(client_main, c);
    }
  }

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    report.digest = util::fnv1a_str(
        hex64(digests[i]), i == 0 ? util::kFnvOffset : report.digest);
    if (ok[i]) {
      ++report.jobs_ok;
    } else {
      ++report.jobs_failed;
    }
  }

  const StatsSnapshot final_stats = server.stats();
  report.pipeline_hits = final_stats.pipeline_hits;
  report.pipeline_misses = final_stats.pipeline_misses;
  report.parse_cache = final_stats.parse_cache;
  report.clear_refusals = final_stats.sim_clear_refusals;
  report.arena_peak_final = final_stats.sim_peak_arena_high_water;
  report.arena_peak_warm = report.samples.empty()
                               ? report.arena_peak_final
                               : report.samples.front().sim_peak_arena_high_water;
  return report;
}

std::string SoakReport::summary() const {
  std::ostringstream out;
  out << "serve-soak jobs=" << (jobs_ok + jobs_failed) << " ok=" << jobs_ok
      << " failed=" << jobs_failed << " clients=" << options.clients
      << " digest=" << hex64(digest) << " pipeline-hits=" << pipeline_hits
      << " pipeline-misses=" << pipeline_misses
      << " parse-hits=" << parse_cache.hits
      << " parse-misses=" << parse_cache.misses
      << " arena-peak-warm=" << arena_peak_warm
      << " arena-peak-final=" << arena_peak_final
      << " clear-refusals=" << clear_refusals;
  return out.str();
}

}  // namespace sage::serve
