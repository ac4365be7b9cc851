// Serve daemon throughput (not a paper artifact).
//
// Measures jobs/second for the same mixed parse+codegen batch in two
// configurations:
//   * one-shot: every job pays a cold process — a fresh Server (empty
//     pipeline cache, empty parse cache) executing exactly one job,
//     which is what `sage_debug <corpus>` costs per invocation,
//   * warm daemon: one Server with a warmed session pipeline cache,
//     batch submitted through a loopback Client, at 1/2/4/8 workers.
//
// The rows separate two effects. The 1-worker row against one-shot is
// memoization: the session caches run and compile each corpus' pipeline
// once, and every later job is a hash lookup. The 2-, 4- and 8-worker
// rows add workers on top, and show the determinism contract holds:
// every configuration's response digests must equal the one-shot run's.
//
// Results and gates go through benchutil::Scorecard to
// BENCH_serve_throughput.json, copied to bench/results/. Exit is nonzero
// if determinism breaks or the warm daemon at 4 workers is below 3x
// one-shot throughput.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "serve/client.hpp"
#include "serve/frame.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"

using namespace sage;

namespace {

/// The benchmark batch: every corpus, parse + codegen, several rounds —
/// the repeated-query workload a daemon exists for.
std::vector<serve::Frame> batch() {
  std::vector<serve::Frame> jobs;
  for (int round = 0; round < 5; ++round) {
    for (const char* corpus : {"icmp", "icmp-orig", "igmp", "ntp", "bfd"}) {
      jobs.push_back(serve::Client::make_request(
          serve::FrameKind::kParseRequest, corpus));
      jobs.push_back(serve::Client::make_request(
          serve::FrameKind::kCodegenRequest, corpus));
    }
  }
  return jobs;
}

std::uint64_t fold_digests(const std::vector<serve::Frame>& responses) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& response : responses) {
    h = serve::fnv1a_str(serve::hex64(serve::result_digest(response)), h);
  }
  return h;
}

}  // namespace

int main() {
  benchutil::title("Serve throughput",
                   "mixed parse+codegen jobs, one-shot CLI vs warm daemon");

  const std::vector<serve::Frame> jobs = batch();

  // One-shot baseline: a cold Server per job — the pipeline re-derived
  // every time, as each `sage_debug` invocation pays it.
  const double oneshot_start = benchutil::now_ms();
  std::vector<serve::Frame> oneshot_responses;
  oneshot_responses.reserve(jobs.size());
  for (const auto& job : jobs) {
    serve::Server cold({.jobs = 1});
    oneshot_responses.push_back(cold.execute(job));
  }
  const double oneshot_ms = benchutil::now_ms() - oneshot_start;
  const std::uint64_t expected = fold_digests(oneshot_responses);
  const double oneshot_jps = 1000.0 * jobs.size() / oneshot_ms;

  benchutil::row("one-shot (cold pipeline per job)",
                 benchutil::fmt("%8.1f jobs/s  (%zu jobs in %.0f ms)",
                                oneshot_jps, jobs.size(), oneshot_ms));
  benchutil::rule();

  std::vector<benchutil::Json> warm_daemon;
  bool all_identical = true;
  double speedup_at_4 = 0.0;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    serve::Server server({.jobs = workers});
    // Warm the session caches outside the timed region: first touch of
    // each corpus builds + compiles its pipeline once per session.
    for (const char* corpus : {"icmp", "icmp-orig", "igmp", "ntp", "bfd"}) {
      server.execute(serve::Client::make_request(
          serve::FrameKind::kParseRequest, corpus));
    }

    auto [client_end, server_end] = serve::make_loopback_pair();
    server.serve_connection_async(std::move(server_end));
    serve::Client client(std::move(client_end));

    const double start = benchutil::now_ms();
    const std::vector<serve::Frame> responses = client.submit(jobs);
    const double ms = benchutil::now_ms() - start;

    const bool identical = fold_digests(responses) == expected;
    const double jps = 1000.0 * jobs.size() / ms;
    const double speedup = jps / oneshot_jps;
    if (workers == 4) speedup_at_4 = speedup;
    all_identical = all_identical && identical;
    warm_daemon.push_back(benchutil::Json()
                              .num("workers", workers)
                              .num("jobs_per_s", jps, 1)
                              .num("speedup_vs_oneshot", speedup, 1));

    benchutil::row("warm daemon, " + std::to_string(workers) + " worker(s)",
                   benchutil::fmt("%8.1f jobs/s   %7.1fx%s", jps, speedup,
                                  identical ? "" : "  DIGESTS DIVERGED"));
  }
  benchutil::rule();

  benchutil::Scorecard card("serve_throughput");
  card.str("workload",
           benchutil::fmt("%zu mixed parse+codegen jobs over 5 corpora",
                          jobs.size()))
      .str("note",
           "the 1-worker row against one-shot is session-cache memoization "
           "(pipeline + handler compilation once per corpus); the 2/4/8-"
           "worker rows add workers, up to machine.nproc cores")
      .num("oneshot_jobs_per_s", oneshot_jps, 1)
      .arr("warm_daemon", warm_daemon);
  card.gate("speedup_3x_at_4_workers", speedup_at_4 >= 3.0,
            benchutil::fmt("%.1fx at 4 workers vs one-shot (>= 3x)",
                           speedup_at_4));
  card.gate("identical", all_identical,
            all_identical ? "response digests identical everywhere"
                          : "see rows above");
  return card.finish();
}
