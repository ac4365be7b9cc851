// Fuzz-campaign throughput (not a paper artifact).
//
// Measures differential ICMP fuzz campaigns per second in two
// configurations:
//   * one-shot: what a cold process pays per campaign — the full RFC→code
//     pipeline (parse, winnow, codegen) followed by the campaign. This is
//     the pre-memoization configuration: every campaign re-derives the
//     generated responder from the corpus.
//   * harness: DifferentialFuzzer on a warm process, where every case
//     reuses the process-wide core::canonical_icmp_run(), at 1/2/4/8
//     worker threads.
//
// The speedup over one-shot comes first from amortizing the pipeline
// across campaigns; the per-jobs rows add thread parallelism on top and
// show the determinism contract holds at every worker count. The
// verdict-log hash must be identical on every configuration.
//
// Results are written to BENCH_fuzz_throughput.json (EXPERIMENTS.md
// records a reference run). Exit is nonzero if determinism breaks, any
// campaign is unclean, or the 8-job harness speedup over one-shot drops
// below 4x.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/generated_icmp.hpp"
#include "core/sage.hpp"
#include "corpus/rfc792.hpp"
#include "fuzz/differential.hpp"

using namespace sage;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// A CI-smoke-sized campaign: the repeated-campaign workload the harness
// exists for (one campaign per protocol per change). Bigger campaigns
// amortize the pipeline within themselves and the one-shot gap shrinks —
// the JSON notes the campaign size so the numbers stay interpretable.
constexpr std::size_t kIterationsPerCampaign = 100;

fuzz::FuzzOptions campaign_options(std::size_t jobs) {
  fuzz::FuzzOptions options;
  options.protocol = "icmp";
  options.seed = 7;
  options.iterations = kIterationsPerCampaign;
  options.jobs = jobs;
  return options;
}

}  // namespace

int main() {
  benchutil::title("Fuzz throughput",
                   "differential ICMP campaigns, one-shot vs memoized harness");

  constexpr int kCampaigns = 3;
  char buf[160];

  // One-shot baseline: each campaign pays the full pipeline, as a cold
  // process (or a harness without the canonical-run memo) would.
  const double oneshot_start = now_ms();
  std::uint64_t oneshot_hash = 0;
  bool oneshot_clean = true;
  for (int i = 0; i < kCampaigns; ++i) {
    core::Sage sage;
    sage.set_parse_cache(nullptr);  // cold pipeline, no cross-run memo
    sage.annotate_non_actionable(corpus::icmp_non_actionable_annotations());
    const auto run = sage.process(corpus::rfc792_revised(), "ICMP");
    if (run.functions.empty()) oneshot_clean = false;
    const auto report =
        fuzz::DifferentialFuzzer(campaign_options(1)).run();
    oneshot_hash = report.log_hash;
    oneshot_clean = oneshot_clean && report.clean();
  }
  const double oneshot_ms = (now_ms() - oneshot_start) / kCampaigns;

  std::snprintf(buf, sizeof buf, "%8.1f ms/campaign   %6.2fx%s", oneshot_ms,
                1.0, oneshot_clean ? "" : "  UNCLEAN");
  benchutil::row("one-shot (pipeline per campaign)", buf);
  benchutil::rule();

  // Harness: warm the canonical run once, outside the timed region.
  (void)core::canonical_icmp_run();

  struct Point {
    std::size_t jobs;
    double ms;
    double speedup;
    bool identical;
    bool clean;
  };
  std::vector<Point> points;
  bool all_ok = oneshot_clean;

  for (const std::size_t jobs : {1u, 2u, 4u, 8u}) {
    const double start = now_ms();
    std::uint64_t hash = 0;
    bool clean = true;
    for (int i = 0; i < kCampaigns; ++i) {
      const auto report =
          fuzz::DifferentialFuzzer(campaign_options(jobs)).run();
      hash = report.log_hash;
      clean = clean && report.clean();
    }
    const double ms = (now_ms() - start) / kCampaigns;
    const bool identical = hash == oneshot_hash;
    const double speedup = oneshot_ms / ms;
    points.push_back({jobs, ms, speedup, identical, clean});
    all_ok = all_ok && identical && clean;

    std::snprintf(buf, sizeof buf, "%8.1f ms/campaign   %6.2fx%s%s", ms,
                  speedup, identical ? "" : "  LOG DIVERGED",
                  clean ? "" : "  UNCLEAN");
    benchutil::row("harness, " + std::to_string(jobs) + " thread(s)", buf);
  }

  benchutil::rule();
  const double speedup_at_8 = points.back().speedup;
  const bool gate = speedup_at_8 >= 4.0;
  all_ok = all_ok && gate;
  std::snprintf(buf, sizeof buf, "%.2fx at 8 jobs (gate: >= 4x vs one-shot)",
                speedup_at_8);
  benchutil::row(gate ? "speedup gate met" : "SPEEDUP GATE MISSED", buf);
  benchutil::row("determinism contract",
                 all_ok ? "verdict-log hash identical everywhere"
                        : "see rows above");

  FILE* json = std::fopen("BENCH_fuzz_throughput.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n");
    std::fprintf(json,
                 "  \"workload\": \"icmp seed=7, %zu iterations/campaign, "
                 "%d campaigns\",\n",
                 kIterationsPerCampaign, kCampaigns);
    std::fprintf(json,
                 "  \"note\": \"single-CPU container: speedup is "
                 "pipeline amortization via canonical_icmp_run(), not "
                 "thread parallelism\",\n");
    std::fprintf(json, "  \"oneshot_ms_per_campaign\": %.3f,\n", oneshot_ms);
    std::fprintf(json, "  \"harness\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto& p = points[i];
      std::fprintf(json,
                   "    {\"jobs\": %zu, \"ms_per_campaign\": %.3f, "
                   "\"speedup_vs_oneshot\": %.2f, \"identical\": %s, "
                   "\"clean\": %s}%s\n",
                   p.jobs, p.ms, p.speedup, p.identical ? "true" : "false",
                   p.clean ? "true" : "false",
                   i + 1 == points.size() ? "" : ",");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json, "  \"speedup_gate_4x_at_8_jobs\": %s\n",
                 gate ? "true" : "false");
    std::fprintf(json, "}\n");
    std::fclose(json);
    benchutil::row("written", "BENCH_fuzz_throughput.json");
    benchutil::commit_scorecard("BENCH_fuzz_throughput.json");
  }
  return all_ok ? 0 : 1;
}
