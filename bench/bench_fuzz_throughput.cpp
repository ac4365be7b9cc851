// Fuzz-campaign throughput (not a paper artifact).
//
// Measures differential ICMP fuzz campaigns per second in two
// configurations:
//   * one-shot: what a cold process pays per campaign — the full RFC→code
//     pipeline (parse, winnow, codegen) followed by the campaign. This is
//     the pre-memoization configuration: every campaign re-derives the
//     generated responder from the corpus.
//   * harness: DifferentialFuzzer on a warm process, where every case
//     answers on a copy of the process-wide
//     core::canonical_icmp_responder(), at 1/2/4/8 worker threads.
//
// The rows separate two effects. The 1-thread row against one-shot is
// memoization: the pipeline runs and the handlers compile once per
// process, not once per campaign or case. The 2-, 4- and 8-thread rows
// add worker threads on top, and show the determinism contract holds at
// every worker count: the verdict-log hash must be identical on every
// configuration.
//
// Results and gates go through benchutil::Scorecard to
// BENCH_fuzz_throughput.json, copied to bench/results/ (EXPERIMENTS.md
// records a reference run). Exit is nonzero if determinism breaks, any
// campaign is unclean, or the 8-job harness speedup over one-shot drops
// below 4x.
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

  // One-shot baseline: each campaign pays the full pipeline, as a cold
  // process (or a harness without the canonical-run memo) would.
  const double oneshot_start = benchutil::now_ms();
  std::uint64_t oneshot_hash = 0;
  bool all_clean = true;
  for (int i = 0; i < kCampaigns; ++i) {
    core::Sage sage;
    sage.set_parse_cache(nullptr);  // cold pipeline, no cross-run memo
    sage.annotate_non_actionable(corpus::icmp_non_actionable_annotations());
    const auto run = sage.process(corpus::rfc792_revised(), "ICMP");
    if (run.functions.empty()) all_clean = false;
    const auto report =
        fuzz::DifferentialFuzzer(campaign_options(1)).run();
    oneshot_hash = report.log_hash;
    all_clean = all_clean && report.clean();
  }
  const double oneshot_ms =
      (benchutil::now_ms() - oneshot_start) / kCampaigns;

  benchutil::row("one-shot (pipeline per campaign)",
                 benchutil::fmt("%8.1f ms/campaign   %6.2fx%s", oneshot_ms,
                                1.0, all_clean ? "" : "  UNCLEAN"));
  benchutil::rule();

  // Harness: warm the canonical responder once, outside the timed region.
  (void)core::canonical_icmp_responder();

  std::vector<benchutil::Json> harness;
  bool all_identical = true;
  double speedup = 0.0;  // after the loop: the 8-job row's
  for (const std::size_t jobs : {1u, 2u, 4u, 8u}) {
    const double start = benchutil::now_ms();
    std::uint64_t hash = 0;
    bool clean = true;
    for (int i = 0; i < kCampaigns; ++i) {
      const auto report =
          fuzz::DifferentialFuzzer(campaign_options(jobs)).run();
      hash = report.log_hash;
      clean = clean && report.clean();
    }
    const double ms = (benchutil::now_ms() - start) / kCampaigns;
    const bool identical = hash == oneshot_hash;
    speedup = oneshot_ms / ms;
    all_identical = all_identical && identical;
    all_clean = all_clean && clean;
    harness.push_back(benchutil::Json()
                          .num("jobs", jobs)
                          .num("ms_per_campaign", ms, 3)
                          .num("speedup_vs_oneshot", speedup, 2));

    benchutil::row("harness, " + std::to_string(jobs) + " thread(s)",
                   benchutil::fmt("%8.1f ms/campaign   %6.2fx%s%s", ms,
                                  speedup,
                                  identical ? "" : "  LOG DIVERGED",
                                  clean ? "" : "  UNCLEAN"));
  }
  benchutil::rule();

  benchutil::Scorecard card("fuzz_throughput");
  card.str("workload",
           benchutil::fmt("icmp seed=7, %zu iterations/campaign, "
                          "%d campaigns",
                          kIterationsPerCampaign, kCampaigns))
      .str("note",
           "the 1-thread row against one-shot is memoization via "
           "canonical_icmp_run() and canonical_icmp_responder(); the "
           "2/4/8-thread rows add worker threads, up to machine.nproc cores")
      .num("oneshot_ms_per_campaign", oneshot_ms, 3)
      .arr("harness", harness);
  card.gate("speedup_4x_at_8_jobs", speedup >= 4.0,
            benchutil::fmt("%.2fx at 8 jobs vs one-shot (>= 4x)", speedup));
  card.gate("identical", all_identical,
            all_identical ? "verdict-log hash identical everywhere"
                          : "see rows above");
  card.gate("clean", all_clean,
            all_clean ? "every campaign clean" : "see rows above");
  return card.finish();
}
