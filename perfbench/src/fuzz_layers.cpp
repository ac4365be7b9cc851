// The fuzz layer's per-layer metrics, measured in packet_reply's traced
// run (a fuzz round is packets answered by the same generated
// responders; a fuzz workload of its own was too exposed to scheduling
// noise from other tenants of the host to hold an end-to-end bound). The probe is one round of DifferentialFuzzer
// campaigns — icmp, icmp under network faults, icmp6, igmp, ntp, bfd,
// udp and dhcp — with fixed iterations, seeds from the workload seed and
// minimization off, run at FuzzOptions::jobs = 1 and = nproc.
//
// Oracle: every campaign is clean and its verdict-log hash at nproc jobs
// equals the jobs = 1 run; each round counts as one attempted op.
//
// Every case of the last round is then replayed serially
// (PacketGenerator::generate, then run_case) to time the two stages per
// case and to count VM ops and allocations per case; a replayed case
// whose log line differs from the campaign's fails that round.
#include <cstdio>

#include "bench.hpp"
#include "codegen/lowering.hpp"
#include "core/generated_icmp.hpp"
#include "fuzz/differential.hpp"
#include "fuzz/generator.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace sage;

/// DifferentialFuzzer::run derives case i's fault stream from
/// Rng(seed ^ salt).fork(i); the serial replay does the same.
constexpr std::uint64_t kFaultSalt = 0x9e3779b97f4a7c15ULL;

struct CampaignSpec {
  const char* label;
  const char* protocol;
  const char* faults;
  std::size_t iterations;
};

/// Iterations put most of a round's work in the icmp and icmp6 cases
/// (40-65 us each), which pay for the fan-out; the cheap layer protocols
/// (2-12 us per case) run fewer, since at nproc jobs their campaigns are
/// dominated by pool start-up and contention, the part of a round most
/// exposed to scheduling noise from other tenants of the host.
constexpr CampaignSpec kCampaigns[] = {
    {"icmp", "icmp", "", 200},
    {"icmp-faults", "icmp", "loss=10,dup=10,reorder=15,delay=10,corrupt=10", 200},
    {"icmp6", "icmp6", "", 300},
    {"igmp", "igmp", "", 100},
    {"ntp", "ntp", "", 100},
    {"bfd", "bfd", "", 100},
    {"udp", "udp", "", 100},
    {"dhcp", "dhcp", "", 100},
};

struct Campaign {
  std::string label;
  fuzz::FuzzOptions options;
  std::uint64_t expected_log_hash = 0;
  bool expected_clean = false;
};

struct Setup {
  std::vector<Campaign> campaigns;
  double serial_round_s = 0;  // the jobs=1 replay's wall time
};

Setup make_setup(std::uint64_t seed) {
  Setup s;
  util::SplitMix64 rng(seed);
  for (const CampaignSpec& spec : kCampaigns) {
    Campaign c;
    c.label = spec.label;
    c.options.protocol = spec.protocol;
    c.options.seed = rng.next();
    c.options.iterations = spec.iterations;
    c.options.minimize = false;
    c.options.faults = *fuzz::FaultPlan::parse(spec.faults);
    fuzz::FuzzOptions serial = c.options;
    serial.jobs = 1;
    const std::int64_t t0 = now_ns();
    const fuzz::FuzzReport report = fuzz::DifferentialFuzzer(serial).run();
    s.serial_round_s += static_cast<double>(now_ns() - t0) * 1e-9;
    c.expected_log_hash = report.log_hash;
    c.expected_clean = report.clean();
    c.options.jobs = nproc();
    s.campaigns.push_back(std::move(c));
  }
  return s;
}

/// The oracle for one campaign report.
bool report_ok(const fuzz::FuzzReport& report, const Campaign& c) {
  return c.expected_clean && report.clean() && report.log_hash == c.expected_log_hash;
}

}  // namespace

void measure_fuzz_layers(std::uint64_t seed, WorkloadResult& result) {
  // Campaigns differentially test the memoized canonical pipeline runs.
  core::canonical_icmp_run();
  core::canonical_icmp6_run();
  const Setup s = make_setup(seed);

  constexpr int kRounds = 5;
  std::vector<fuzz::FuzzReport> last_round(s.campaigns.size());
  std::vector<double> round_s;
  for (int round = 0; round < kRounds; ++round) {
    ++result.attempted;
    bool ok = true;
    const std::int64_t t0 = now_ns();
    try {
      for (std::size_t i = 0; i < s.campaigns.size(); ++i) {
        last_round[i] = fuzz::DifferentialFuzzer(s.campaigns[i].options).run();
      }
    } catch (const std::exception& e) {
      report_exception(e);
      ++result.failed;
      continue;
    }
    round_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    for (std::size_t i = 0; i < s.campaigns.size(); ++i) {
      ok = ok && report_ok(last_round[i], s.campaigns[i]);
    }
    if (!ok) ++result.failed;
  }
  if (round_s.empty()) return;

  // Oracle self-test: a report checked against a corrupted expected log
  // hash must count as a failure.
  {
    Campaign corrupted = s.campaigns[0];
    corrupted.expected_log_hash ^= 1;
    ++result.attempted;
    if (report_ok(last_round[0], corrupted)) {
      std::fprintf(stderr, "fuzz: the oracle self-test failed\n");
      ++result.failed;
    }
  }

  // Serial replay of every case of the last round.
  double generate_ns = 0;
  double case_ns = 0;
  double cases = 0;
  double allocs = 0;
  double replay_mismatches = 0;
  std::printf("  %-14s %8s %14s %14s\n", "fuzz campaign", "cases", "generate us",
              "case us");
  const codegen::ExecStats exec_before = codegen::exec_stats();
  for (std::size_t k = 0; k < s.campaigns.size(); ++k) {
    const fuzz::FuzzOptions& o = s.campaigns[k].options;
    const fuzz::DifferentialFuzzer fuzzer(o);
    const fuzz::PacketGenerator generator(o.protocol);
    double gen_k = 0;
    double case_k = 0;
    for (std::size_t i = 0; i < o.iterations; ++i) {
      const std::uint64_t a0 = thread_allocs();
      const std::int64_t t0 = now_ns();
      fuzz::Rng packet_rng = fuzz::Rng(o.seed).fork(i);
      const fuzz::FuzzPacket packet = generator.generate(packet_rng);
      const std::int64_t t1 = now_ns();
      const fuzz::CaseResult r =
          fuzzer.run_case(packet, fuzz::Rng(o.seed ^ kFaultSalt).fork(i));
      const std::int64_t t2 = now_ns();
      allocs += static_cast<double>(thread_allocs() - a0);
      gen_k += static_cast<double>(t1 - t0);
      case_k += static_cast<double>(t2 - t1);
      if (fuzz::DifferentialFuzzer::log_line(i, r) != last_round[k].log[i]) {
        ++replay_mismatches;
      }
    }
    std::printf("  %-14s %8zu %14.2f %14.2f\n", s.campaigns[k].label.c_str(),
                o.iterations, gen_k * 1e-3 / o.iterations, case_k * 1e-3 / o.iterations);
    generate_ns += gen_k;
    case_ns += case_k;
    cases += static_cast<double>(o.iterations);
  }
  const codegen::ExecStats exec_after = codegen::exec_stats();
  // A replayed case that logs another line than the campaign timed a
  // different case: the round fails.
  if (replay_mismatches > 0) {
    std::fprintf(stderr, "fuzz: %.0f replayed cases disagree with the campaign log\n",
                 replay_mismatches);
    ++result.failed;
  }

  const double round = median(round_s);
  auto& m = result.layer;
  m["fuzz.generate_us"] = generate_ns * 1e-3 / cases;
  m["fuzz.case_us"] = case_ns * 1e-3 / cases;
  m["fuzz.jobs_speedup"] = s.serial_round_s / round;
  m["fuzz.parallel_efficiency"] =
      (generate_ns + case_ns) * 1e-9 / (round * static_cast<double>(nproc()));
  m["runtime.vm_ops_per_case"] =
      static_cast<double>(exec_after.ops_executed - exec_before.ops_executed) / cases;
  m["fuzz.allocs_per_case"] = allocs / cases;
}

}  // namespace perfbench
