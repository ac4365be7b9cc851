// Replays the minimized regression corpus (tests/corpus/regressions/)
// through the differential harness and runs a short bounded campaign per
// protocol. Carries the `fuzz` ctest label: the fuzz-smoke preset runs
// exactly this file under AddressSanitizer.
//
// Every .case file is an input that once exposed (or was constructed to
// pin) a disagreement between the generated responders and the
// reference; replay must come back non-divergent, non-crashing forever.
#include <gtest/gtest.h>

#include <algorithm>

#include "fuzz/corpus.hpp"
#include "fuzz/differential.hpp"

#ifndef SAGE_FUZZ_CORPUS_DIR
#error "build must define SAGE_FUZZ_CORPUS_DIR (see tests/CMakeLists.txt)"
#endif

namespace sage::fuzz {
namespace {

const std::vector<CorpusCase>& corpus() {
  static const std::vector<CorpusCase> cases = [] {
    std::vector<std::string> errors;
    auto loaded = load_corpus_dir(SAGE_FUZZ_CORPUS_DIR, &errors);
    for (const auto& e : errors) ADD_FAILURE() << e;
    return loaded;
  }();
  return cases;
}

CaseResult replay(const CorpusCase& c) {
  FuzzOptions options;
  options.protocol = c.packet.protocol;
  options.minimize = false;  // corpus cases are already minimal
  return DifferentialFuzzer(options).run_case(c.packet, Rng(1));
}

TEST(FuzzRegressions, CorpusLoadsAndIsNontrivial) {
  const auto& cases = corpus();
  EXPECT_GE(cases.size(), 10u);
  for (const auto& c : cases) {
    EXPECT_FALSE(c.note.empty()) << c.name << ": every case documents itself";
    EXPECT_FALSE(c.packet.bytes.empty()) << c.name;
    EXPECT_EQ(c.packet.mutation, MutationKind::kHandWritten) << c.name;
  }
}

TEST(FuzzRegressions, EveryCaseReplaysClean) {
  for (const auto& c : corpus()) {
    const CaseResult r = replay(c);
    EXPECT_NE(r.verdict, Verdict::kDivergent)
        << c.name << ": " << r.detail << " (" << c.note << ")";
    EXPECT_NE(r.verdict, Verdict::kCrash)
        << c.name << ": " << r.detail << " (" << c.note << ")";
  }
}

TEST(FuzzRegressions, ReplayVerdictsAreDeterministic) {
  for (const auto& c : corpus()) {
    const CaseResult a = replay(c);
    const CaseResult b = replay(c);
    EXPECT_EQ(a.verdict, b.verdict) << c.name;
    EXPECT_EQ(a.capture_hash, b.capture_hash) << c.name;
  }
}

TEST(FuzzRegressions, KeyVerdictsPinBehavior) {
  // A few cases assert more than "not divergent": the short-read pin must
  // stay silent on both sides (no phantom reply built from zero-filled
  // fields), and the minimized parameter-problem reproducer must still
  // produce an actual agreeing reply, not dodge the scenario.
  for (const auto& c : corpus()) {
    if (c.name == "icmp-short-read-one-byte") {
      EXPECT_EQ(replay(c).verdict, Verdict::kAgreeSilent) << c.name;
    } else if (c.name == "icmp-param-problem-offender-code" ||
               c.name == "icmp-oversize-echo") {
      EXPECT_EQ(replay(c).verdict, Verdict::kAgreeBytes) << c.name;
    }
  }
}

TEST(FuzzRegressions, VerdictLogsAreByteStableAcrossDeliveryKernels) {
  // The event-queue kernel swap must stay invisible to the fuzzer. Delay
  // faults are the path it changed (they are real future-time events),
  // so a delay-heavy campaign and every corpus replay under delay=60 are
  // pinned to the verdicts and hashes both kernels produced when the
  // synchronous kernel was retired.
  FuzzOptions options;
  options.protocol = "icmp";
  options.seed = 21;
  options.iterations = 40;
  options.minimize = false;
  options.faults = *FaultPlan::parse("delay=40,dup=15,reorder=15");
  const FuzzReport report = DifferentialFuzzer(options).run();
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_EQ(report.log_hash, 0x1fad9abe507075e7ULL);

  struct Pin {
    const char* name;
    Verdict verdict;
    std::uint64_t capture_hash;
  };
  static const Pin kPins[] = {
      {"bfd-length-mismatch", Verdict::kAgreeBytes, 0xa7c975d6167b78c5ULL},
      {"dhcp-option-length-lie", Verdict::kAgreeSilent, 0x39ec7ce2d397802cULL},
      {"dhcp-truncated-mid-option", Verdict::kAgreeSilent,
       0x04754af9f2ef5ea2ULL},
      {"icmp-bad-checksum-echo", Verdict::kAgreeBytes, 0x65f8716366d680d3ULL},
      {"icmp-delay-fault-kernel-swap", Verdict::kAgreeBytes,
       0xeacfe2552905ea9bULL},
      {"icmp-echo-nonzero-code", Verdict::kAgreeSilent, 0xd96100e04aa5c235ULL},
      {"icmp-info-request-with-payload", Verdict::kAgreeSilent,
       0x46ea6b440a7737f5ULL},
      {"icmp-oversize-echo", Verdict::kAgreeBytes, 0xa4a3e7f28a49cd49ULL},
      {"icmp-param-problem-offender-code", Verdict::kAgreeBytes,
       0x591a55614d5d8a13ULL},
      {"icmp-short-read-one-byte", Verdict::kAgreeSilent,
       0x8205db7b2fb303e7ULL},
      {"icmp-timestamp-short-block", Verdict::kAgreeSilent,
       0x2116f4e9cb90eeadULL},
      {"icmp-truncated-ip-only", Verdict::kAgreeBytes, 0xa4748faa08a53e2bULL},
      {"icmp6-short-read-echo-stub", Verdict::kAgreeBytes,
       0x556887865a74a1dbULL},
      {"igmp-bad-checksum", Verdict::kAgreeBytes, 0xa2b4e4f7db1002eaULL},
      {"ntp-bad-version", Verdict::kAgreeBytes, 0xc29fbf4a99806baeULL},
      {"udp-truncated-header", Verdict::kAgreeSilent, 0x8ca1108c06b1d9f6ULL},
  };
  for (const Pin& pin : kPins) {
    const auto& cases = corpus();
    const auto c = std::find_if(
        cases.begin(), cases.end(),
        [&](const CorpusCase& k) { return k.name == pin.name; });
    if (c == cases.end()) {
      ADD_FAILURE() << pin.name << ": pinned case missing from the corpus";
      continue;
    }
    FuzzOptions replay_options;
    replay_options.protocol = c->packet.protocol;
    replay_options.minimize = false;
    replay_options.faults = *FaultPlan::parse("delay=60");
    const CaseResult r =
        DifferentialFuzzer(replay_options).run_case(c->packet, Rng(9));
    EXPECT_EQ(r.verdict, pin.verdict) << pin.name;
    EXPECT_EQ(r.capture_hash, pin.capture_hash) << pin.name;
  }
}

TEST(FuzzRegressions, VerdictLogHashesPinnedAcrossZeroCopyRefactor) {
  // Golden verdict-log hashes recorded BEFORE the arena/span packet
  // path landed (sage_debug --fuzz icmp --seed 7 --iters 200, with and
  // without the standard fault mix). The refactor is a representation
  // change only — fault decisions draw from the same rng stream in the
  // same order, corruption happens in a scratch slab instead of a fresh
  // vector, captures alias the run arena — so these hashes must never
  // move. If one does, packet bytes or fault ordering changed.
  FuzzOptions options;
  options.protocol = "icmp";
  options.seed = 7;
  options.iterations = 200;
  options.minimize = false;

  const FuzzReport plain = DifferentialFuzzer(options).run();
  EXPECT_TRUE(plain.clean()) << plain.summary();
  EXPECT_EQ(plain.log_hash, 0x977c831ef2574809ULL);

  options.faults =
      *FaultPlan::parse("loss=5,dup=10,reorder=20,delay=10,corrupt=5");
  const FuzzReport faulted = DifferentialFuzzer(options).run();
  EXPECT_TRUE(faulted.clean()) << faulted.summary();
  EXPECT_EQ(faulted.log_hash, 0xe45da0b06eb80274ULL);

  // The same campaign fanned over 8 workers lands on the identical log,
  // byte for byte.
  options.jobs = 8;
  EXPECT_EQ(DifferentialFuzzer(options).run().log_hash, 0xe45da0b06eb80274ULL);
}

TEST(FuzzRegressions, VerdictLogHashesPinnedAcrossExecBackends) {
  // The threaded-code VM is a pure execution-backend swap: the generated
  // responder must behave byte-for-byte like the tree interpreter it
  // replaced. Re-run the zero-copy golden campaigns on BOTH backends and
  // demand the same pre-VM hashes. If either hash moves, the VM changed
  // observable behaviour (reply bytes, error ordering, or silence).
  FuzzOptions options;
  options.protocol = "icmp";
  options.seed = 7;
  options.iterations = 200;
  options.minimize = false;

  for (const auto backend :
       {runtime::vm::ExecBackend::kTree, runtime::vm::ExecBackend::kThreaded}) {
    options.backend = backend;
    options.faults = FaultPlan{};
    const FuzzReport plain = DifferentialFuzzer(options).run();
    EXPECT_TRUE(plain.clean()) << plain.summary();
    EXPECT_EQ(plain.log_hash, 0x977c831ef2574809ULL)
        << "backend " << static_cast<int>(backend);

    options.faults =
        *FaultPlan::parse("loss=5,dup=10,reorder=20,delay=10,corrupt=5");
    const FuzzReport faulted = DifferentialFuzzer(options).run();
    EXPECT_TRUE(faulted.clean()) << faulted.summary();
    EXPECT_EQ(faulted.log_hash, 0xe45da0b06eb80274ULL)
        << "backend " << static_cast<int>(backend);
  }
}

TEST(FuzzRegressions, BoundedCampaignPerProtocolStaysClean) {
  // Small enough for the ASan smoke preset, big enough to cross every
  // mutation class (test_fuzz pins taxonomy coverage at this scale).
  for (const auto& proto : PacketGenerator::known_protocols()) {
    FuzzOptions options;
    options.protocol = proto;
    options.seed = 3;
    options.iterations = 50;
    const FuzzReport report = DifferentialFuzzer(options).run();
    EXPECT_TRUE(report.clean()) << report.summary();
    for (const auto& f : report.failures) {
      ADD_FAILURE() << proto << ": " << f.detail;
    }
  }
}

}  // namespace
}  // namespace sage::fuzz
