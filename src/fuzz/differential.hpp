// Differential conformance checking: generated code vs reference.
//
// Every case runs one pipeline: drive the implementations, then judge()
// turns what they did into a verdict. For ICMP the implementations are
// the paper's own evaluation setup doubled: two Appendix-A networks, one
// running the generated responder and one sim::ReferenceIcmpResponder,
// fed byte-identical (fault-processed) traffic; each side is a capture.
// ICMPv6 has no network: every RFC 4443 event fires at both responders
// with the fuzzed packet as the trigger. The other protocols
// (igmp/ntp/bfd/udp/dhcp) have no second responder: their one side is
// the packet inspector's decode.
//
// The judge applies one crash rule, one oracle chain (for ICMP the exec
// env vs the wire, which pins the short-read fix; read→write→read round
// trips and inspector stability; the net/ struct parsers and DHCP's TLV
// round trip vs schema reads) and one byte comparison of the sides.
//
// Everything is deterministic in (seed, protocol, iterations, faults):
// the verdict log is byte-identical across 1/2/8 worker threads, which
// tests/test_fuzz.cpp pins.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fuzz/fault_injector.hpp"
#include "fuzz/generator.hpp"
#include "runtime/vm/exec.hpp"

namespace sage::fuzz {

enum class Verdict : std::uint8_t {
  kAgreeBytes,     // captures byte-identical (replies present)
  kAgreeSemantic,  // bytes differ, PacketInspector decodes identically
  kAgreeSilent,    // both sides silent / input unparseable everywhere
  kDivergent,      // observable disagreement
  kCrash,          // an implementation or an oracle threw
};

const char* verdict_name(Verdict verdict);

/// One thing an implementation did on a case. An ICMP side's entries are
/// its Appendix-A capture: the node that sent each packet, and the
/// packet. An ICMPv6 side's are the RFC 4443 events fired at the
/// responder: the event, and its reply, or no bytes for silence. A layer
/// case's one side is the decoder's lines, with no bytes.
struct Observation {
  std::string label;
  std::optional<std::vector<std::uint8_t>> bytes;
};

/// What one implementation did on one case, in order, or what it threw.
struct Side {
  std::vector<Observation> observations;
  std::string crash;  // non-empty: the implementation threw
};

struct CaseResult {
  Verdict verdict = Verdict::kAgreeSilent;
  FuzzPacket packet;
  std::uint64_t capture_hash = 0;  // FNV-1a over the sides' observations
  std::string detail;              // first mismatch, deterministic text
  std::vector<std::uint8_t> minimized;  // failures only, when enabled
};

struct FuzzOptions {
  std::string protocol = "icmp";  // lowercase generator name
  std::uint64_t seed = 1;
  std::size_t iterations = 100;
  std::size_t jobs = 1;  // >1 fans iterations over a util::ThreadPool
  FaultPlan faults;      // applied identically to both networks
  bool minimize = true;  // greedily reduce failing inputs
  /// Which backend the generated responder executes on. A pure
  /// execution knob: verdict logs are pinned byte-identical across
  /// kThreaded and kTree (tests/test_fuzz_regressions.cpp).
  runtime::vm::ExecBackend backend = runtime::vm::ExecBackend::kThreaded;
};

struct FuzzReport {
  FuzzOptions options;
  std::size_t agree_bytes = 0;
  std::size_t agree_semantic = 0;
  std::size_t agree_silent = 0;
  std::size_t divergent = 0;
  std::size_t crashes = 0;
  /// One line per iteration, index-ordered; identical for identical
  /// options regardless of jobs.
  std::vector<std::string> log;
  std::uint64_t log_hash = 0;  // FNV-1a over the log lines
  std::vector<CaseResult> failures;  // divergent + crash cases

  bool clean() const { return divergent == 0 && crashes == 0; }
  std::string summary() const;
};

/// The verdict step of every case, given `packet` and what each side did
/// with it (a layer case's decoder is `generated`; `reference` is empty).
/// A crashed side, or a throw in an oracle, is kCrash. The oracle chain's
/// first mismatch is kDivergent. A layer case then agrees, on bytes when
/// its parser accepted the packet, else silently. Equal twin sides agree,
/// on bytes when the generated side sent anything but the client's own
/// traffic, else silently; unequal ones make their first difference the
/// detail of kDivergent, or of kAgreeSemantic for ICMP packets that
/// decode alike.
CaseResult judge(const FuzzPacket& packet, const Side& generated,
                 const Side& reference);

class DifferentialFuzzer {
 public:
  explicit DifferentialFuzzer(FuzzOptions options);

  const FuzzOptions& options() const { return options_; }

  /// Generate + check options().iterations packets. Thread-count
  /// independent output.
  FuzzReport run() const;

  /// Check a single packet (corpus replay, minimization probes): drive
  /// the implementations, then judge() them. `fault_rng` seeds the fault
  /// decisions for both networks. Nothing thrown leaves it.
  CaseResult run_case(const FuzzPacket& packet, Rng fault_rng) const;

  /// Format the deterministic verdict-log line for one case.
  static std::string log_line(std::size_t index, const CaseResult& result);

 private:
  void minimize_case(CaseResult& result, Rng fault_rng) const;

  FuzzOptions options_;
};

}  // namespace sage::fuzz
