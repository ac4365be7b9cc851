// Consolidated zero-copy packet-path scorecard (not a paper artifact).
//
// The arena/span refactor (util::Arena + net::WireImage) changed three
// hot paths at once; this bench re-measures all three in one binary and
// writes BENCH_packet_path.json with before/after pairs so the gates in
// EXPERIMENTS.md are reproducible from a single command:
//
//   * allocs/pass — the bench_parser_hotpath workload (all five RFC
//     corpora, cold chart parses) under an instrumented operator new.
//     Before the chart arena the parser made ~46k heap allocations per
//     pass; the gate is <= 5k.
//   * events/s   — bench_sim_kernel's routing-bound sweep on a 1024-host
//     star, event kernel. Packets route through the core and fall off
//     the far edge, so per-event cost is exactly what intern-at-
//     injection and span forwarding changed. Gate: >= 1.5x the
//     pre-refactor rate.
//   * pps        — bench_responder's indexed path: full SchemaExecEnv
//     construction, generated ICMP echo handler, reply serialization
//     per packet. Gate: no regression (>= 0.9x to absorb timer noise).
//
// "Before" numbers are constants measured on this tree at the commit
// preceding the arena refactor, same build flags and machine class; the
// "after" numbers are measured live. Exit is nonzero if any gate fails.
#include <malloc.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "ccg/parser.hpp"
#include "codegen/ir.hpp"
#include "core/sage.hpp"
#include "corpus/rfc1059.hpp"
#include "corpus/rfc1112.hpp"
#include "corpus/rfc5880.hpp"
#include "corpus/rfc792.hpp"
#include "corpus/rfc793.hpp"
#include "net/ipv4.hpp"
#include "nlp/chunker.hpp"
#include "nlp/tokenizer.hpp"
#include "rfc/preprocessor.hpp"
#include "runtime/interpreter.hpp"
#include "runtime/schema_env.hpp"
#include "sim/network.hpp"
#include "sim/ping.hpp"
#include "sim/topology.hpp"

namespace {

// ---- allocation instrumentation -------------------------------------------

std::atomic<std::uint64_t> g_alloc_count{0};

void note_alloc() { g_alloc_count.fetch_add(1, std::memory_order_relaxed); }

}  // namespace

void* operator new(std::size_t size) {
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace sage;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Pre-refactor reference points (commit before the arena/span work,
// same workloads as below, same machine class as EXPERIMENTS.md runs).
constexpr double kBeforeAllocsPerPass = 46260.0;
constexpr double kBeforeParseMsPerPass = 21.48;
constexpr double kBeforeSweepEventsPerS = 14877382.0;
constexpr double kBeforeResponderPps = 1511681.0;

constexpr double kMaxAllocsPerPass = 5000.0;  // hard gate (10x is ~4626)
constexpr double kMinSweepSpeedup = 1.5;
constexpr double kMinPpsRatio = 0.9;  // "no regression", with timer noise

// ---- section 1: parser allocs/pass ----------------------------------------

std::string tcp_text() {
  std::string text = "TCP State Management\n\n   Description\n\n";
  for (const auto& s : corpus::tcp_probe_sentences()) {
    text += "      " + s.text + "\n";
  }
  return text;
}

std::vector<std::vector<nlp::Token>> parse_workload(const core::Sage& sage) {
  const std::vector<std::pair<std::string, std::string>> corpora = {
      {corpus::rfc792_original(), "ICMP"},
      {corpus::rfc1112_appendix_i(), "IGMP"},
      {corpus::rfc1059_appendices(), "NTP"},
      {corpus::bfd_state_document(), "BFD"},
      {tcp_text(), "TCP"},
  };
  const nlp::NounPhraseChunker chunker(&sage.dictionary());
  std::vector<std::vector<nlp::Token>> out;
  for (const auto& [text, protocol] : corpora) {
    const auto doc = rfc::preprocess(text, protocol);
    for (const auto& sentence : rfc::extract_sentences(doc, protocol)) {
      out.push_back(chunker.chunk(nlp::tokenize(sentence.text)));
    }
  }
  return out;
}

struct ParserResult {
  double allocs_per_pass = 0;
  double ms_per_pass = 0;
};

ParserResult measure_parser(const core::Sage& sage, int iterations) {
  const auto sentences = parse_workload(sage);
  const ccg::CcgParser parser(&sage.lexicon());
  // Warmup: interners/lexicon singletons and the thread-local chart
  // arena's chunks populate outside the clock.
  for (const auto& tokens : sentences) (void)parser.parse(tokens);

  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const double start = now_ms();
  for (int i = 0; i < iterations; ++i) {
    for (const auto& tokens : sentences) (void)parser.parse(tokens);
  }
  const double elapsed = now_ms() - start;
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);

  ParserResult r;
  r.allocs_per_pass = static_cast<double>(after - before) / iterations;
  r.ms_per_pass = elapsed / iterations;
  return r;
}

// ---- section 2: routing-bound sweep, 1024-host star, event kernel ---------

std::vector<std::pair<std::size_t, std::vector<std::uint8_t>>> sweep_batch(
    const sim::Topology& topo, int round) {
  // Same recipe as bench_sim_kernel's sweep: probe never-assigned
  // addresses in a far subnet so every packet crosses the core and
  // falls off the edge — no responder work, routing cost only.
  const std::size_t n = topo.hosts.size();
  std::vector<std::pair<std::size_t, std::vector<std::uint8_t>>> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t subnets = (n + 127) / 128;
    const std::size_t far = (i / 128 + 1) % subnets;
    const net::IpAddr dst(10, static_cast<std::uint8_t>(far >> 8),
                          static_cast<std::uint8_t>(far & 255),
                          static_cast<std::uint8_t>(200 + (i % 50)));
    sim::PingOptions opts;
    opts.sequence = static_cast<std::uint16_t>(round * 1024 + i);
    batch.emplace_back(i, sim::PingClient::make_echo_request(
                              topo.hosts[i]->address(), dst, opts));
  }
  return batch;
}

double measure_sweep_eps() {
  // Best of kReps repetitions of kRounds batches each — the same
  // methodology bench_sim_kernel (and the pre-refactor baseline) uses,
  // so the before/after ratio compares like with like.
  constexpr int kReps = 5;
  constexpr int kRounds = 8;
  auto topo = sim::make_star(1024);
  sim::Network& net = topo.net;
  // Warmup round: arena chunks and queue storage reach steady state.
  for (auto& [src, packet] : sweep_batch(topo, 0)) {
    net.send_from_host(*topo.hosts[src], std::move(packet));
  }
  net.clear_transient();

  double best_eps = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const std::uint64_t before = net.events_processed();
    double elapsed_ms = 0.0;
    for (int round = 1; round <= kRounds; ++round) {
      auto batch = sweep_batch(topo, rep * kRounds + round);
      const double t0 = now_ms();
      for (auto& [src, packet] : batch) {
        net.send_from_host(*topo.hosts[src], std::move(packet));
      }
      elapsed_ms += now_ms() - t0;
      net.clear_transient();
    }
    const std::uint64_t events = net.events_processed() - before;
    const double eps = static_cast<double>(events) / (elapsed_ms / 1000.0);
    if (eps > best_eps) best_eps = eps;
  }
  return best_eps;
}

// ---- section 3: generated-responder packets/s -----------------------------

std::size_t respond_once(const runtime::Interpreter& interp,
                         const codegen::Stmt& body,
                         std::span<const std::uint8_t> request,
                         net::IpAddr own) {
  auto env =
      runtime::SchemaExecEnv::icmp(request, own, /*start_from_incoming=*/true);
  env.set_scenario("echo");
  interp.run(body, env);
  return env.finish_reply().size();
}

double measure_responder_pps(core::Sage& sage) {
  const auto run = sage.process(corpus::rfc792_revised(), "ICMP");
  const codegen::GeneratedFunction* echo = nullptr;
  for (const auto& fn : run.functions) {
    if (fn.name.find("echo") != std::string::npos && fn.role == "receiver") {
      echo = &fn;
    }
  }
  if (echo == nullptr) return -1.0;

  const net::IpAddr client(10, 0, 1, 1);
  const net::IpAddr server(10, 0, 2, 9);
  sim::PingOptions opts;
  opts.payload_size = 32;
  const auto request =
      sim::PingClient::make_echo_request(client, server, opts);

  const runtime::Interpreter interp;
  constexpr std::size_t kWarmup = 20000;
  constexpr std::size_t kPackets = 200000;
  std::size_t sink = 0;
  for (std::size_t i = 0; i < kWarmup; ++i) {
    sink += respond_once(interp, echo->body, request, server);
  }
  const double start = now_ms();
  for (std::size_t i = 0; i < kPackets; ++i) {
    sink += respond_once(interp, echo->body, request, server);
  }
  const double elapsed = now_ms() - start;
  if (sink == 0) return -1.0;
  return static_cast<double>(kPackets) / (elapsed / 1000.0);
}

}  // namespace

int main() {
  benchutil::title("Zero-copy packet path",
                   "arena/span refactor scorecard: parser, sim kernel, "
                   "responder");

  core::Sage sage;
  sage.annotate_non_actionable(corpus::icmp_non_actionable_annotations());

  const ParserResult parser = measure_parser(sage, 10);
  const double sweep_eps = measure_sweep_eps();
  const double pps = measure_responder_pps(sage);
  if (pps < 0) {
    std::printf("responder measurement failed (no echo receiver)\n");
    return 1;
  }

  const double alloc_reduction = kBeforeAllocsPerPass / parser.allocs_per_pass;
  const double sweep_speedup = sweep_eps / kBeforeSweepEventsPerS;
  const double pps_ratio = pps / kBeforeResponderPps;

  char buf[160];
  benchutil::row("metric", "before        after         ratio");
  benchutil::rule();
  std::snprintf(buf, sizeof buf, "%10.0f   %10.0f   %6.1fx fewer",
                kBeforeAllocsPerPass, parser.allocs_per_pass, alloc_reduction);
  benchutil::row("parser allocs/pass", buf);
  std::snprintf(buf, sizeof buf, "%10.0f   %10.0f   %6.2fx",
                kBeforeSweepEventsPerS, sweep_eps, sweep_speedup);
  benchutil::row("sweep-1024 events/s", buf);
  std::snprintf(buf, sizeof buf, "%10.0f   %10.0f   %6.2fx",
                kBeforeResponderPps, pps, pps_ratio);
  benchutil::row("responder pps", buf);

  FILE* json = std::fopen("BENCH_packet_path.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n");
    std::fprintf(json, "  \"before\": {\n");
    std::fprintf(json, "    \"parser_allocs_per_pass\": %.0f,\n",
                 kBeforeAllocsPerPass);
    std::fprintf(json, "    \"parser_ms_per_pass\": %.2f,\n",
                 kBeforeParseMsPerPass);
    std::fprintf(json, "    \"sweep_1024_events_per_s\": %.0f,\n",
                 kBeforeSweepEventsPerS);
    std::fprintf(json, "    \"responder_pps\": %.0f\n", kBeforeResponderPps);
    std::fprintf(json, "  },\n");
    std::fprintf(json, "  \"after\": {\n");
    std::fprintf(json, "    \"parser_allocs_per_pass\": %.0f,\n",
                 parser.allocs_per_pass);
    std::fprintf(json, "    \"parser_ms_per_pass\": %.2f,\n",
                 parser.ms_per_pass);
    std::fprintf(json, "    \"sweep_1024_events_per_s\": %.0f,\n", sweep_eps);
    std::fprintf(json, "    \"responder_pps\": %.0f\n", pps);
    std::fprintf(json, "  },\n");
    std::fprintf(json, "  \"ratios\": {\n");
    std::fprintf(json, "    \"alloc_reduction\": %.2f,\n", alloc_reduction);
    std::fprintf(json, "    \"sweep_speedup\": %.2f,\n", sweep_speedup);
    std::fprintf(json, "    \"responder_ratio\": %.2f\n", pps_ratio);
    std::fprintf(json, "  },\n");
    std::fprintf(json, "  \"gates\": {\n");
    std::fprintf(json, "    \"allocs_per_pass_max\": %.0f,\n",
                 kMaxAllocsPerPass);
    std::fprintf(json, "    \"allocs_gate_pass\": %s,\n",
                 parser.allocs_per_pass <= kMaxAllocsPerPass ? "true"
                                                             : "false");
    std::fprintf(json, "    \"sweep_speedup_min\": %.1f,\n", kMinSweepSpeedup);
    std::fprintf(json, "    \"sweep_gate_pass\": %s,\n",
                 sweep_speedup >= kMinSweepSpeedup ? "true" : "false");
    std::fprintf(json, "    \"responder_ratio_min\": %.1f,\n", kMinPpsRatio);
    std::fprintf(json, "    \"responder_gate_pass\": %s\n",
                 pps_ratio >= kMinPpsRatio ? "true" : "false");
    std::fprintf(json, "  }\n");
    std::fprintf(json, "}\n");
    std::fclose(json);
    benchutil::row("written", "BENCH_packet_path.json");
    benchutil::commit_scorecard("BENCH_packet_path.json");
  }

  bool ok = true;
  if (parser.allocs_per_pass > kMaxAllocsPerPass) {
    std::fprintf(stderr, "GATE FAILED: parser allocs/pass %.0f > %.0f\n",
                 parser.allocs_per_pass, kMaxAllocsPerPass);
    ok = false;
  }
  if (sweep_speedup < kMinSweepSpeedup) {
    std::fprintf(stderr, "GATE FAILED: sweep speedup %.2fx < %.1fx\n",
                 sweep_speedup, kMinSweepSpeedup);
    ok = false;
  }
  if (pps_ratio < kMinPpsRatio) {
    std::fprintf(stderr, "GATE FAILED: responder pps ratio %.2f < %.1f\n",
                 pps_ratio, kMinPpsRatio);
    ok = false;
  }
  return ok ? 0 : 1;
}
