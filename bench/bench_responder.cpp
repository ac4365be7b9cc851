// Responder throughput: string-keyed field dispatch vs the dense field
// ids the schema registry attaches at generation time.
//
// The pipeline generates the RFC 792 echo handler once; we then execute
// it end-to-end (SchemaExecEnv construction, interpretation, reply
// serialization) against a stream of echo requests twice over:
//
//   baseline  — the statement tree with every field_id and symbol cache
//               stripped, forcing each read/write through the registry's
//               by-name lookup (the pre-registry behavior);
//   indexed   — the tree exactly as the generator annotated it, so the
//               environment dispatches on vector indices.
//
// Results and the gate (>= 1.5x packets/s, the registry work's
// acceptance target) go through benchutil::Scorecard to
// BENCH_responder.json, copied to bench/results/; EXPERIMENTS.md records
// the reference run.
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "codegen/ir.hpp"
#include "core/sage.hpp"
#include "corpus/rfc792.hpp"
#include "net/ipv4.hpp"
#include "runtime/interpreter.hpp"
#include "runtime/schema_env.hpp"
#include "sim/ping.hpp"

namespace {

using namespace sage;

void strip_expr(codegen::Expr& expr);

void strip_cond(codegen::Cond& cond) {
  if (cond.kind == codegen::Cond::Kind::kCompare) {
    strip_expr(cond.lhs);
    strip_expr(cond.rhs);
  }
  for (auto& child : cond.children) strip_cond(child);
}

void strip_expr(codegen::Expr& expr) {
  expr.field.field_id = -1;
  expr.symbol_cached = false;
  expr.symbol_cache = 0;
  for (auto& a : expr.args) strip_expr(a);
}

/// Remove every generation-time annotation, restoring the pre-registry
/// string-dispatch tree.
void strip_ids(codegen::Stmt& stmt) {
  stmt.target.field_id = -1;
  strip_expr(stmt.value);
  for (auto& a : stmt.args) strip_expr(a);
  strip_cond(stmt.cond);
  for (auto& child : stmt.body) strip_ids(child);
}

/// One full responder round: environment from the raw request, run the
/// generated handler, serialize the reply. Returns the reply size so the
/// work cannot be optimized away.
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

double measure_pps(const runtime::Interpreter& interp,
                   const codegen::Stmt& body,
                   std::span<const std::uint8_t> request, net::IpAddr own,
                   std::size_t packets) {
  std::size_t sink = 0;
  const double start = benchutil::now_ms();
  for (std::size_t i = 0; i < packets; ++i) {
    sink += respond_once(interp, body, request, own);
  }
  const double elapsed = benchutil::now_ms() - start;
  if (sink == 0) std::printf("(empty replies?)\n");
  return static_cast<double>(packets) / (elapsed / 1000.0);
}

}  // namespace

int main() {
  benchutil::title("Responder throughput",
                   "string-keyed dispatch vs schema-registry field ids");

  core::Sage sage;
  sage.annotate_non_actionable(corpus::icmp_non_actionable_annotations());
  const auto run = sage.process(corpus::rfc792_revised(), "ICMP");

  const codegen::GeneratedFunction* echo = nullptr;
  for (const auto& fn : run.functions) {
    if (fn.name.find("echo") != std::string::npos &&
        fn.role == "receiver") {
      echo = &fn;
    }
  }
  if (echo == nullptr) {
    std::printf("no generated echo receiver found (functions=%zu)\n",
                run.functions.size());
    return 1;
  }
  benchutil::row("generated handler", echo->name);

  codegen::Stmt stripped = echo->body;  // deep copy, then de-annotate
  strip_ids(stripped);

  const auto own = net::IpAddr(10, 0, 1, 1);
  const auto request = sim::PingClient::make_echo_request(
      net::IpAddr(10, 0, 1, 100), own, {});
  const runtime::Interpreter interp;

  // Equivalence gate: both trees must produce byte-identical replies.
  {
    auto a = runtime::SchemaExecEnv::icmp(request, own, true);
    auto b = runtime::SchemaExecEnv::icmp(request, own, true);
    a.set_scenario("echo");
    b.set_scenario("echo");
    interp.run(echo->body, a);
    interp.run(stripped, b);
    if (a.finish_reply() != b.finish_reply()) {
      std::printf("FAIL: annotated and stripped trees disagree\n");
      return 1;
    }
    benchutil::row("equivalence", "annotated == stripped reply bytes");
  }

  constexpr std::size_t kWarmup = 20000;
  constexpr std::size_t kPackets = 200000;
  constexpr int kTrials = 5;
  measure_pps(interp, stripped, request, own, kWarmup);
  measure_pps(interp, echo->body, request, own, kWarmup);
  // Interleaved best-of-N: peak throughput per mode, so a noisy
  // neighbor in one trial cannot skew the ratio.
  double baseline_pps = 0.0;
  double indexed_pps = 0.0;
  for (int trial = 0; trial < kTrials; ++trial) {
    baseline_pps = std::max(
        baseline_pps, measure_pps(interp, stripped, request, own, kPackets));
    indexed_pps = std::max(
        indexed_pps, measure_pps(interp, echo->body, request, own, kPackets));
  }
  const double speedup = indexed_pps / baseline_pps;

  benchutil::row("baseline (string dispatch)",
                 benchutil::fmt("%.0f packets/s", baseline_pps));
  benchutil::row("indexed (schema field ids)",
                 benchutil::fmt("%.0f packets/s", indexed_pps));

  benchutil::Scorecard card("responder");
  card.num("packets", kPackets)
      .num("baseline_pps", baseline_pps, 1)
      .num("indexed_pps", indexed_pps, 1)
      .num("speedup", speedup, 3);
  card.gate("speedup", speedup >= 1.5,
            benchutil::fmt("%.2fx indexed vs baseline (>= 1.5x)", speedup));
  return card.finish();
}
