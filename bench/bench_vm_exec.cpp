// Handler execution throughput: tree-walking interpreter vs the
// threaded-code VM (runtime/vm).
//
// The pipeline generates the RFC 792 handlers once; each is compiled to
// a flat vm::Program. Two measurements over the generated echo receiver:
//
//   handler-exec  — One SchemaExecEnv is built from a raw echo request
//                   and the handler body is executed repeatedly on it
//                   (the handler is idempotent: every run rewrites the
//                   same outgoing fields from the same incoming image).
//                   This isolates dispatch + field access, the part the
//                   VM rewrites; target >= 5x.
//   full-respond  — environment construction + execution + reply
//                   serialization per packet, on three handlers: the
//                   tree as the generator annotated it, its compiled
//                   program, and the same tree with every field id and
//                   symbol cache stripped, which forces each read and
//                   write through the registry's by-name lookup (the
//                   string-keyed dispatch before the schema registry).
//                   Env setup and serialization are backend-independent,
//                   so the threaded/tree ratio is reported, not gated;
//                   the annotated/stripped ratio is the registry's
//                   dense-id gain, target >= 1.5x.
//
// Sampling: 31 rounds of 200,000 handler runs and 21 rounds of 100,000
// full-path packets per side, the sides alternating which runs first
// from round to round. A rate is a side's best round
// (best_of_alternating).
//
// Gates, all required for exit 0:
//   * every generated function produces byte-identical replies and
//     identical error lists on both backends, and the stripped echo
//     tree replies byte-identically to the annotated one;
//   * protocol_run_signature() of the canonical ICMP run is unchanged
//     by compiling and executing programs;
//   * handler-exec speedup >= 5x;
//   * full-respond annotated vs stripped tree >= 1.5x.
//
// Results and gates go through benchutil::Scorecard to
// BENCH_vm_exec.json, copied to bench/results/; EXPERIMENTS.md records
// the reference run.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "codegen/ir.hpp"
#include "core/batch.hpp"
#include "core/generated_icmp.hpp"
#include "net/ipv4.hpp"
#include "runtime/interpreter.hpp"
#include "runtime/schema_env.hpp"
#include "runtime/vm/exec.hpp"
#include "runtime/vm/program.hpp"
#include "sim/ping.hpp"

namespace {

using namespace sage;

runtime::SchemaExecEnv make_env(std::span<const std::uint8_t> request,
                                net::IpAddr own) {
  auto env =
      runtime::SchemaExecEnv::icmp(request, own, /*start_from_incoming=*/true);
  env.set_scenario("echo");
  return env;
}

/// Gated workload: repeated execution of the handler body against one
/// live environment. Returns runs/s.
double measure_tree_exec(const runtime::Interpreter& interp,
                         const codegen::Stmt& body, runtime::SchemaExecEnv& env,
                         std::size_t runs) {
  std::size_t sink = 0;
  const double start = benchutil::now_ms();
  for (std::size_t i = 0; i < runs; ++i) {
    sink += interp.run(body, env).ok ? 1 : 0;
  }
  const double elapsed = benchutil::now_ms() - start;
  if (sink != runs) std::printf("(tree handler reported errors?)\n");
  return static_cast<double>(runs) / (elapsed / 1000.0);
}

double measure_vm_exec(const runtime::vm::Program& program,
                       runtime::SchemaExecEnv& env, std::size_t runs) {
  std::size_t sink = 0;
  const double start = benchutil::now_ms();
  for (std::size_t i = 0; i < runs; ++i) {
    sink += runtime::vm::execute(program, env).ok ? 1 : 0;
  }
  const double elapsed = benchutil::now_ms() - start;
  if (sink != runs) std::printf("(vm handler reported errors?)\n");
  return static_cast<double>(runs) / (elapsed / 1000.0);
}

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

/// Each side's best rate over `rounds`. A round runs every side once,
/// in order on even rounds and reversed on odd ones, so on a shared box
/// each side gets many short chances, in both positions, at a quiet
/// stretch; a side's best estimates its throughput when unhindered.
std::vector<double> best_of_alternating(
    const std::vector<std::function<double()>>& sides, int rounds) {
  std::vector<double> best(sides.size(), 0.0);
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t k = 0; k < sides.size(); ++k) {
      const std::size_t i = r % 2 == 0 ? k : sides.size() - 1 - k;
      best[i] = std::max(best[i], sides[i]());
    }
  }
  return best;
}

/// Full respond path per packet, as a deployed responder would run it.
/// Returns packets/s.
template <typename RunOnce>
double measure_full_path(std::span<const std::uint8_t> request,
                         net::IpAddr own, std::size_t packets,
                         RunOnce&& run_once) {
  std::size_t sink = 0;
  const double start = benchutil::now_ms();
  for (std::size_t i = 0; i < packets; ++i) {
    auto env = make_env(request, own);
    run_once(env);
    sink += env.finish_reply().size();
  }
  const double elapsed = benchutil::now_ms() - start;
  if (sink == 0) std::printf("(empty replies?)\n");
  return static_cast<double>(packets) / (elapsed / 1000.0);
}

}  // namespace

int main() {
  benchutil::title("VM handler execution",
                   "tree-walking interpreter vs threaded-code programs");

  const auto& run = core::canonical_icmp_run();
  const std::string sig_before = core::protocol_run_signature(run);

  const codegen::GeneratedFunction* echo = nullptr;
  for (const auto& fn : run.functions) {
    if (fn.name.find("echo") != std::string::npos && fn.role == "receiver") {
      echo = &fn;
    }
  }
  if (echo == nullptr) {
    std::printf("no generated echo receiver found (functions=%zu)\n",
                run.functions.size());
    return 1;
  }
  benchutil::row("generated handler", echo->name);
  benchutil::row("dispatcher", runtime::vm::have_computed_goto()
                                   ? "computed goto"
                                   : "portable switch");

  const auto own = net::IpAddr(10, 0, 1, 1);
  const auto request = sim::PingClient::make_echo_request(
      net::IpAddr(10, 0, 1, 100), own, {});
  const runtime::Interpreter interp;

  // Equivalence gate: every generated function must agree across
  // backends — same success bit, same error list, byte-identical reply.
  std::size_t compiled = 0;
  for (const auto& fn : run.functions) {
    auto program = runtime::vm::compile(fn);
    if (!program.has_value()) {
      std::printf("FAIL: %s did not compile to a program\n", fn.name.c_str());
      return 1;
    }
    ++compiled;
    auto tree_env = make_env(request, own);
    auto vm_env = make_env(request, own);
    const auto tree_result = interp.run(fn.body, tree_env);
    const auto vm_result = runtime::vm::execute(*program, vm_env);
    if (tree_result.ok != vm_result.ok ||
        tree_result.errors != vm_result.errors ||
        tree_env.finish_reply() != vm_env.finish_reply()) {
      std::printf("FAIL: backends disagree on %s\n", fn.name.c_str());
      return 1;
    }
  }
  benchutil::row("equivalence",
                 benchutil::fmt("%zu functions byte-identical", compiled));

  codegen::Stmt stripped = echo->body;  // deep copy, then de-annotate
  strip_ids(stripped);
  {
    auto annotated_env = make_env(request, own);
    auto stripped_env = make_env(request, own);
    interp.run(echo->body, annotated_env);
    interp.run(stripped, stripped_env);
    if (annotated_env.finish_reply() != stripped_env.finish_reply()) {
      std::printf("FAIL: annotated and stripped trees disagree\n");
      return 1;
    }
    benchutil::row("equivalence", "annotated == stripped reply bytes");
  }

  const auto program = runtime::vm::compile(*echo);
  if (!program.has_value()) return 1;
  benchutil::row("compiled program",
                 benchutil::fmt("%zu insns, %zu bytes, stack %u",
                                program->code().size(),
                                program->program_bytes(),
                                program->max_stack()));

  // SAGE_BENCH_VM_TRACE=1 dumps the program listing and a one-run op
  // histogram — for eyeballing what the gate actually measures.
  if (std::getenv("SAGE_BENCH_VM_TRACE") != nullptr) {
    std::printf("%s\n", program->disassemble().c_str());
    runtime::vm::reset_op_counts();
    runtime::vm::set_op_counting(true);
    auto env = make_env(request, own);
    runtime::vm::execute(*program, env);
    runtime::vm::set_op_counting(false);
    const auto counts = runtime::vm::op_counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] != 0) {
        std::printf("  %-16s %llu\n",
                    runtime::vm::op_name(static_cast<runtime::vm::Op>(i)),
                    static_cast<unsigned long long>(counts[i]));
      }
    }
    // Empty-body program: measures the per-run fixed cost of execute().
    codegen::GeneratedFunction empty_fn;
    empty_fn.name = "empty";
    empty_fn.protocol = "ICMP";
    empty_fn.body = codegen::Stmt::seq({});
    if (auto empty = runtime::vm::compile(empty_fn)) {
      auto henv = make_env(request, own);
      const double halt_pps = measure_vm_exec(*empty, henv, 2000000);
      std::printf("  halt-only: %.0f runs/s (%.1f ns fixed)\n", halt_pps,
                  1e9 / halt_pps);
    }
  }

  constexpr std::size_t kWarmup = 20000;
  constexpr std::size_t kExecRuns = 200000;
  constexpr std::size_t kFullPackets = 100000;
  constexpr int kExecRounds = 31;
  constexpr int kFullRounds = 21;

  auto tree_env = make_env(request, own);
  auto vm_env = make_env(request, own);
  measure_tree_exec(interp, echo->body, tree_env, kWarmup);
  measure_vm_exec(*program, vm_env, kWarmup);
  const auto exec = best_of_alternating(
      {[&] {
         return measure_tree_exec(interp, echo->body, tree_env, kExecRuns);
       },
       [&] { return measure_vm_exec(*program, vm_env, kExecRuns); }},
      kExecRounds);
  const double tree_pps = exec[0];
  const double threaded_pps = exec[1];
  const double speedup = threaded_pps / tree_pps;

  benchutil::row("handler exec, tree backend",
                 benchutil::fmt("%.0f runs/s", tree_pps));
  benchutil::row("handler exec, threaded backend",
                 benchutil::fmt("%.0f runs/s", threaded_pps));

  // The full respond path (env build + exec + serialization).
  const auto run_tree = [&interp](const codegen::Stmt& body) {
    return [&interp, tree = &body](runtime::SchemaExecEnv& env) {
      interp.run(*tree, env);
    };
  };
  const auto full = best_of_alternating(
      {[&] {
         return measure_full_path(request, own, kFullPackets,
                                  run_tree(echo->body));
       },
       [&] {
         return measure_full_path(request, own, kFullPackets,
                                  [&](runtime::SchemaExecEnv& env) {
                                    runtime::vm::execute(*program, env);
                                  });
       },
       [&] {
         return measure_full_path(request, own, kFullPackets,
                                  run_tree(stripped));
       }},
      kFullRounds);
  const double full_tree_pps = full[0];
  const double full_vm_pps = full[1];
  const double full_stripped_pps = full[2];
  const double indexed_speedup = full_tree_pps / full_stripped_pps;
  benchutil::row("full respond path, tree backend",
                 benchutil::fmt("%.0f packets/s", full_tree_pps));
  benchutil::row("full respond path, threaded backend",
                 benchutil::fmt("%.0f packets/s (not gated)", full_vm_pps));
  benchutil::row("full respond path, stripped tree (string-keyed)",
                 benchutil::fmt("%.0f packets/s", full_stripped_pps));

  benchutil::Scorecard card("vm_exec");
  card.num("runs", kExecRuns)
      .str("dispatcher",
           runtime::vm::have_computed_goto() ? "computed-goto" : "switch")
      .num("functions_verified", compiled)
      .num("handler_exec_tree_pps", tree_pps, 1)
      .num("handler_exec_threaded_pps", threaded_pps, 1)
      .num("handler_exec_speedup", speedup, 3)
      .num("full_path_tree_pps", full_tree_pps, 1)
      .num("full_path_threaded_pps", full_vm_pps, 1)
      .num("full_path_speedup", full_vm_pps / full_tree_pps, 3)
      .num("full_path_stripped_tree_pps", full_stripped_pps, 1)
      .num("full_path_indexed_speedup", indexed_speedup, 3);
  card.gate("handler_exec_speedup", speedup >= 5.0,
            benchutil::fmt("%.2fx threaded vs tree (>= 5x)", speedup));
  card.gate("indexed_speedup", indexed_speedup >= 1.5,
            benchutil::fmt("%.2fx annotated vs stripped tree (>= 1.5x)",
                           indexed_speedup));
  const bool sig_stable =
      core::protocol_run_signature(core::canonical_icmp_run()) == sig_before;
  card.gate("signature_stable", sig_stable,
            sig_stable ? "protocol_run_signature unchanged"
                       : "protocol_run_signature CHANGED");
  return card.finish();
}
