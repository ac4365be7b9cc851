// The threaded-code VM's contract battery (docs/EXECUTION.md):
//
//   1. Parity — hand-built IR edge cases (poison propagation, error
//      strings, And/Or/Not short-circuit, bytes assignment) execute
//      identically on the tree interpreter and the compiled program:
//      same ExecResult, same error text in the same order, same env
//      mutations.
//   2. Framework parity — every function of the framework table
//      (codegen/framework.hpp), plus one unknown name, called in every
//      position on every profile's env agrees across the backends.
//   3. Mechanics — compilation bounds (kMaxStack), the binding-key
//      guard, op counters, ExecStats, and program introspection.
#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "codegen/framework.hpp"
#include "codegen/lowering.hpp"
#include "core/generated_icmp.hpp"
#include "net/bfd.hpp"
#include "net/icmp.hpp"
#include "net/ipv4.hpp"
#include "net/ipv6.hpp"
#include "runtime/interpreter.hpp"
#include "runtime/schema_env.hpp"
#include "runtime/vm/exec.hpp"
#include "runtime/vm/program.hpp"
#include "sim/ping.hpp"

namespace sage::runtime {
namespace {

using codegen::CmpOp;
using codegen::Cond;
using codegen::Expr;
using codegen::FieldRef;
using codegen::PacketSel;
using codegen::Stmt;

std::vector<std::uint8_t> echo_request() {
  return sim::PingClient::make_echo_request(net::IpAddr(10, 0, 1, 100),
                                            net::IpAddr(10, 0, 1, 1),
                                            {0xde, 0xad, 0xbe, 0xef});
}

std::vector<std::uint8_t> echo6_request() {
  const std::vector<std::uint8_t> msg = {128, 0, 0, 0, 0x12, 0x34, 0, 7,
                                         0xde, 0xad, 0xbe, 0xef};
  net::Ipv6Header ip;
  ip.next_header = net::kIpProtoIcmp6;
  ip.src = net::Ip6Addr::from_groups(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1);
  ip.dst = net::Ip6Addr::from_groups(0x2001, 0xdb8, 0, 0, 0, 0, 0, 2);
  return net::build_ipv6_packet(ip, msg);
}

/// One protocol environment as parity sees it: a factory for fresh envs
/// (BFD's writes land in the state it is given), a scalar and a bytes
/// field to target (ICMP's data where the protocol binds no bytes
/// field), and the packet the env finishes with, if it builds one.
struct EnvCase {
  std::string protocol;
  std::function<SchemaExecEnv(net::BfdSessionState*)> make;
  FieldRef scalar;
  FieldRef bytes;
  std::function<std::vector<std::uint8_t>(SchemaExecEnv&)> finish;
};

const std::vector<EnvCase>& env_cases() {
  static const std::vector<std::uint8_t> request = echo_request();
  static const std::vector<std::uint8_t> request6 = echo6_request();
  static const net::BfdControlPacket bfd_packet;
  const auto reply = [](SchemaExecEnv& env) { return env.finish_reply(); };
  const auto finish = [](SchemaExecEnv& env) {
    return env.finish(net::IpAddr(224, 0, 0, 1));
  };
  static const std::vector<EnvCase> cases = {
      {"ICMP",
       [](net::BfdSessionState*) {
         return SchemaExecEnv::icmp(request, net::IpAddr(10, 0, 1, 1),
                                    /*start_from_incoming=*/true);
       },
       {"icmp", "checksum"}, {"icmp", "data"}, reply},
      {"ICMP6",
       [](net::BfdSessionState*) {
         return SchemaExecEnv::icmp6(
             request6,
             net::Ip6Addr::from_groups(0x2001, 0xdb8, 0, 0, 0, 0, 0, 2),
             /*start_from_incoming=*/true);
       },
       {"icmp6", "checksum"}, {"icmp6", "data"}, reply},
      {"IGMP",
       [](net::BfdSessionState*) {
         return SchemaExecEnv::igmp(net::IpAddr(10, 0, 1, 100),
                                    net::IpAddr(224, 1, 2, 3));
       },
       {"igmp", "checksum"}, {"icmp", "data"}, finish},
      {"NTP",
       [](net::BfdSessionState*) {
         return SchemaExecEnv::ntp(net::IpAddr(10, 0, 1, 100), 0x83aa7e80,
                                   net::NtpPacket{});
       },
       {"ntp", "stratum"}, {"icmp", "data"}, finish},
      {"BFD",
       [](net::BfdSessionState* state) {
         return SchemaExecEnv::bfd(state, &bfd_packet);
       },
       {"bfd", "local_diag"}, {"icmp", "data"}, nullptr},
      {"DHCP", [](net::BfdSessionState*) { return SchemaExecEnv::dhcp(); },
       {"dhcp", "op"}, {"dhcp", "parameter_request_list"},
       [](SchemaExecEnv& env) { return env.out_dhcp(); }},
      {"TCP",
       [](net::BfdSessionState*) {
         return SchemaExecEnv::state_machine("TCP");
       },
       {"tcp", "connection_state"}, {"icmp", "data"}, nullptr},
  };
  return cases;
}

codegen::GeneratedFunction wrap(std::vector<Stmt> body,
                                const std::string& protocol = "ICMP") {
  codegen::GeneratedFunction fn;
  fn.name = "vm_test_fn";
  fn.protocol = protocol;
  fn.body = Stmt::seq(std::move(body));
  return fn;
}

/// Run `body` on both backends against identically-constructed envs of
/// `env_case` and demand full observable agreement: result flag, error
/// text in order, the finished packet, BFD state, recorded effects and
/// the framework's flags.
void expect_parity(std::vector<Stmt> body, const EnvCase& env_case,
                   const std::string& scenario = "") {
  const auto fn = wrap(std::move(body), env_case.protocol);
  const auto program = vm::compile(fn);
  ASSERT_TRUE(program.has_value());

  net::BfdSessionState state_tree;
  net::BfdSessionState state_vm;
  auto env_tree = env_case.make(&state_tree);
  auto env_vm = env_case.make(&state_vm);
  if (!scenario.empty()) {
    env_tree.set_scenario(scenario);
    env_vm.set_scenario(scenario);
  }

  const ExecResult tree = Interpreter().run(fn.body, env_tree);
  const ExecResult vm = vm::execute(*program, env_vm);

  EXPECT_EQ(tree.ok, vm.ok);
  EXPECT_EQ(tree.errors, vm.errors);
  if (env_case.finish) {
    EXPECT_EQ(env_case.finish(env_tree), env_case.finish(env_vm));
  }
  EXPECT_EQ(state_tree, state_vm);
  EXPECT_EQ(env_tree.effects(), env_vm.effects());
  EXPECT_EQ(env_tree.timeout_called(), env_vm.timeout_called());
  EXPECT_EQ(env_tree.packet_transmitted(), env_vm.packet_transmitted());
  EXPECT_EQ(env_tree.session_selected(), env_vm.session_selected());
}

/// The ICMP echo-request env.
void expect_parity(std::vector<Stmt> body, const std::string& scenario = "") {
  expect_parity(std::move(body), env_cases().front(), scenario);
}

// ---- 1. Parity on hand-built edge cases -----------------------------------

TEST(VmParity, SimpleAssignAndConditionalChain) {
  expect_parity({
      Stmt::assign({"icmp", "type"}, Expr::constant(0)),
      Stmt::if_then(
          Cond::compare(Expr::field_read({"icmp", "type"}, PacketSel::kIncoming),
                        CmpOp::kEq, Expr::constant(8)),
          {Stmt::assign({"icmp", "code"}, Expr::constant(0)),
           Stmt::call("reverse_addresses")}),
  });
}

TEST(VmParity, UnknownFieldErrorsMatchTreeExactly) {
  // Unknown write target, unknown read in an expression, unknown read
  // as a condition operand: each produces the tree's exact diagnostic.
  expect_parity({Stmt::assign({"icmp", "bogus"}, Expr::constant(1))});
  expect_parity({Stmt::assign({"icmp", "code"},
                              Expr::field_read({"icmp", "bogus"}))});
  expect_parity({Stmt::if_then(
      Cond::compare(Expr::field_read({"icmp", "bogus"}), CmpOp::kEq,
                    Expr::constant(0)),
      {Stmt::assign({"icmp", "code"}, Expr::constant(1))})});
  expect_parity({Stmt::if_then(
      Cond::compare(Expr::constant(0), CmpOp::kEq,
                    Expr::field_read({"nosuch", "field"})),
      {Stmt::assign({"icmp", "code"}, Expr::constant(1))})});
}

TEST(VmParity, PoisonPropagatesThroughScalarCallArguments) {
  // A failed field read inside a call argument list must poison the
  // call itself (the tree evaluates args first and aborts the call).
  expect_parity({Stmt::assign(
      {"icmp", "code"},
      Expr::call("error_octet", {Expr::field_read({"icmp", "bogus"})}))});
  // And a failed argument to an effect call skips the effect.
  expect_parity({Stmt::call("reverse_addresses",
                            {Expr::field_read({"icmp", "bogus"})})});
}

TEST(VmParity, UnknownFrameworkCallsMatch) {
  expect_parity({Stmt::call("no_such_framework_function")});
  expect_parity({Stmt::assign({"icmp", "code"},
                              Expr::call("no_such_scalar_function"))});
}

TEST(VmParity, ShortCircuitAndOrNot) {
  const auto is_echo =
      Cond::compare(Expr::field_read({"icmp", "type"}, PacketSel::kIncoming),
                    CmpOp::kEq, Expr::constant(8));
  const auto never =
      Cond::compare(Expr::constant(1), CmpOp::kEq, Expr::constant(2));
  const auto poisoned =
      Cond::compare(Expr::field_read({"icmp", "bogus"}), CmpOp::kEq,
                    Expr::constant(0));

  expect_parity({Stmt::if_then(Cond::conj({is_echo, never}),
                               {Stmt::assign({"icmp", "code"},
                                             Expr::constant(1))})});
  expect_parity({Stmt::if_then(Cond::disj({never, is_echo}),
                               {Stmt::assign({"icmp", "code"},
                                             Expr::constant(2))})});
  expect_parity({Stmt::if_then(Cond::negate(never),
                               {Stmt::assign({"icmp", "code"},
                                             Expr::constant(3))})});
  // Short-circuit must skip the poisoned operand entirely (no error)...
  expect_parity({Stmt::if_then(Cond::conj({never, poisoned}),
                               {Stmt::assign({"icmp", "code"},
                                             Expr::constant(4))})});
  // ...but reach it when the left side passes (one error, tree-identical).
  expect_parity({Stmt::if_then(Cond::conj({is_echo, poisoned}),
                               {Stmt::assign({"icmp", "code"},
                                             Expr::constant(5))})});
  // Empty conjunction/disjunction (vacuous truth/falsity).
  expect_parity({Stmt::if_then(Cond::conj({}),
                               {Stmt::assign({"icmp", "code"},
                                             Expr::constant(6))})});
  expect_parity({Stmt::if_then(Cond::disj({}),
                               {Stmt::assign({"icmp", "code"},
                                             Expr::constant(7))})});
}

TEST(VmParity, BytesAssignmentVariants) {
  // The payload-copy fast path...
  expect_parity({Stmt::assign(
      {"icmp", "data"},
      Expr::field_read({"icmp", "data"}, PacketSel::kIncoming))});
  // ...the ICMP original-datagram excerpt call...
  expect_parity({Stmt::assign({"icmp", "data"}, Expr::call("copy_field"))});
  // ...and a bytes source that cannot produce bytes (tree error text).
  expect_parity({Stmt::assign({"icmp", "data"}, Expr::call("no_such_bytes"))});
}

TEST(VmParity, ScenarioSymbolIsPerRun) {
  const std::vector<Stmt> body = {Stmt::if_then(
      Cond::compare(Expr::symbol("scenario"), CmpOp::kEq,
                    Expr::symbol("net unreachable")),
      {Stmt::assign({"icmp", "code"}, Expr::constant(0))})};
  expect_parity(body, "net unreachable");
  expect_parity(body, "port unreachable");
}

TEST(VmParity, CommentsAndEmptySequencesAreNoops) {
  expect_parity({Stmt::comment("@AdvComment provenance only"),
                 Stmt::seq({}),
                 Stmt::assign({"icmp", "type"}, Expr::constant(0))});
}

// ---- 2. Framework parity ---------------------------------------------------

TEST(VmFrameworkParity, EveryFunctionInEveryPositionOnEveryProfile) {
  std::set<codegen::framework::Profile> covered;
  for (const auto& c : env_cases()) {
    covered.insert(codegen::framework::profile_of(c.protocol));
  }
  std::set<std::string> names = {"no_such_function"};
  for (const auto& f : codegen::framework::functions()) {
    EXPECT_TRUE(covered.count(f.profile) != 0) << f.name;
    names.insert(std::string(f.name));
  }

  for (const auto& c : env_cases()) {
    for (const auto& name : names) {
      SCOPED_TRACE(c.protocol + " " + name);
      const auto call = [&](std::vector<Expr> args = {}) {
        return Expr::call(name, std::move(args));
      };
      const auto unknown = Expr::field_read({"nosuch", "field"});
      expect_parity({Stmt::assign(c.scalar, call())}, c);
      expect_parity({Stmt::assign(c.scalar, call({Expr::constant(1)}))}, c);
      expect_parity({Stmt::assign(c.scalar, call({unknown}))}, c);
      expect_parity({Stmt::assign(c.bytes, call())}, c);
      expect_parity(
          {Stmt::if_then(Cond::compare(call(), CmpOp::kEq, Expr::constant(0)),
                         {Stmt::assign(c.scalar, Expr::constant(1))})},
          c);
      expect_parity({Stmt::call(name)}, c);
      expect_parity({Stmt::call(name, {Expr::constant(7)})}, c);
    }
  }
}

// ---- 3. Compilation + executor mechanics ----------------------------------

TEST(VmProgram, EveryGeneratedIcmpFunctionCompiles) {
  for (const auto& fn : core::canonical_icmp_run().functions) {
    const auto linear = codegen::compile_to_program(fn);
    EXPECT_LE(linear.max_stack, vm::kMaxStack) << fn.name;
    EXPECT_FALSE(linear.code.empty()) << fn.name;

    const auto program = vm::compile(linear);
    ASSERT_TRUE(program.has_value()) << fn.name;
    EXPECT_EQ(program->function_name(), fn.name);
    EXPECT_EQ(program->protocol(), fn.protocol);
    // Superinstruction fusion only ever shrinks the listing.
    EXPECT_LE(program->code().size(), linear.code.size());
    EXPECT_GT(program->code().size(), 0u) << fn.name;
    EXPECT_GT(program->program_bytes(), 0u) << fn.name;
    EXPECT_GT(program->arena_bytes(), 0u) << fn.name;
    EXPECT_NE(program->binding_key(), nullptr) << fn.name;

    const auto listing = program->disassemble();
    EXPECT_NE(listing.find(vm::op_name(vm::Op::kHalt)), std::string::npos)
        << fn.name;
  }
}

TEST(VmProgram, PeepholeFusionEngagesOnGeneratedHandlers) {
  // The echo receiver is all hot idioms: scenario guards, const stores,
  // the ip copy, and trivial effects must all collapse into
  // superinstructions, shrinking the listing well below the linear form.
  for (const auto& fn : core::canonical_icmp_run().functions) {
    if (fn.name.find("echo") == std::string::npos || fn.role != "receiver") {
      continue;
    }
    const auto linear = codegen::compile_to_program(fn);
    const auto program = vm::compile(linear);
    ASSERT_TRUE(program.has_value());
    EXPECT_LT(program->code().size(), linear.code.size());
    const auto listing = program->disassemble();
    EXPECT_NE(listing.find(vm::op_name(vm::Op::kGuardScenario)),
              std::string::npos);
    EXPECT_NE(listing.find(vm::op_name(vm::Op::kStoreWireConst)),
              std::string::npos);
    EXPECT_NE(listing.find(vm::op_name(vm::Op::kCopyIp)), std::string::npos);
    EXPECT_NE(listing.find(vm::op_name(vm::Op::kEffectChecksum)),
              std::string::npos);
    // Nothing left to string-dispatch: the generic effect op is gone.
    EXPECT_EQ(listing.find(vm::op_name(vm::Op::kCallEffect)),
              std::string::npos);
  }
}

TEST(VmProgram, MovedProgramStillExecutes) {
  // The instruction span must stay valid across moves (arena-resident).
  auto program = vm::compile(wrap({Stmt::assign({"icmp", "type"},
                                                Expr::constant(0))}));
  ASSERT_TRUE(program.has_value());
  const vm::Program moved = std::move(*program);
  const auto request = echo_request();
  auto env = SchemaExecEnv::icmp(request, net::IpAddr(10, 0, 1, 1));
  EXPECT_TRUE(vm::execute(moved, env).ok);
  EXPECT_EQ(env.out_icmp().type, net::IcmpType::kEchoReply);
}

TEST(VmProgram, OpNamesCoverTheWholeTable) {
  for (std::size_t i = 0; i < vm::kNumOps; ++i) {
    const char* name = vm::op_name(static_cast<vm::Op>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_EQ(name[0], 'k') << i;
  }
}

TEST(VmExec, BindingMismatchFailsCleanly) {
  // An ICMP program must refuse an IGMP env — failed result, never UB.
  const auto program = vm::compile(wrap({Stmt::assign({"icmp", "type"},
                                                      Expr::constant(0))}));
  ASSERT_TRUE(program.has_value());
  auto env = SchemaExecEnv::igmp(net::IpAddr(10, 0, 1, 100),
                                 net::IpAddr(224, 1, 2, 3));
  const ExecResult result = vm::execute(*program, env);
  EXPECT_FALSE(result.ok);
  ASSERT_FALSE(result.errors.empty());
  EXPECT_NE(result.errors[0].find("protocol mismatch"), std::string::npos);
}

TEST(VmExec, OpCountersCountOnlyWhenEnabled) {
  const auto program = vm::compile(wrap({Stmt::assign({"icmp", "type"},
                                                      Expr::constant(0))}));
  ASSERT_TRUE(program.has_value());
  const auto request = echo_request();

  vm::reset_op_counts();
  {
    auto env = SchemaExecEnv::icmp(request, net::IpAddr(10, 0, 1, 1));
    vm::execute(*program, env);
  }
  for (const auto count : vm::op_counts()) EXPECT_EQ(count, 0u);

  vm::set_op_counting(true);
  {
    auto env = SchemaExecEnv::icmp(request, net::IpAddr(10, 0, 1, 1));
    vm::execute(*program, env);
  }
  vm::set_op_counting(false);
  const auto counts = vm::op_counts();
  EXPECT_EQ(counts[static_cast<std::size_t>(vm::Op::kHalt)], 1u);
  // The const-store pair fuses into a single superinstruction.
  EXPECT_EQ(counts[static_cast<std::size_t>(vm::Op::kStoreWireConst)], 1u);
  EXPECT_EQ(counts[static_cast<std::size_t>(vm::Op::kPushConst)], 0u);
  EXPECT_EQ(counts[static_cast<std::size_t>(vm::Op::kStoreWire)], 0u);
  vm::reset_op_counts();
  for (const auto count : vm::op_counts()) EXPECT_EQ(count, 0u);
}

TEST(VmExec, ExecStatsTrackBothBackends) {
  // reverse_addresses specializes to a flat-path op; the scalar call
  // keeps one genuinely slow entry in the program.
  const auto fn = wrap(
      {Stmt::assign({"icmp", "type"}, Expr::constant(0)),
       Stmt::call("reverse_addresses"),
       Stmt::assign({"icmp", "checksum"}, Expr::call("ones_complement_sum"))});
  const auto request = echo_request();

  codegen::reset_exec_stats();
  const auto program = vm::compile(fn);
  ASSERT_TRUE(program.has_value());
  auto after_compile = codegen::exec_stats();
  EXPECT_EQ(after_compile.programs_compiled, 1u);
  EXPECT_GE(after_compile.program_bytes, program->program_bytes());
  EXPECT_EQ(after_compile.ops_executed, 0u);

  {
    auto env = SchemaExecEnv::icmp(request, net::IpAddr(10, 0, 1, 1));
    vm::execute(*program, env);
  }
  const auto after_vm = codegen::exec_stats();
  EXPECT_GE(after_vm.ops_executed, 3u);  // store, effect, call, store, halt
  EXPECT_GE(after_vm.slow_path_entries, 1u);  // the scalar call
  EXPECT_EQ(after_vm.tree_stmts_executed, 0u);

  {
    auto env = SchemaExecEnv::icmp(request, net::IpAddr(10, 0, 1, 1));
    Interpreter().run(fn.body, env);
  }
  const auto after_tree = codegen::exec_stats();
  EXPECT_EQ(after_tree.ops_executed, after_vm.ops_executed);
  EXPECT_EQ(after_tree.tree_stmts_executed, 3u);
}

TEST(VmExec, HaveComputedGotoMatchesToolchain) {
#if defined(__GNUC__) || defined(__clang__)
  EXPECT_TRUE(vm::have_computed_goto());
#else
  EXPECT_FALSE(vm::have_computed_goto());
#endif
}

}  // namespace
}  // namespace sage::runtime
