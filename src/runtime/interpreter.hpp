// The static-framework interpreter (§5.1).
//
// The paper's static framework "provides such functionality along with an
// API to access and manipulate headers of other protocols, and to
// interface with the OS". Here the framework doubles as an interpreter
// for the generated IR: a SchemaExecEnv exposes field access, framework
// functions, and OS services for one protocol environment (ICMP packets,
// BFD session state), and the Interpreter walks a generated Stmt tree
// against it. This is how SAGE-generated code runs end-to-end inside the
// simulator.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "codegen/ir.hpp"

namespace sage::runtime {

class SchemaExecEnv;

/// Result of executing a generated function body.
struct ExecResult {
  bool ok = true;
  std::vector<std::string> errors;
};

class Interpreter {
 public:
  ExecResult run(const codegen::Stmt& stmt, SchemaExecEnv& env) const;

  /// Evaluate a scalar expression (bytes expressions are handled at the
  /// assignment level).
  std::optional<long> eval(const codegen::Expr& expr,
                           SchemaExecEnv& env) const;

  bool test(const codegen::Cond& cond, SchemaExecEnv& env,
            ExecResult* result) const;
};

}  // namespace sage::runtime
