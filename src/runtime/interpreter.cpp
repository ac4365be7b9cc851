#include "runtime/interpreter.hpp"

#include <functional>

#include "codegen/lowering.hpp"
#include "runtime/schema_env.hpp"

namespace sage::runtime {

using codegen::Cond;
using codegen::Expr;
using codegen::Stmt;

namespace {

/// Is this expression byte-array-valued in `env`?
bool is_bytes_expr(const Expr& expr, const SchemaExecEnv& env) {
  switch (expr.kind) {
    case Expr::Kind::kField:
      return env.is_bytes_field(expr.field);
    case Expr::Kind::kCall:
      return env.is_bytes_function(expr.name);
    default:
      return false;
  }
}

}  // namespace

std::optional<long> Interpreter::eval(const Expr& expr,
                                      SchemaExecEnv& env) const {
  switch (expr.kind) {
    case Expr::Kind::kConst:
      return expr.value;
    case Expr::Kind::kField:
      return env.read_field(expr.field, expr.packet);
    case Expr::Kind::kName:
      // Generation-time symbol cache (codegen::SchemaAnnotator); only
      // per-run names like "scenario" still hit the environment.
      if (expr.symbol_cached) return expr.symbol_cache;
      return env.resolve_symbol(expr.name);
    case Expr::Kind::kCall: {
      std::vector<long> args;
      args.reserve(expr.args.size());
      for (const auto& a : expr.args) {
        const auto v = eval(a, env);
        if (!v) return std::nullopt;
        args.push_back(*v);
      }
      return env.call_scalar(expr.name, args);
    }
  }
  return std::nullopt;
}

bool Interpreter::test(const Cond& cond, SchemaExecEnv& env,
                       ExecResult* result) const {
  switch (cond.kind) {
    case Cond::Kind::kTrue:
      return true;
    case Cond::Kind::kCompare: {
      const auto lhs = eval(cond.lhs, env);
      const auto rhs = eval(cond.rhs, env);
      if (!lhs || !rhs) {
        if (result != nullptr) {
          result->ok = false;
          result->errors.push_back("condition operand failed to evaluate");
        }
        return false;
      }
      switch (cond.op) {
        case codegen::CmpOp::kEq: return *lhs == *rhs;
        case codegen::CmpOp::kNe: return *lhs != *rhs;
        case codegen::CmpOp::kGt: return *lhs > *rhs;
        case codegen::CmpOp::kLt: return *lhs < *rhs;
      }
      return false;
    }
    case Cond::Kind::kAnd:
      for (const auto& c : cond.children) {
        if (!test(c, env, result)) return false;
      }
      return true;
    case Cond::Kind::kOr:
      for (const auto& c : cond.children) {
        if (test(c, env, result)) return true;
      }
      return false;
    case Cond::Kind::kNot:
      return cond.children.empty() ? false : !test(cond.children[0], env, result);
  }
  return false;
}

ExecResult Interpreter::run(const Stmt& stmt, SchemaExecEnv& env) const {
  ExecResult result;
  std::size_t executed = 0;  // kIf/kAssign/kCall steps, for ExecStats
  const std::function<void(const Stmt&)> exec = [&](const Stmt& s) {
    if (s.kind != Stmt::Kind::kComment && s.kind != Stmt::Kind::kSeq) {
      ++executed;
    }
    switch (s.kind) {
      case Stmt::Kind::kComment:
        break;
      case Stmt::Kind::kSeq:
        for (const auto& child : s.body) exec(child);
        break;
      case Stmt::Kind::kIf:
        if (test(s.cond, env, &result)) {
          for (const auto& child : s.body) exec(child);
        }
        break;
      case Stmt::Kind::kAssign: {
        if (is_bytes_expr(s.value, env) || env.is_bytes_field(s.target)) {
          std::optional<std::vector<std::uint8_t>> bytes;
          if (s.value.kind == Expr::Kind::kField) {
            bytes = env.read_bytes(s.value.field, s.value.packet);
          } else if (s.value.kind == Expr::Kind::kCall) {
            bytes = env.call_bytes(s.value.name);
          }
          if (!bytes) {
            result.ok = false;
            result.errors.push_back("byte-valued assignment failed for " +
                                    s.target.to_string());
            return;
          }
          if (!env.write_bytes(s.target, std::move(*bytes))) {
            result.ok = false;
            result.errors.push_back("cannot write bytes field " +
                                    s.target.to_string());
          }
          return;
        }
        const auto value = eval(s.value, env);
        if (!value) {
          result.ok = false;
          result.errors.push_back("expression failed for assignment to " +
                                  s.target.to_string());
          return;
        }
        if (!env.write_field(s.target, *value)) {
          result.ok = false;
          result.errors.push_back("cannot write field " + s.target.to_string());
        }
        break;
      }
      case Stmt::Kind::kCall: {
        std::vector<long> args;
        bool args_ok = true;
        for (const auto& a : s.args) {
          const auto v = eval(a, env);
          if (!v) {
            args_ok = false;
            break;
          }
          args.push_back(*v);
        }
        if (!args_ok || !env.call_effect(s.fn, args)) {
          result.ok = false;
          result.errors.push_back("framework call failed: " + s.fn);
        }
        break;
      }
    }
  };
  exec(stmt);
  codegen::note_tree_execution(executed);
  return result;
}

}  // namespace sage::runtime
