#include "codegen/lowering.hpp"

#include <algorithm>
#include <atomic>

#include "codegen/framework.hpp"
#include "net/schema.hpp"
#include "util/strings.hpp"
#include "util/symbols.hpp"

namespace sage::codegen {

namespace {

std::atomic<std::size_t> g_programs_compiled{0};
std::atomic<std::size_t> g_program_bytes{0};
std::atomic<std::size_t> g_vm_ops{0};
std::atomic<std::size_t> g_vm_slow{0};
std::atomic<std::size_t> g_tree_stmts{0};

namespace schema = net::schema;

/// Flattens one Stmt tree. Mirrors the tree interpreter's evaluation
/// order exactly: the linear program visits the same env accesses in the
/// same sequence, so the two backends are observationally identical
/// (tests/test_vm.cpp and test_vm_differential.cpp pin this).
class Lowering {
 public:
  explicit Lowering(const GeneratedFunction& fn)
      : schema_(schema::SchemaRegistry::instance().protocol(fn.protocol)),
        profile_(framework::profile_of(fn.protocol)) {
    out_.function_name = fn.name;
    out_.protocol = fn.protocol;
  }

  LinearProgram run(const Stmt& body) {
    stmt(body);
    emit({LinOp::kHalt});
    out_.max_stack = max_depth_;
    return std::move(out_);
  }

 private:
  /// A forward jump target: indices of emitted jump insns to patch.
  struct Label {
    std::vector<std::uint32_t> fixups;
  };

  void bind(Label& label) {
    const auto here = static_cast<std::uint32_t>(out_.code.size());
    for (const auto idx : label.fixups) out_.code[idx].c = here;
    label.fixups.clear();
  }

  void emit(LinInsn insn) { out_.code.push_back(insn); }

  void emit_jump(LinOp op, Label& label) {
    label.fixups.push_back(static_cast<std::uint32_t>(out_.code.size()));
    emit({op});
  }

  void push_depth(int delta) {
    depth_ += delta;
    max_depth_ = std::max(max_depth_, static_cast<std::uint32_t>(
                                          depth_ < 0 ? 0 : depth_));
  }

  std::uint16_t ref_index(const FieldRef& ref, PacketSel sel) {
    out_.refs.push_back({ref, sel});
    return static_cast<std::uint16_t>(out_.refs.size() - 1);
  }

  std::uint16_t name_index(const std::string& name) {
    for (std::size_t i = 0; i < out_.names.size(); ++i) {
      if (out_.names[i] == name) return static_cast<std::uint16_t>(i);
    }
    out_.names.push_back(name);
    return static_cast<std::uint16_t>(out_.names.size() - 1);
  }

  // Mirror of SchemaExecEnv::binding()'s spec resolution: dense id when
  // annotated, registry name lookup (with payload-pattern fallback)
  // otherwise.
  const schema::FieldSpec* resolve_spec(const FieldRef& ref) const {
    const auto& reg = schema::SchemaRegistry::instance();
    if (ref.field_id >= 0) return reg.field_by_id(ref.field_id);
    return reg.field(ref.layer, ref.field);
  }

  /// Mirror of SchemaExecEnv::is_bytes_field: the field is the payload
  /// of a layer this protocol actually binds.
  bool is_bytes_field(const FieldRef& ref) const {
    const auto* spec = resolve_spec(ref);
    if (spec == nullptr || spec->kind != schema::FieldKind::kBytes ||
        schema_ == nullptr) {
      return false;
    }
    const auto* layer =
        schema::SchemaRegistry::instance().layer_by_id(spec->id);
    return layer != nullptr &&
           std::find(schema_->layers.begin(), schema_->layers.end(),
                     layer->name) != schema_->layers.end();
  }

  /// The framework table's answer, as SchemaExecEnv::is_bytes_function
  /// gives it for this protocol's profile.
  bool is_bytes_function(const std::string& fn) const {
    return framework::find(profile_, fn, framework::Kind::kBytes) != nullptr;
  }

  bool is_bytes_expr(const Expr& e) const {
    switch (e.kind) {
      case Expr::Kind::kField: return is_bytes_field(e.field);
      case Expr::Kind::kCall: return is_bytes_function(e.name);
      default: return false;
    }
  }

  void expr(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::kConst:
        emit({LinOp::kPushConst, 0, 0, 0, e.value});
        push_depth(1);
        return;
      case Expr::Kind::kField:
        emit({LinOp::kPushField, static_cast<std::uint8_t>(e.packet),
              ref_index(e.field, e.packet)});
        push_depth(1);
        return;
      case Expr::Kind::kName: {
        // Constant-fold the symbol exactly as resolve_symbol would: the
        // SchemaAnnotator cache when present; otherwise the schema symbol
        // table / util::symbol_value, both immutable. Only the per-run
        // scenario alias survives as a runtime op.
        long value = 0;
        if (e.symbol_cached) {
          value = e.symbol_cache;
        } else {
          const std::string lower = util::to_lower(e.name);
          if (schema_ != nullptr && schema_->scenario_symbol &&
              lower == "scenario") {
            emit({LinOp::kPushScenario});
            push_depth(1);
            return;
          }
          bool found = false;
          if (schema_ != nullptr) {
            for (const auto& s : schema_->symbols) {
              if (s.name == lower) {
                value = s.value;
                found = true;
                break;
              }
            }
          }
          if (!found) value = util::symbol_value(e.name);
        }
        emit({LinOp::kPushConst, 0, 0, 0, value});
        push_depth(1);
        return;
      }
      case Expr::Kind::kCall: {
        for (const auto& a : e.args) expr(a);
        emit({LinOp::kCallScalar, static_cast<std::uint8_t>(e.args.size()),
              name_index(e.name)});
        push_depth(1 - static_cast<int>(e.args.size()));
        return;
      }
    }
  }

  /// Emit code that jumps to `target` when `c` evaluates to `jump_if`,
  /// falling through otherwise — the standard short-circuit lowering.
  /// Evaluation order (and therefore error order) matches the tree
  /// interpreter's test().
  void cond(const Cond& c, Label& target, bool jump_if) {
    switch (c.kind) {
      case Cond::Kind::kTrue:
        if (jump_if) emit_jump(LinOp::kJump, target);
        return;
      case Cond::Kind::kCompare:
        expr(c.lhs);
        expr(c.rhs);
        emit({LinOp::kCmp, static_cast<std::uint8_t>(c.op)});
        push_depth(-1);
        emit_jump(jump_if ? LinOp::kJumpIfTrue : LinOp::kJumpIfFalse, target);
        push_depth(-1);
        return;
      case Cond::Kind::kAnd: {
        if (c.children.empty()) {  // vacuous conjunction: true
          if (jump_if) emit_jump(LinOp::kJump, target);
          return;
        }
        if (!jump_if) {
          for (const auto& child : c.children) cond(child, target, false);
          return;
        }
        Label fail;
        for (std::size_t i = 0; i + 1 < c.children.size(); ++i) {
          cond(c.children[i], fail, false);
        }
        cond(c.children.back(), target, true);
        bind(fail);
        return;
      }
      case Cond::Kind::kOr: {
        if (c.children.empty()) {  // vacuous disjunction: false
          if (!jump_if) emit_jump(LinOp::kJump, target);
          return;
        }
        if (jump_if) {
          for (const auto& child : c.children) cond(child, target, true);
          return;
        }
        Label pass;
        for (std::size_t i = 0; i + 1 < c.children.size(); ++i) {
          cond(c.children[i], pass, true);
        }
        cond(c.children.back(), target, false);
        bind(pass);
        return;
      }
      case Cond::Kind::kNot:
        if (c.children.empty()) {  // tree: empty negation reads as false
          if (!jump_if) emit_jump(LinOp::kJump, target);
          return;
        }
        cond(c.children[0], target, !jump_if);
        return;
    }
  }

  void assign(const Stmt& s) {
    if (is_bytes_expr(s.value) || is_bytes_field(s.target)) {
      BytesSrc src = BytesSrc::kNone;
      std::uint16_t b = 0;
      std::uint8_t sel = 0;
      if (s.value.kind == Expr::Kind::kField) {
        src = BytesSrc::kField;
        b = ref_index(s.value.field, s.value.packet);
        sel = static_cast<std::uint8_t>(s.value.packet);
      } else if (s.value.kind == Expr::Kind::kCall) {
        src = BytesSrc::kCall;
        b = name_index(s.value.name);
      }
      emit({LinOp::kAssignBytes,
            static_cast<std::uint8_t>(static_cast<std::uint8_t>(src) |
                                      (sel << 4)),
            b, ref_index(s.target, PacketSel::kOutgoing)});
      return;
    }
    expr(s.value);
    emit({LinOp::kStoreField, 0, ref_index(s.target, PacketSel::kOutgoing)});
    push_depth(-1);
  }

  void stmt(const Stmt& s) {
    switch (s.kind) {
      case Stmt::Kind::kComment:
        return;
      case Stmt::Kind::kSeq:
        for (const auto& child : s.body) stmt(child);
        return;
      case Stmt::Kind::kIf: {
        Label after;
        cond(s.cond, after, /*jump_if=*/false);
        for (const auto& child : s.body) stmt(child);
        bind(after);
        return;
      }
      case Stmt::Kind::kAssign:
        assign(s);
        return;
      case Stmt::Kind::kCall: {
        for (const auto& a : s.args) expr(a);
        emit({LinOp::kCallEffect, static_cast<std::uint8_t>(s.args.size()),
              name_index(s.fn)});
        push_depth(-static_cast<int>(s.args.size()));
        return;
      }
    }
  }

  const schema::ProtocolSchema* schema_;
  framework::Profile profile_;
  LinearProgram out_;
  int depth_ = 0;
  std::uint32_t max_depth_ = 0;
};

}  // namespace

ExecStats exec_stats() {
  return {g_programs_compiled.load(std::memory_order_relaxed),
          g_program_bytes.load(std::memory_order_relaxed),
          g_vm_ops.load(std::memory_order_relaxed),
          g_vm_slow.load(std::memory_order_relaxed),
          g_tree_stmts.load(std::memory_order_relaxed)};
}

void reset_exec_stats() {
  g_programs_compiled.store(0, std::memory_order_relaxed);
  g_program_bytes.store(0, std::memory_order_relaxed);
  g_vm_ops.store(0, std::memory_order_relaxed);
  g_vm_slow.store(0, std::memory_order_relaxed);
  g_tree_stmts.store(0, std::memory_order_relaxed);
}

void note_program_compiled(std::size_t bytes) {
  g_programs_compiled.fetch_add(1, std::memory_order_relaxed);
  g_program_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

void note_vm_execution(std::size_t ops, std::size_t slow_entries) {
  g_vm_ops.fetch_add(ops, std::memory_order_relaxed);
  if (slow_entries != 0) {
    g_vm_slow.fetch_add(slow_entries, std::memory_order_relaxed);
  }
}

void note_tree_execution(std::size_t stmts) {
  g_tree_stmts.fetch_add(stmts, std::memory_order_relaxed);
}

LinearProgram compile_to_program(const GeneratedFunction& fn) {
  return Lowering(fn).run(fn.body);
}

}  // namespace sage::codegen
