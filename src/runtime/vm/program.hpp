// Executable threaded-code programs for generated handlers.
//
// runtime/vm specializes a codegen::LinearProgram against a protocol's
// binding table (SchemaExecEnv's by-id dispatch) into directly
// executable ops: field accesses become storage-specific instructions
// with the schema FieldSpec pointer and layer slot baked into the
// instruction word, so the executor touches header images without any
// per-packet id lookup. The instruction buffer bump-allocates from a
// util::Arena owned by the Program (docs/EXECUTION.md has the op table
// and the fast-path/slow-path contract).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "codegen/lowering.hpp"
#include "util/arena.hpp"

namespace sage::runtime::vm {

// Executable opcode list. The X-macro keeps the enum, the name table,
// and the dispatcher's label table (exec.cpp) in exactly the same order —
// the computed-goto label table is indexed by raw op value.
//
// Fast-path ops touch env storage directly (images, slots, structs) or
// run a framework-table op body; slow-path ops (counted in
// ExecStats::slow_path_entries) go through the env's generic bytes
// machinery or fail a write.
#define SAGE_VM_OP_LIST(X) \
  X(kHalt)           /* end of program                                  */ \
  X(kPushConst)      /* push imm                                        */ \
  X(kPushWire)       /* a=sel, b=layer slot, imm=FieldSpec*             */ \
  X(kPushPayload)    /* a=sel, b=layer slot, imm=FieldSpec*             */ \
  X(kPushStruct)     /* a=sel, b=struct slot                            */ \
  X(kPushState)      /* b=state slot                                    */ \
  X(kPushNull)       /* a=nargs: pop them, poison + push 0              */ \
  X(kPushScenario)   /* push the per-run scenario symbol value          */ \
  X(kCmp)            /* a=CmpOp; pops rhs,lhs, pushes 0/1               */ \
  X(kJump)           /* ip = c                                          */ \
  X(kJumpIfFalse)    /* pop; if 0 -> ip = c                             */ \
  X(kJumpIfTrue)     /* pop; if nonzero -> ip = c                       */ \
  X(kStoreWire)      /* a=1: fills rest word; b=slot, c=ref, imm=spec   */ \
  X(kStorePayload)   /* a=layer slot, b=block bytes, c=ref, imm=spec    */ \
  X(kStoreStruct)    /* b=struct slot, c=ref                            */ \
  X(kStoreState)     /* b=state slot, c=ref                             */ \
  X(kStoreNoop)      /* write accepted and discarded; c=ref             */ \
  X(kStoreFail)      /* write always fails; c=ref [slow]                */ \
  X(kAssignBytes)    /* generic bytes assignment via env [slow]         */ \
  X(kCopyPayload)    /* b=src slot in_payload -> c=dst slot out_payload */ \
  X(kCmpBranch)      /* fused cmp+branch: a=CmpOp, b=1 jump-on-true,    */ \
                     /* c=target; pops rhs,lhs                          */ \
  X(kGuardScenario)  /* fused scenario guard: cmp(scenario, imm) then   */ \
                     /* branch; a=CmpOp, b=jump-on-true, c=target       */ \
  X(kCopyStruct)     /* fused struct-to-struct assignment: a=sel,       */ \
                     /* b=(src slot<<8)|dst slot, c=ref of target       */ \
  X(kStoreWireConst) /* fused const store: a=fills-rest flag,           */ \
                     /* b=(slot<<8)|value, c=ref, imm=FieldSpec*        */ \
  X(kCopyExcerpt)    /* invoking-packet excerpt -> c=dst slot           */ \
                     /* out_payload, straight from the raw packet       */ \
  X(kPushFramework)  /* a=nargs, b=framework::Op, c=name idx: pop the   */ \
                     /* arguments, push the framework value             */ \
  X(kEffect)         /* a=nargs, b=framework::Op or kUnserved, c=name   */ \
                     /* idx: pop the arguments, run the effect          */

enum class Op : std::uint8_t {
#define SAGE_VM_ENUMERATOR(name) name,
  SAGE_VM_OP_LIST(SAGE_VM_ENUMERATOR)
#undef SAGE_VM_ENUMERATOR
  kCount
};

inline constexpr std::size_t kNumOps = static_cast<std::size_t>(Op::kCount);

/// kEffect's `b` for a name the program's profile does not serve: the
/// call fails with the tree's "framework call failed: <name>".
inline constexpr std::uint16_t kUnserved = 0xffff;

const char* op_name(Op op);

/// One fixed-size executable instruction (16 bytes).
struct Insn {
  Op op = Op::kHalt;
  std::uint8_t a = 0;
  std::uint16_t b = 0;
  std::uint32_t c = 0;   // jump target, ref index, or block size
  std::int64_t imm = 0;  // inline constant or baked FieldSpec pointer
};
static_assert(sizeof(Insn) == 16, "instruction word is 16 bytes");

/// Value-stack capacity of the executor frame. compile() refuses
/// programs that could exceed it (callers fall back to the tree
/// interpreter); generated handlers stay in single digits.
inline constexpr std::uint32_t kMaxStack = 64;

/// A compiled, protocol-specialized handler program. Movable; the
/// instruction buffer lives in the program's own arena, so the code span
/// stays valid across moves.
class Program {
 public:
  const std::string& function_name() const { return function_name_; }
  const std::string& protocol() const { return protocol_; }
  /// Identity of the protocol binding table this program was specialized
  /// against; the executor refuses envs with a different table.
  const void* binding_key() const { return binding_key_; }
  std::span<const Insn> code() const { return code_; }
  const std::vector<codegen::FieldUse>& refs() const { return refs_; }
  const std::vector<std::string>& names() const { return names_; }
  std::uint32_t max_stack() const { return max_stack_; }
  /// Footprint: instruction bytes (arena-resident) + side tables.
  std::size_t program_bytes() const;
  /// Arena bytes backing the instruction buffer.
  std::size_t arena_bytes() const { return arena_.bytes_allocated(); }

  /// Human-readable listing, one instruction per line (debugging and
  /// golden tests).
  std::string disassemble() const;

 private:
  friend std::optional<Program> compile(const codegen::LinearProgram& linear);

  std::string function_name_;
  std::string protocol_;
  const void* binding_key_ = nullptr;
  util::Arena arena_{4 * 1024};
  std::span<const Insn> code_;
  std::vector<codegen::FieldUse> refs_;
  std::vector<std::string> names_;
  std::uint32_t max_stack_ = 0;
};

/// Specialize a lowered linear program against its protocol's binding
/// table. nullopt when the program cannot run on the VM (value stack
/// deeper than kMaxStack); callers keep the tree backend in that case.
std::optional<Program> compile(const codegen::LinearProgram& linear);

/// Convenience: lower + specialize in one step.
std::optional<Program> compile(const codegen::GeneratedFunction& fn);

}  // namespace sage::runtime::vm
