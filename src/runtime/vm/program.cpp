#include "runtime/vm/program.hpp"

#include <cstring>

#include "net/schema.hpp"
#include "runtime/vm/env_access.hpp"
#include "util/strings.hpp"

namespace sage::runtime::vm {

namespace schema = net::schema;
namespace framework = codegen::framework;

namespace {

using codegen::BytesSrc;
using codegen::LinOp;

std::int64_t bake_spec(const schema::FieldSpec* spec) {
  return static_cast<std::int64_t>(reinterpret_cast<std::uintptr_t>(spec));
}

/// Specialize one field read against the binding plan. Every outcome of
/// SchemaExecEnv::read_field that is decidable at compile time becomes
/// its own op; undecidable outcomes do not exist (the registry is
/// immutable), so there is no generic read op at all.
Insn specialize_read(const EnvAccess::Binding* b, const codegen::LinInsn& in) {
  using Kind = EnvAccess::Binding::Kind;
  if (b == nullptr || b->kind == Kind::kNone || b->spec == nullptr ||
      !b->spec->readable) {
    return {Op::kPushNull};
  }
  switch (b->kind) {
    case Kind::kWire:
      return {Op::kPushWire, in.a, b->layer_slot, in.b, bake_spec(b->spec)};
    case Kind::kPayloadScalar:
      return {Op::kPushPayload, in.a, b->layer_slot, in.b, bake_spec(b->spec)};
    case Kind::kStruct:
      return {Op::kPushStruct, in.a, b->slot};
    case Kind::kState:
      return {Op::kPushState, 0, b->slot};
    case Kind::kToken:  // reads as 0
      return {Op::kPushConst};
    case Kind::kBytes:  // scalar read of the payload -> unknown
    case Kind::kNone:
      return {Op::kPushNull};
  }
  return {Op::kPushNull};
}

/// Specialize one field write; mirrors SchemaExecEnv::write_field's
/// decision ladder (writability, then noop, then storage kind).
Insn specialize_store(const EnvAccess::ProtocolBinding& pb,
                      const EnvAccess::Binding* b,
                      const codegen::LinInsn& in) {
  using Kind = EnvAccess::Binding::Kind;
  if (b == nullptr || b->kind == Kind::kNone || b->spec == nullptr ||
      !b->spec->writable) {
    return {Op::kStoreFail, 0, 0, in.b};
  }
  if (b->spec->write_is_noop) return {Op::kStoreNoop, 0, 0, in.b};
  switch (b->kind) {
    case Kind::kWire:
      return {Op::kStoreWire,
              static_cast<std::uint8_t>(b->write_fills_rest_word ? 1 : 0),
              b->layer_slot, in.b, bake_spec(b->spec)};
    case Kind::kPayloadScalar:
      // The payload-scalar block is sized as a unit (the three ICMP
      // timestamps).
      return {Op::kStorePayload, b->layer_slot,
              static_cast<std::uint16_t>(
                  pb.wire_layers[b->layer_slot]->payload_scalar_bytes),
              in.b, bake_spec(b->spec)};
    case Kind::kStruct:
      // Every struct field the schema marks writable has a slot the
      // env's write_struct serves.
      return {Op::kStoreStruct, 0, b->slot, in.b};
    case Kind::kState:
      return {Op::kStoreState, 0, b->slot, in.b};
    case Kind::kToken:
    case Kind::kBytes:
    case Kind::kNone:
      return {Op::kStoreFail, 0, 0, in.b};
  }
  return {Op::kStoreFail, 0, 0, in.b};
}

/// Specialize a bytes assignment: the incoming-payload copy patterns
/// (echo data, copy_field) become a direct image-to-image op, and the
/// error messages' invoking-packet excerpt a direct copy out of the raw
/// packet; everything else keeps the generic env-mediated slow op.
Insn specialize_bytes(const EnvAccess::ProtocolBinding& pb,
                      const codegen::LinearProgram& linear,
                      const codegen::LinInsn& in) {
  const auto src = static_cast<BytesSrc>(in.a & 0x0f);
  const auto sel = static_cast<codegen::PacketSel>(in.a >> 4);
  const auto* target = EnvAccess::plan(pb, linear.refs[in.c].ref);
  using Kind = EnvAccess::Binding::Kind;
  const bool target_is_bytes = target != nullptr && target->kind == Kind::kBytes;
  if (target_is_bytes && src == BytesSrc::kField &&
      sel == codegen::PacketSel::kIncoming) {
    const auto* value = EnvAccess::plan(pb, linear.refs[in.b].ref);
    if (value != nullptr && value->kind == Kind::kBytes) {
      return {Op::kCopyPayload, 0, value->layer_slot, target->layer_slot};
    }
  }
  const auto* f = target_is_bytes && src == BytesSrc::kCall
                      ? framework::find(pb.profile, linear.names[in.b],
                                        framework::Kind::kBytes)
                      : nullptr;
  // A framework bytes function always succeeds, and a bytes target always
  // accepts. kIncomingPayload reads wire_[0].in_payload.
  if (f != nullptr && f->op == framework::Op::kExcerpt) {
    return {Op::kCopyExcerpt, 0, 0, target->layer_slot};
  }
  if (f != nullptr) return {Op::kCopyPayload, 0, 0, target->layer_slot};
  return {Op::kAssignBytes, in.a, in.b, in.c};
}

/// Specialize a scalar framework call: a row the profile serves becomes
/// kPushFramework, which hands the popped arguments to the row's op body
/// (the checksum rows read one); any other name reads as unknown, and
/// kPushNull pops its arguments.
Insn specialize_call(const EnvAccess::ProtocolBinding& pb,
                     const codegen::LinearProgram& linear,
                     const codegen::LinInsn& in) {
  const auto* f = framework::find(pb.profile, linear.names[in.b],
                                  framework::Kind::kScalar);
  if (f == nullptr) return {Op::kPushNull, in.a};
  return {Op::kPushFramework, in.a, static_cast<std::uint16_t>(f->op), in.b};
}

/// Specialize an effect call, with any argument count, into kEffect
/// keyed by its row's op; a name the profile does not serve takes
/// kEffect's failure path. The binding-key guard makes this sound: any
/// env the program can run against shares the table, hence the profile.
Insn specialize_effect(const EnvAccess::ProtocolBinding& pb,
                       const codegen::LinearProgram& linear,
                       const codegen::LinInsn& in) {
  const auto* f = framework::find(pb.profile, linear.names[in.b],
                                  framework::Kind::kEffect);
  return {Op::kEffect, in.a,
          f != nullptr ? static_cast<std::uint16_t>(f->op) : kUnserved, in.b};
}

inline bool is_branch(Op op) {
  return op == Op::kJumpIfFalse || op == Op::kJumpIfTrue;
}

/// Peephole superinstruction pass. Dispatch is the dominant per-op cost
/// for generated handlers (every op body is a handful of loads), so the
/// hottest idioms collapse into single ops:
///
///   kCmp, kJumpIf*                          -> kCmpBranch
///   kPushScenario, kPushConst, kCmp, branch -> kGuardScenario
///   kPushConst, kStoreWire (byte-sized)     -> kStoreWireConst
///   kPushStruct, kStoreStruct               -> kCopyStruct
///
/// Each fused op replays its sequence exactly (poison consumption, error
/// strings, branch polarity); a window is only fused when no jump lands
/// on an interior instruction, and all jump targets are remapped through
/// the old->new index map afterwards.
std::vector<Insn> fuse(const std::vector<Insn>& spec) {
  std::vector<bool> is_target(spec.size() + 1, false);
  for (const Insn& in : spec) {
    if (in.op == Op::kJump || is_branch(in.op)) is_target[in.c] = true;
  }
  const auto interior_free = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin + 1; i < end; ++i) {
      if (is_target[i]) return false;
    }
    return true;
  };

  std::vector<Insn> out;
  out.reserve(spec.size());
  std::vector<std::uint32_t> map(spec.size() + 1, 0);
  for (std::size_t i = 0; i < spec.size();) {
    map[i] = static_cast<std::uint32_t>(out.size());
    if (i + 3 < spec.size() && spec[i].op == Op::kPushScenario &&
        spec[i + 1].op == Op::kPushConst && spec[i + 2].op == Op::kCmp &&
        is_branch(spec[i + 3].op) && interior_free(i, i + 4)) {
      out.push_back({Op::kGuardScenario, spec[i + 2].a,
                     static_cast<std::uint16_t>(
                         spec[i + 3].op == Op::kJumpIfTrue ? 1 : 0),
                     spec[i + 3].c, spec[i + 1].imm});
      for (std::size_t j = i; j < i + 4; ++j) map[j] = map[i];
      i += 4;
    } else if (i + 1 < spec.size() && spec[i].op == Op::kCmp &&
               is_branch(spec[i + 1].op) && interior_free(i, i + 2)) {
      out.push_back({Op::kCmpBranch, spec[i].a,
                     static_cast<std::uint16_t>(
                         spec[i + 1].op == Op::kJumpIfTrue ? 1 : 0),
                     spec[i + 1].c});
      map[i + 1] = map[i];
      i += 2;
    } else if (i + 1 < spec.size() && spec[i].op == Op::kPushConst &&
               spec[i + 1].op == Op::kStoreWire && spec[i].imm >= 0 &&
               spec[i].imm <= 0xff && spec[i + 1].b <= 0xff &&
               interior_free(i, i + 2)) {
      out.push_back({Op::kStoreWireConst, spec[i + 1].a,
                     static_cast<std::uint16_t>((spec[i + 1].b << 8) |
                                                spec[i].imm),
                     spec[i + 1].c, spec[i + 1].imm});
      map[i + 1] = map[i];
      i += 2;
    } else if (i + 1 < spec.size() && spec[i].op == Op::kPushStruct &&
               spec[i + 1].op == Op::kStoreStruct && interior_free(i, i + 2)) {
      out.push_back({Op::kCopyStruct, spec[i].a,
                     static_cast<std::uint16_t>((spec[i].b << 8) |
                                                spec[i + 1].b),
                     spec[i + 1].c});
      map[i + 1] = map[i];
      i += 2;
    } else {
      out.push_back(spec[i]);
      ++i;
    }
  }
  map[spec.size()] = static_cast<std::uint32_t>(out.size());

  for (Insn& in : out) {
    if (in.op == Op::kJump || is_branch(in.op) || in.op == Op::kCmpBranch ||
        in.op == Op::kGuardScenario) {
      in.c = map[in.c];
    }
  }
  return out;
}

}  // namespace

const char* op_name(Op op) {
  static const char* const kNames[] = {
#define SAGE_VM_NAME(name) #name,
      SAGE_VM_OP_LIST(SAGE_VM_NAME)
#undef SAGE_VM_NAME
  };
  const auto i = static_cast<std::size_t>(op);
  return i < kNumOps ? kNames[i] : "<bad-op>";
}

std::size_t Program::program_bytes() const {
  std::size_t bytes = code_.size() * sizeof(Insn);
  for (const auto& r : refs_) {
    bytes += sizeof(codegen::FieldUse) + r.ref.layer.size() +
             r.ref.field.size();
  }
  for (const auto& n : names_) bytes += sizeof(std::string) + n.size();
  return bytes;
}

std::string Program::disassemble() const {
  std::string out;
  for (std::size_t i = 0; i < code_.size(); ++i) {
    const Insn& in = code_[i];
    out += std::to_string(i) + ": " + op_name(in.op);
    switch (in.op) {
      case Op::kPushConst:
        out += " " + std::to_string(in.imm);
        break;
      case Op::kJump:
      case Op::kJumpIfFalse:
      case Op::kJumpIfTrue:
      case Op::kCmpBranch:
        out += " -> " + std::to_string(in.c);
        break;
      case Op::kGuardScenario:
        out += " " + std::to_string(in.imm) + " -> " + std::to_string(in.c);
        break;
      case Op::kCopyStruct:
        out += " " + refs_[in.c].ref.to_string();
        break;
      case Op::kPushWire:
      case Op::kPushPayload:
      case Op::kStoreWire:
      case Op::kStorePayload: {
        const auto* spec = reinterpret_cast<const schema::FieldSpec*>(
            static_cast<std::uintptr_t>(in.imm));
        out += " " + spec->name;
        break;
      }
      case Op::kPushFramework:
      case Op::kEffect:
        out += " " + names_[in.c] + "/" + std::to_string(in.a);
        break;
      case Op::kStoreWireConst: {
        const auto* spec = reinterpret_cast<const schema::FieldSpec*>(
            static_cast<std::uintptr_t>(in.imm));
        out += " " + spec->name + " = " + std::to_string(in.b & 0xff);
        break;
      }
      case Op::kStoreFail:
      case Op::kStoreNoop:
      case Op::kStoreStruct:
      case Op::kStoreState:
        out += " " + refs_[in.c].ref.to_string();
        break;
      default:
        break;
    }
    out += "\n";
  }
  return out;
}

std::optional<Program> compile(const codegen::LinearProgram& linear) {
  if (linear.max_stack > kMaxStack) return std::nullopt;
  const auto& pb = EnvAccess::binding_for(linear.protocol);

  Program program;
  program.function_name_ = linear.function_name;
  program.protocol_ = linear.protocol;
  program.binding_key_ = &pb;
  program.refs_ = linear.refs;
  program.names_ = linear.names;
  program.max_stack_ = linear.max_stack;

  std::vector<Insn> spec(linear.code.size());
  for (std::size_t i = 0; i < linear.code.size(); ++i) {
    const codegen::LinInsn& in = linear.code[i];
    Insn out;
    switch (in.op) {
      case LinOp::kHalt:
        out = {Op::kHalt};
        break;
      case LinOp::kPushConst:
        out = {Op::kPushConst, 0, 0, 0, in.imm};
        break;
      case LinOp::kPushField:
        out = specialize_read(EnvAccess::plan(pb, linear.refs[in.b].ref), in);
        break;
      case LinOp::kPushScenario:
        out = {Op::kPushScenario};
        break;
      case LinOp::kCallScalar:
        out = specialize_call(pb, linear, in);
        break;
      case LinOp::kCmp:
        out = {Op::kCmp, in.a};
        break;
      case LinOp::kJump:
        out = {Op::kJump, 0, 0, in.c};
        break;
      case LinOp::kJumpIfFalse:
        out = {Op::kJumpIfFalse, 0, 0, in.c};
        break;
      case LinOp::kJumpIfTrue:
        out = {Op::kJumpIfTrue, 0, 0, in.c};
        break;
      case LinOp::kStoreField:
        out = specialize_store(pb, EnvAccess::plan(pb, linear.refs[in.b].ref),
                               in);
        break;
      case LinOp::kAssignBytes:
        out = specialize_bytes(pb, linear, in);
        break;
      case LinOp::kCallEffect:
        out = specialize_effect(pb, linear, in);
        break;
    }
    spec[i] = out;
  }

  const std::vector<Insn> fused = fuse(spec);

  auto* code = reinterpret_cast<Insn*>(
      program.arena_.allocate(fused.size() * sizeof(Insn), alignof(Insn)));
  std::memcpy(code, fused.data(), fused.size() * sizeof(Insn));
  program.code_ = {code, fused.size()};
  codegen::note_program_compiled(program.program_bytes());
  return program;
}

std::optional<Program> compile(const codegen::GeneratedFunction& fn) {
  return compile(codegen::compile_to_program(fn));
}

}  // namespace sage::runtime::vm
