// Internal bridge between the VM and SchemaExecEnv's private storage.
//
// The executor's fast-path ops read and write the env's layer images and
// slots directly; the program compiler specializes against the env's
// per-protocol binding tables. Both go through this friend struct so the
// env's encapsulation boundary stays in one place. Not installed /
// included outside src/runtime/vm.
#pragma once

#include "runtime/schema_env.hpp"

namespace sage::runtime::vm {

struct EnvAccess {
  using Binding = SchemaExecEnv::Binding;
  using ProtocolBinding = SchemaExecEnv::ProtocolBinding;
  using LayerImages = SchemaExecEnv::LayerImages;

  static const ProtocolBinding& binding_for(const std::string& protocol) {
    return SchemaExecEnv::binding_for(protocol);
  }

  static const Binding* plan(const ProtocolBinding& pb,
                             const codegen::FieldRef& ref) {
    return SchemaExecEnv::binding(pb, ref);
  }

  static const void* binding_key(const SchemaExecEnv& env) { return env.pb_; }

  static std::pmr::vector<LayerImages>& wire(SchemaExecEnv& env) {
    return env.wire_;
  }
  static std::vector<long>& state(SchemaExecEnv& env) {
    return env.state_slots_;
  }
  static std::optional<long> read_struct(const SchemaExecEnv& env,
                                         std::uint8_t slot,
                                         codegen::PacketSel sel) {
    return env.read_struct(slot, sel);
  }
  static bool write_struct(SchemaExecEnv& env, std::uint8_t slot, long value) {
    return env.write_struct(slot, value);
  }
  static long scenario_value(const SchemaExecEnv& env) {
    return env.scenario_value_;
  }

  // The framework table's op bodies (codegen/framework.hpp), the same
  // ones SchemaExecEnv::call_scalar and call_effect run: kPushFramework
  // reads a value op, kEffect runs an effect op.
  static long framework_value(const SchemaExecEnv& env,
                              codegen::framework::Op op,
                              std::span<const long> args) {
    return env.framework_value(op, args);
  }
  static void framework_effect(SchemaExecEnv& env,
                               codegen::framework::Op op) {
    env.framework_effect(op);
  }
  static std::span<const std::uint8_t> datagram_excerpt(
      const SchemaExecEnv& env) {
    return env.datagram_excerpt();
  }
};

}  // namespace sage::runtime::vm
