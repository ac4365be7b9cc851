// GeneratedIcmpResponder: runs SAGE-generated ICMP code inside the
// simulator (§6.2's end-to-end evaluation).
//
// The Mininet-equivalent router/host calls the sim::IcmpResponder
// interface; this implementation dispatches each event to the generated
// packet-handling function for the corresponding RFC 792 message and
// role, and returns the reply packet the generated code constructed.
// Nothing here hard-codes protocol behaviour — if the generated code is
// wrong or a function is missing, the interop tests fail.
//
// Dispatch is a fixed event table shared with GeneratedIcmp6Responder
// (GeneratedResponder below): each row names its function, whether the
// reply starts as a copy of the request, and the scenario symbol each
// ICMP code selects, all resolved once per process. add_function points
// the rows at their handler, so answering a packet indexes the table
// and does no string work.
//
// A responder shares its rows and compiled handlers, one immutable set,
// with its copies: a copy compiles nothing and keeps its own
// last_errors(). add_function installs a new set built from the current
// one, so it changes only the responder it is called on.
//
// Each registered function executes on one of two backends
// (vm::ExecBackend): the threaded-code VM (default — the function is
// compiled once at registration, runtime/vm) or the tree-walking
// reference interpreter. Both produce byte-identical replies and
// identical diagnostics; tests/test_vm_differential.cpp enforces it.
#pragma once

#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "codegen/ir.hpp"
#include "runtime/schema_env.hpp"
#include "runtime/vm/exec.hpp"
#include "runtime/vm/program.hpp"
#include "sim/responder.hpp"

namespace sage::runtime {

/// The event table and run core both generated responders share.
class GeneratedResponder {
 public:
  using Reply = std::optional<std::vector<std::uint8_t>>;

  /// Register a generated function (keyed by its context-derived name,
  /// replacing any earlier one of that name) and point the events it
  /// answers at it. On the threaded backend this is where the one-time
  /// compilation to flat code happens.
  void add_function(codegen::GeneratedFunction fn);

  vm::ExecBackend backend() const { return backend_; }

  bool has_function(const std::string& name) const {
    return handlers_->functions.count(name) != 0;
  }
  std::size_t function_count() const { return handlers_->functions.size(); }

  /// Execution diagnostics from the most recent event (for tests).
  const std::vector<std::string>& last_errors() const { return last_errors_; }

 protected:
  /// One responder event, resolved once per process: the generated
  /// function that answers it, whether the reply starts as a byte copy of
  /// the request (RFC 792's reply-by-mutation), and the symbol value of
  /// the scenario each ICMP code selects (a code past the end selects the
  /// first).
  struct Event {
    std::string function;
    bool start_from_incoming = false;
    std::vector<long> scenarios;
  };

  /// The event for the generated function of `protocol`'s RFC `message`
  /// and `role` (named the way the generator names it).
  static Event event(const char* protocol, const char* message,
                     const char* role, bool start_from_incoming,
                     std::initializer_list<std::string_view> scenarios);

  /// `events` outlives the responder; `undecodable` is the diagnostic for
  /// a trigger the env cannot parse.
  GeneratedResponder(const std::vector<Event>& events, const char* undecodable,
                     vm::ExecBackend backend);

  /// One registered handler: the IR tree (reference backend, and the
  /// fallback when a program exceeds VM limits) plus its compiled form.
  struct Entry {
    codegen::GeneratedFunction fn;
    std::optional<vm::Program> program;
  };

  /// An event and the handler registered for it (null until then).
  struct Row {
    const Event* event;
    const Entry* entry = nullptr;
  };

  /// Start answering event `index`: its row, or nullptr (with the
  /// missing-function diagnostic) when no handler is registered for it.
  const Row* lookup(std::size_t index);

  /// Run `row`'s handler in `env` under the scenario `code` selects and
  /// serialize the reply; nullopt if the env or the execution failed.
  Reply respond(const Row& row, SchemaExecEnv& env, std::uint8_t code);

 private:
  /// The handler set, immutable once built: one row per event and the
  /// registered entries by name, shared with the sets built from it.
  struct Handlers {
    std::vector<Row> rows;
    std::map<std::string, std::shared_ptr<const Entry>> functions;
  };

  vm::ExecBackend backend_;
  const char* undecodable_;
  std::shared_ptr<const Handlers> handlers_;
  std::vector<std::string> last_errors_;
};

class GeneratedIcmpResponder : public sim::IcmpResponder,
                               public GeneratedResponder {
 public:
  explicit GeneratedIcmpResponder(
      vm::ExecBackend backend = vm::ExecBackend::kThreaded);

  // -- sim::IcmpResponder ----------------------------------------------------
  Reply on_echo_request(const sim::ResponderContext& ctx) override {
    return run(kEcho, ctx);
  }
  Reply on_timestamp_request(const sim::ResponderContext& ctx) override {
    return run(kTimestamp, ctx);
  }
  Reply on_information_request(const sim::ResponderContext& ctx) override {
    return run(kInformation, ctx);
  }
  Reply on_destination_unreachable(const sim::ResponderContext& ctx,
                                   std::uint8_t code) override {
    return run(kUnreachable, ctx, code);
  }
  Reply on_time_exceeded(const sim::ResponderContext& ctx) override {
    return run(kTimeExceeded, ctx);
  }
  Reply on_parameter_problem(const sim::ResponderContext& ctx,
                             std::uint8_t pointer) override {
    return run(kParameterProblem, ctx, 0, pointer);
  }
  Reply on_source_quench(const sim::ResponderContext& ctx) override {
    return run(kSourceQuench, ctx);
  }
  Reply on_redirect(const sim::ResponderContext& ctx,
                    net::IpAddr gateway) override {
    return run(kRedirect, ctx, 0, 0, gateway);
  }

 private:
  /// RFC 792 events, indexing events().
  enum Icmp : std::size_t {
    kEcho, kTimestamp, kInformation, kUnreachable, kTimeExceeded,
    kParameterProblem, kSourceQuench, kRedirect,
  };
  static const std::vector<Event>& events();

  Reply run(Icmp event, const sim::ResponderContext& ctx,
            std::uint8_t code = 0, std::uint8_t pointer = 0,
            net::IpAddr gateway = {});
};

}  // namespace sage::runtime
