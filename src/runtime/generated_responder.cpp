#include "runtime/generated_responder.hpp"

#include "codegen/generator.hpp"
#include "util/symbols.hpp"

namespace sage::runtime {

GeneratedResponder::Event GeneratedResponder::event(
    const char* protocol, const char* message, const char* role,
    bool start_from_incoming,
    std::initializer_list<std::string_view> scenarios) {
  Event e;
  e.function = codegen::CodeGenerator::function_name(protocol, message, role);
  e.start_from_incoming = start_from_incoming;
  for (const auto scenario : scenarios) {
    e.scenarios.push_back(util::symbol_value(scenario));
  }
  return e;
}

GeneratedResponder::GeneratedResponder(const std::vector<Event>& events,
                                       const char* undecodable,
                                       vm::ExecBackend backend)
    : backend_(backend), undecodable_(undecodable) {
  auto handlers = std::make_shared<Handlers>();
  handlers->rows.reserve(events.size());
  for (const Event& e : events) handlers->rows.push_back({&e});
  handlers_ = std::move(handlers);
}

void GeneratedResponder::add_function(codegen::GeneratedFunction fn) {
  auto entry = std::make_shared<Entry>();
  if (backend_ == vm::ExecBackend::kThreaded) {
    entry->program = vm::compile(fn);
  }
  entry->fn = std::move(fn);
  auto next = std::make_shared<Handlers>(*handlers_);
  for (Row& row : next->rows) {
    if (row.event->function == entry->fn.name) row.entry = entry.get();
  }
  next->functions[entry->fn.name] = entry;
  handlers_ = std::move(next);
}

const GeneratedResponder::Row* GeneratedResponder::lookup(std::size_t index) {
  last_errors_.clear();
  const Row& row = handlers_->rows[index];
  if (row.entry == nullptr) {
    last_errors_.push_back("no generated function named " +
                           row.event->function);
    return nullptr;
  }
  return &row;
}

GeneratedResponder::Reply GeneratedResponder::respond(const Row& row,
                                                     SchemaExecEnv& env,
                                                     std::uint8_t code) {
  if (!env.valid()) {
    last_errors_.push_back(undecodable_);
    return std::nullopt;
  }
  const std::vector<long>& scenarios = row.event->scenarios;
  env.set_scenario_value(code < scenarios.size() ? scenarios[code]
                                                 : scenarios[0]);
  const Entry& entry = *row.entry;
  ExecResult result = entry.program.has_value()
                          ? vm::execute(*entry.program, env)
                          : Interpreter().run(entry.fn.body, env);
  if (!result.ok) {
    last_errors_ = std::move(result.errors);
    return std::nullopt;
  }
  return env.finish_reply();
}

const std::vector<GeneratedResponder::Event>& GeneratedIcmpResponder::events() {
  static const std::vector<Event> table = {
      event("ICMP", "Echo or Echo Reply Message", "receiver", true,
            {"echo reply message"}),
      event("ICMP", "Timestamp or Timestamp Reply Message", "receiver", true,
            {"timestamp reply message"}),
      event("ICMP", "Information Request or Information Reply Message",
            "receiver", true, {"information reply message"}),
      event("ICMP", "Destination Unreachable Message", "sender", false,
            {"net unreachable", "host unreachable", "protocol unreachable",
             "port unreachable", "fragmentation needed and df set",
             "source route failed"}),
      event("ICMP", "Time Exceeded Message", "sender", false,
            {"time to live exceeded in transit"}),
      event("ICMP", "Parameter Problem Message", "sender", false,
            {"pointer indicates the error"}),
      event("ICMP", "Source Quench Message", "sender", false,
            {"source quench"}),
      event("ICMP", "Redirect Message", "sender", false,
            {"redirect datagrams for the host"}),
  };
  return table;
}

GeneratedIcmpResponder::GeneratedIcmpResponder(vm::ExecBackend backend)
    : GeneratedResponder(events(), "triggering packet is not decodable IPv4",
                         backend) {}

GeneratedResponder::Reply GeneratedIcmpResponder::run(
    Icmp event, const sim::ResponderContext& ctx, std::uint8_t code,
    std::uint8_t pointer, net::IpAddr gateway) {
  const Row* row = lookup(event);
  if (row == nullptr) return std::nullopt;
  auto env = SchemaExecEnv::icmp(ctx.triggering_packet, ctx.own_address,
                                 row->event->start_from_incoming);
  env.set_error_pointer(pointer);
  env.set_better_gateway(gateway);
  return respond(*row, env, code);
}

}  // namespace sage::runtime
