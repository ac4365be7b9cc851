#include "core/generated_icmp.hpp"

#include "corpus/rfc4443.hpp"
#include "corpus/rfc792.hpp"

namespace sage::core {

namespace {

/// `run`'s functions registered on `backend`, once per process for each
/// backend.
template <typename Responder>
const Responder& canonical_responder(const ProtocolRun& run,
                                     runtime::vm::ExecBackend backend) {
  const auto build = [&run](runtime::vm::ExecBackend b) {
    Responder responder(b);
    for (const auto& fn : run.functions) responder.add_function(fn);
    return responder;
  };
  if (backend == runtime::vm::ExecBackend::kTree) {
    static const Responder tree = build(backend);
    return tree;
  }
  static const Responder threaded = build(backend);
  return threaded;
}

}  // namespace

const ProtocolRun& canonical_icmp_run() {
  static const ProtocolRun run = [] {
    Sage sage;
    sage.annotate_non_actionable(corpus::icmp_non_actionable_annotations());
    return sage.process(corpus::rfc792_revised(), "ICMP");
  }();
  return run;
}

const ProtocolRun& canonical_icmp6_run() {
  static const ProtocolRun run = [] {
    Sage sage;
    sage.annotate_non_actionable(corpus::icmp6_non_actionable_annotations());
    return sage.process(corpus::rfc4443_revised(), "ICMP6");
  }();
  return run;
}

const runtime::GeneratedIcmpResponder& canonical_icmp_responder(
    runtime::vm::ExecBackend backend) {
  return canonical_responder<runtime::GeneratedIcmpResponder>(
      canonical_icmp_run(), backend);
}

const runtime::GeneratedIcmp6Responder& canonical_icmp6_responder(
    runtime::vm::ExecBackend backend) {
  return canonical_responder<runtime::GeneratedIcmp6Responder>(
      canonical_icmp6_run(), backend);
}

}  // namespace sage::core
