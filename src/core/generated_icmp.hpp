// The canonical generated-ICMP artifact: one pipeline run over the
// revised RFC 792 text with the standard non-actionable annotations,
// memoized process-wide, and the generated responders registering its
// functions. The fuzz harness, the debug tool, and the throughput bench
// all differentially test the *same* generated code, and none of them
// pays for a second pipeline pass or a second compile.
#pragma once

#include "core/sage.hpp"
#include "runtime/generated_responder.hpp"
#include "runtime/generated_responder6.hpp"

namespace sage::core {

/// Processed once per process (thread-safe); immutable afterwards.
const ProtocolRun& canonical_icmp_run();

/// Same contract for the revised RFC 4443 text (ICMPv6).
const ProtocolRun& canonical_icmp6_run();

/// A responder with every function of canonical_icmp_run() registered on
/// `backend`, built once per process and backend (thread-safe). Callers
/// answer packets on a copy, which shares its compiled handlers.
const runtime::GeneratedIcmpResponder& canonical_icmp_responder(
    runtime::vm::ExecBackend backend = runtime::vm::ExecBackend::kThreaded);

/// Same contract for canonical_icmp6_run() (ICMPv6).
const runtime::GeneratedIcmp6Responder& canonical_icmp6_responder(
    runtime::vm::ExecBackend backend = runtime::vm::ExecBackend::kThreaded);

}  // namespace sage::core
