// The canonical rendering of a pipeline run, the golden every spec ->
// code test and benchmark compares.
#pragma once

#include <string>

#include "core/sage.hpp"

namespace sage::core {

/// Canonical rendering of a ProtocolRun: the full SentenceReport
/// sequence (status, candidate sets, winnow stage counts, final forms,
/// context flags), the generated functions (names and C bodies), and the
/// discovered-non-actionable list. Runs of the same corpus from fresh
/// Sage instances render byte-identically whether their parse cache is
/// private, shared or off; the differential tests, the serve daemon's
/// result digests and the end-to-end benchmark's corpus checks all
/// compare this string. Cache counters and execution counters are
/// deliberately excluded: they depend on what ran before.
std::string protocol_run_signature(const ProtocolRun& run);

}  // namespace sage::core
