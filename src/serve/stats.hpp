// Machine-readable service counters (json-ish text dump).
//
// Before this existed the process' health counters were scattered and
// print-only: ParseCache hits/misses lived on ProtocolRun, the
// generated-code ExecStats behind codegen::exec_stats(), and the
// simulator's clear_transient() refusal path was not surfaced anywhere.
// StatsSnapshot gathers all of them into one struct with a stable
// json-ish rendering, answered by the server's kStatsRequest frame,
// printed by `sage_debug --parse-stats`, and sampled per N jobs by the
// serve soak driver to gate on steady-state memory (docs/SERVICE.md).
#pragma once

#include <cstdint>
#include <string>

#include "ccg/parse_cache.hpp"
#include "codegen/lowering.hpp"

namespace sage::serve {

struct StatsSnapshot {
  // Server-side job accounting (zero when captured outside a server).
  std::uint64_t connections = 0;
  std::uint64_t frames_rejected = 0;  // malformed frames answered + closed
  std::uint64_t jobs_ok = 0;
  std::uint64_t jobs_failed = 0;
  /// Connection threads the server holds: live connections plus those
  /// finished since the last connection arrived (joined on arrival).
  std::uint64_t connection_threads = 0;

  // Session pipeline cache (corpus -> compiled pipeline + handlers).
  std::uint64_t pipeline_hits = 0;
  std::uint64_t pipeline_misses = 0;
  std::uint64_t pipelines_cached = 0;

  // Shared parse-memoization cache.
  ccg::ParseCacheStats parse_cache;
  std::size_t parse_cache_size = 0;
  std::size_t parse_cache_capacity = 0;

  // Generated-code execution counters (process-wide monotonic totals).
  codegen::ExecStats exec;

  // Simulator memory-stability counters (process-wide).
  std::uint64_t sim_clear_refusals = 0;
  std::uint64_t sim_peak_arena_high_water = 0;

  /// Stable json-ish rendering (docs/SERVICE.md shows the shape).
  std::string to_json() const;

  /// Snapshot of the process-wide counters plus, when given, a parse
  /// cache — what `sage_debug --parse-stats` prints when no server is
  /// running.
  static StatsSnapshot capture(const ccg::ParseCache* cache);
};

}  // namespace sage::serve
