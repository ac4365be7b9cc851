#include "serve/stats.hpp"

#include <sstream>

#include "sim/network.hpp"

namespace sage::serve {

std::string StatsSnapshot::to_json() const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"serve\": {"
      << "\"connections\": " << connections
      << ", \"frames_rejected\": " << frames_rejected
      << ", \"jobs_ok\": " << jobs_ok
      << ", \"jobs_failed\": " << jobs_failed
      << ", \"connection_threads\": " << connection_threads << "},\n";
  out << "  \"pipeline_cache\": {"
      << "\"hits\": " << pipeline_hits
      << ", \"misses\": " << pipeline_misses
      << ", \"cached\": " << pipelines_cached << "},\n";
  out << "  \"parse_cache\": {"
      << "\"hits\": " << parse_cache.hits
      << ", \"misses\": " << parse_cache.misses
      << ", \"evictions\": " << parse_cache.evictions
      << ", \"size\": " << parse_cache_size
      << ", \"capacity\": " << parse_cache_capacity << "},\n";
  out << "  \"exec\": {"
      << "\"programs_compiled\": " << exec.programs_compiled
      << ", \"program_bytes\": " << exec.program_bytes
      << ", \"ops_executed\": " << exec.ops_executed
      << ", \"slow_path_entries\": " << exec.slow_path_entries
      << ", \"tree_stmts_executed\": " << exec.tree_stmts_executed << "},\n";
  out << "  \"sim\": {"
      << "\"transient_clear_refusals\": " << sim_clear_refusals
      << ", \"peak_arena_high_water\": " << sim_peak_arena_high_water
      << "}\n";
  out << "}\n";
  return out.str();
}

StatsSnapshot StatsSnapshot::capture(const ccg::ParseCache* cache) {
  StatsSnapshot snap;
  if (cache != nullptr) {
    snap.parse_cache = cache->stats();
    snap.parse_cache_size = cache->size();
    snap.parse_cache_capacity = cache->capacity();
  }
  snap.exec = codegen::exec_stats();
  snap.sim_clear_refusals = sim::Network::total_transient_clear_refusals();
  snap.sim_peak_arena_high_water = sim::Network::peak_arena_high_water();
  return snap;
}

}  // namespace sage::serve
