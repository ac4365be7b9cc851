// Shared formatting helpers for the table/figure benches. Every bench
// prints a header naming the paper artifact it regenerates, the measured
// rows, and (where the paper gives numbers) the expected values for
// comparison.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace sage::benchutil {

inline void title(const std::string& name, const std::string& description) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", name.c_str(), description.c_str());
  std::printf("================================================================\n");
}

inline void rule() {
  std::printf("----------------------------------------------------------------\n");
}

/// Simple fixed-width two-column row.
inline void row(const std::string& left, const std::string& right,
                int left_width = 52) {
  std::printf("%-*s %s\n", left_width, left.c_str(), right.c_str());
}

inline std::string percent(double fraction) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%.0f%%", fraction * 100.0);
  return buf;
}

/// Copy a just-written BENCH_*.json scorecard from the working directory
/// into the tracked bench/results/ snapshot directory (the build defines
/// SAGE_BENCH_RESULTS_DIR), so the perf trajectory survives clean build
/// trees. Call after closing the scorecard; no-op when the definition is
/// absent. A file that cannot be opened is reported on stderr and the
/// copy skipped; the bench's own exit status is unaffected.
inline void commit_scorecard(const std::string& filename) {
#ifdef SAGE_BENCH_RESULTS_DIR
  FILE* in = std::fopen(filename.c_str(), "rb");
  if (in == nullptr) {
    std::fprintf(stderr, "commit_scorecard: cannot read %s\n",
                 filename.c_str());
    return;
  }
  const std::string dest =
      std::string(SAGE_BENCH_RESULTS_DIR) + "/" + filename;
  FILE* out = std::fopen(dest.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "commit_scorecard: cannot write %s\n", dest.c_str());
    std::fclose(in);
    return;
  }
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, in)) > 0) {
    std::fwrite(buf, 1, n, out);
  }
  std::fclose(out);
  std::fclose(in);
  row("committed", dest);
#else
  (void)filename;
#endif
}

}  // namespace sage::benchutil
