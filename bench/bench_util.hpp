// Shared helpers for the benches. Every bench prints a header naming the
// paper artifact it regenerates, the measured rows, and (where the paper
// gives numbers) the expected values for comparison. The scorecard
// benches, which track this repo's own speed, record their numbers and
// gates through one benchutil::Scorecard.
#pragma once

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if __has_include("bench_git_sha.h")
#include "bench_git_sha.h"  // generated at build time (bench/git_sha.cmake)
#else
#define SAGE_BENCH_GIT_SHA "unknown"
#endif

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

/// printf into a std::string (up to 255 bytes), for table cells, gate
/// details and JSON numbers.
[[gnu::format(printf, 1, 2)]] inline std::string fmt(const char* format,
                                                     ...) {
  char buf[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  return buf;
}

inline std::string percent(double fraction) {
  return fmt("%.0f%%", fraction * 100.0);
}

/// Steady-clock milliseconds, for timing a bench's loops.
inline double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// An ordered JSON object of numbers, strings, nested objects and arrays
/// of objects. Each number prints with the decimals it is given.
class Json {
 public:
  Json& num(const std::string& key, double value, int decimals = 0) {
    return add(key, fmt("%.*f", decimals, value));
  }
  Json& str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    return add(key, quoted + '"');
  }
  Json& obj(const std::string& key, const Json& value) {
    return add(key, value.text());
  }
  /// An array printed one object per line.
  Json& arr(const std::string& key, const std::vector<Json>& rows) {
    std::string out = "[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      out += (i == 0 ? "\n    " : ",\n    ") + rows[i].text();
    }
    return add(key, out + "\n  ]");
  }

 protected:
  Json& add(const std::string& key, std::string rendered) {
    fields_.emplace_back(key, std::move(rendered));
    return *this;
  }

  /// The object on one line, or with one member per line.
  std::string text(bool multiline = false) const {
    std::string out = multiline ? "{\n  " : "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += multiline ? ",\n  " : ", ";
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    return out + (multiline ? "\n}\n" : "}");
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// One bench's scorecard: the machine record, the bench's fields (the
/// Json base) and its named gates. finish() writes BENCH_<name>.json into
/// the working directory, copies it into the tracked bench/results/, and
/// returns the bench's exit status.
class Scorecard : public Json {
 public:
  explicit Scorecard(std::string name) : name_(std::move(name)) {
    add("machine", machine_json());
  }

  /// Records a gate and prints its row; a failed gate is also reported
  /// on stderr and makes finish() return 1.
  void gate(const std::string& name, bool ok, const std::string& detail) {
    gates_ += fmt("%s\"%s\": %s", gates_.empty() ? "" : ", ", name.c_str(),
                  ok ? "true" : "false");
    failed_ = failed_ || !ok;
    row((ok ? "gate " : "GATE FAILED ") + name, detail);
    if (!ok) {
      std::fprintf(stderr, "GATE FAILED: %s: %s\n", name.c_str(),
                   detail.c_str());
    }
  }

  int finish() {
    add("gates", "{" + gates_ + "}");
    const std::string file = "BENCH_" + name_ + ".json";
    if (write(file)) {
      row("written", file);
#ifdef SAGE_BENCH_RESULTS_DIR
      const std::string dest = std::string(SAGE_BENCH_RESULTS_DIR) + "/" + file;
      if (write(dest)) row("committed", dest);
#endif
    }
    return failed_ ? 1 : 0;
  }

 private:
  /// The machine and tree the scorecard was measured on: core count,
  /// compiler, build type (bench/CMakeLists.txt passes it) and the git
  /// sha the bench was built from ("-dirty" when tracked files had
  /// uncommitted changes, "unknown" outside a git checkout).
  static std::string machine_json() {
#ifdef SAGE_BENCH_BUILD_TYPE
    const char* build_type = SAGE_BENCH_BUILD_TYPE;
#else
    const char* build_type = "unknown";
#endif
    return fmt("{\"nproc\": %u, \"compiler\": \"%s\", "
               "\"build_type\": \"%s\", \"git_sha\": \"%s\"}",
               std::thread::hardware_concurrency(), __VERSION__, build_type,
               SAGE_BENCH_GIT_SHA);
  }

  /// A file that cannot be written is reported on stderr; the bench's
  /// exit status is unaffected.
  bool write(const std::string& path) const {
    FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "scorecard: cannot write %s\n", path.c_str());
      return false;
    }
    std::fputs(text(true).c_str(), out);
    std::fclose(out);
    return true;
  }

  std::string name_;
  std::string gates_;  // rendered members of the "gates" object
  bool failed_ = false;
};

}  // namespace sage::benchutil
