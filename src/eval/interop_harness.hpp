// Interop harness (§2.1's methodology): "we used the Linux ping tool to
// send an echo message to their router". Runs the ping model against
// each cohort member's router and aggregates Table 2.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "eval/students.hpp"
#include "sim/ping.hpp"

namespace sage::eval {

/// Result for one implementation.
struct StudentResult {
  std::string name;
  bool compiled = true;
  bool passed = false;
  std::set<sim::InteropError> errors;
};

/// One Table 2 row.
struct Table2Row {
  sim::InteropError category;
  std::size_t count = 0;       // among faulty implementations
  double frequency = 0.0;      // count / faulty
};

struct CohortReport {
  std::vector<StudentResult> results;
  std::size_t total = 0;
  std::size_t passed = 0;       // paper: 24 (61.5%)
  std::size_t failed_compile = 0;  // paper: 1
  std::size_t faulty = 0;          // paper: 14
  std::vector<Table2Row> table2;
};

/// Run the §2.1 experiment: install each implementation in the Appendix A
/// router, ping it from the client, classify failures.
CohortReport run_student_experiment(const std::vector<Student>& cohort);

/// Run the ping interop test against a single responder (used by the
/// Table 3 bench and the under-specification demonstration).
sim::PingResult ping_against(sim::IcmpResponder* responder);

}  // namespace sage::eval
