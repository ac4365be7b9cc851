#include "eval/interop_harness.hpp"

#include "sim/network.hpp"

namespace sage::eval {

sim::PingResult ping_against(sim::IcmpResponder* responder) {
  sim::Network net = sim::make_appendix_a_network();
  net.router()->set_responder(responder);
  sim::PingClient ping;
  return ping.ping(net, "client", net::IpAddr(10, 0, 1, 1));
}

CohortReport run_student_experiment(const std::vector<Student>& cohort) {
  CohortReport report;
  report.total = cohort.size();

  std::map<sim::InteropError, std::size_t> counts;
  for (const auto& student : cohort) {
    StudentResult result;
    result.name = student.name;
    if (!student.responder) {
      result.compiled = false;
      ++report.failed_compile;
      report.results.push_back(std::move(result));
      continue;
    }
    const auto ping = ping_against(student.responder.get());
    result.passed = ping.success;
    result.errors = ping.errors;
    if (ping.success) {
      ++report.passed;
    } else {
      ++report.faulty;
      for (const auto e : ping.errors) ++counts[e];
    }
    report.results.push_back(std::move(result));
  }

  static const sim::InteropError kOrder[] = {
      sim::InteropError::kIpHeader,       sim::InteropError::kIcmpHeader,
      sim::InteropError::kByteOrder,      sim::InteropError::kPayloadContent,
      sim::InteropError::kReplyLength,    sim::InteropError::kChecksumOrDropped,
  };
  for (const auto category : kOrder) {
    Table2Row row;
    row.category = category;
    row.count = counts.count(category) != 0 ? counts[category] : 0;
    row.frequency =
        report.faulty == 0
            ? 0.0
            : static_cast<double>(row.count) / static_cast<double>(report.faulty);
    report.table2.push_back(row);
  }
  return report;
}

}  // namespace sage::eval
