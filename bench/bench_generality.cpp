// §6.3 generality: IGMP (RFC 1112 Appendix I) and NTP (RFC 1059
// Appendices A/B). Reports the incremental lexicon/check/handler cost,
// runs the generated IGMP sender against a commodity-switch model, and
// generates the NTP timeout packet with both NTP and UDP headers.
#include <cstdio>

#include "bench_util.hpp"
#include "codegen/generator.hpp"
#include "core/sage.hpp"
#include "corpus/rfc1059.hpp"
#include "corpus/rfc1112.hpp"
#include "net/igmp.hpp"
#include "runtime/interpreter.hpp"
#include "runtime/schema_env.hpp"
#include "sim/inspector.hpp"

namespace {

using namespace sage;

/// The "commodity switch" of §6.3: receives a host membership query and
/// answers with a membership report for the queried group.
std::optional<net::IgmpMessage> commodity_switch(
    std::span<const std::uint8_t> packet, net::IpAddr member_group) {
  const auto ip = net::Ipv4Header::parse(packet);
  if (!ip || ip->protocol != static_cast<std::uint8_t>(net::IpProto::kIgmp)) {
    return std::nullopt;
  }
  const auto query = net::IgmpMessage::parse(packet.subspan(ip->header_length()));
  if (!query || query->type != net::IgmpType::kHostMembershipQuery) {
    return std::nullopt;
  }
  if (!net::IgmpMessage::verify_checksum(
          packet.subspan(ip->header_length()))) {
    return std::nullopt;  // a real switch drops bad-checksum IGMP
  }
  net::IgmpMessage report;
  report.type = net::IgmpType::kHostMembershipReport;
  report.group_address = member_group;
  return report;
}

}  // namespace

int main() {
  benchutil::title("§6.3 generality", "IGMP and NTP through the pipeline");

  // ---- incremental lexicon cost -------------------------------------------
  core::Sage sage;
  std::printf("incremental lexicon entries (paper: ICMP 71, IGMP +8, NTP +5):\n");
  std::printf("  icmp %zu, igmp +%zu, ntp +%zu, bfd +%zu\n\n",
              sage.lexicon().count_by_source("icmp"),
              sage.lexicon().count_by_source("igmp"),
              sage.lexicon().count_by_source("ntp"),
              sage.lexicon().count_by_source("bfd"));

  // ---- IGMP -----------------------------------------------------------------
  {
    core::Sage igmp_sage;
    igmp_sage.annotate_non_actionable(corpus::igmp_non_actionable_annotations());
    auto run = igmp_sage.process(corpus::rfc1112_appendix_i(), "IGMP");
    std::printf("IGMP: %zu instances, %zu parsed, %zu ambiguous, %zu functions\n",
                run.reports.size(), run.count(core::SentenceStatus::kParsed),
                run.count(core::SentenceStatus::kAmbiguous),
                run.functions.size());

    // Run the generated sender for the query scenario and hand the packet
    // to the switch model.
    const runtime::Interpreter interp;
    auto env = runtime::SchemaExecEnv::igmp(net::IpAddr(10, 0, 1, 100),
                             net::IpAddr(224, 1, 2, 3));
    env.set_scenario("host membership query message");
    bool ran = false;
    for (const auto& fn : run.functions) {
      const auto result = interp.run(fn.body, env);
      ran = result.ok;
    }
    const auto query_packet = env.finish(net::IpAddr(224, 0, 0, 1));
    sim::PacketInspector inspector;
    const auto inspection = inspector.inspect(query_packet);
    std::printf("  generated query: %s\n", inspection.summary.c_str());
    std::printf("  tcpdump model:   %s\n",
                inspection.clean() ? "clean" : "FLAGGED");
    const auto response =
        commodity_switch(query_packet, net::IpAddr(224, 1, 2, 3));
    std::printf("  switch interop:  %s (paper: switch responds correctly)\n",
                ran && response &&
                        response->type == net::IgmpType::kHostMembershipReport
                    ? "PASS"
                    : "FAIL");
  }

  // ---- NTP --------------------------------------------------------------------
  {
    core::Sage ntp_sage;
    ntp_sage.annotate_non_actionable(corpus::ntp_non_actionable_annotations());
    auto run = ntp_sage.process(corpus::rfc1059_appendices(), "NTP");
    std::printf("\nNTP: %zu instances, %zu parsed, %zu functions\n",
                run.reports.size(), run.count(core::SentenceStatus::kParsed),
                run.functions.size());

    const runtime::Interpreter interp;
    auto env = runtime::SchemaExecEnv::ntp(net::IpAddr(10, 0, 1, 100),
                                           0x83aa7e80);
    for (const auto& fn : run.functions) interp.run(fn.body, env);

    // Table 11's sentence drives the timeout call.
    rfc::SpecSentence sentence;
    sentence.text = corpus::ntp_timeout_sentence();
    sentence.context["protocol"] = "NTP";
    sentence.context["message"] = "NTP Peer Variables";
    const auto report = ntp_sage.analyze_sentence(sentence);
    if (report.final_form) {
      const codegen::CodeGenerator generator(&ntp_sage.static_context());
      codegen::SentenceLf entry;
      entry.form = *report.final_form;
      entry.context = codegen::DynamicContext::from_map(sentence.context);
      entry.sentence = sentence.text;
      const auto outcome =
          generator.generate("NTP", "NTP Peer Variables", "sender", {&entry, 1});
      if (outcome.function) interp.run(outcome.function->body, env);
    }
    std::printf("  timeout procedure called: %s (paper: parsed into a code "
                "snippet)\n",
                env.timeout_called() ? "yes" : "NO");

    const auto packet = env.finish(net::IpAddr(192, 168, 2, 100));
    sim::PacketInspector inspector;
    const auto inspection = inspector.inspect(packet);
    std::printf("  timeout packet: %s\n", inspection.summary.c_str());
    std::printf("  NTP+UDP headers present and clean: %s (paper: pass)\n",
                inspection.clean() &&
                        inspection.summary.find("NTPv") != std::string::npos
                    ? "PASS"
                    : "FAIL");
  }
  return 0;
}
