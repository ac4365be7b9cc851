// The SAGE end-to-end benchmark binary (perfbench/run.py builds and
// runs it).
//
//   perfbench_sage --workload <spec_cold|packet_reply>
//                  --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//                  [--sha <git sha>]
//
// Prints a provenance stamp, the workload's own figures, and as the last
// line one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (layers a workload does not exercise read 0).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"items_per_s", "1/s"},
    {"op_us_p50", "us"},
    {"op_us_tail", "us"},
};

constexpr MetricDef kPerLayer[] = {
    // spec_cold, per pass
    {"rfc.preprocess_us", "us"},
    {"nlp.chunk_us", "us"},
    {"ccg.parse_us", "us"},
    {"ccg.chart_edges_per_sentence", "count"},
    {"ccg.beta_steps_per_sentence", "count"},
    {"ccg.parse_cache_hit_ratio", "ratio"},
    {"disambig.winnow_us", "us"},
    {"disambig.survivor_ratio", "ratio"},
    {"codegen.lower_us", "us"},
    {"runtime.vm_compile_us", "us"},
    {"core.process_self_us", "us"},
    {"core.sage_us", "us"},
    {"spec.allocs_per_sentence", "count"},
    {"ccg.interned_terms_per_pass", "count"},
    // packet_reply, per reply
    {"runtime.respond_ns", "ns"},
    {"runtime.env_build_ns", "ns"},
    {"runtime.vm_exec_ns", "ns"},
    {"runtime.serialize_ns", "ns"},
    {"runtime.dispatch_glue_ns", "ns"},
    {"sim.hop_ns", "ns"},
    {"runtime.vm_ops_per_reply", "count"},
    {"runtime.slow_path_per_reply", "count"},
    {"sim.events_per_reply", "count"},
    {"reply.allocs_per_packet", "count"},
    {"sim.arena_high_water_bytes", "bytes"},
    // fuzz layer, per case (measured in packet_reply's traced run)
    {"fuzz.generate_us", "us"},
    {"fuzz.case_us", "us"},
    {"fuzz.jobs_speedup", "ratio"},
    {"fuzz.parallel_efficiency", "ratio"},
    {"runtime.vm_ops_per_case", "count"},
    {"fuzz.allocs_per_case", "count"},
    // serve layer, per job (measured in spec_cold's traced run)
    {"serve.execute_us", "us"},
    {"serve.wait_us", "us"},
    {"serve.codec_ns", "ns"},
    {"serve.pipeline_hit_ratio", "ratio"},
    {"serve.worker_scaling", "ratio"},
    // every traced run
    {"trace.overhead_pct", "%"},
    {"trace.unattributed_pct", "%"},
    {"trace.overclaimed_pct", "%"},
};

/// A run's end-to-end figures, over every measured op.
struct Figures {
  double throughput = 0;  // items per second
  double p50_us = 0;
  double tail_us = 0;
  std::vector<double> window_throughput;  // in time order, for the log
};

Figures figures(const WorkloadResult& r) {
  Figures f;
  Histogram all;
  double items = 0;
  double seconds = 0;
  for (const Samples::Window& w : r.ops.windows()) {
    if (w.latency.count() == 0) continue;
    f.window_throughput.push_back(w.items / w.busy_s);
    all.merge(w.latency);
    items += w.items;
    seconds += w.busy_s;
  }
  if (seconds > 0) f.throughput = items / seconds;
  f.p50_us = all.quantile_us(0.5);
  f.tail_us = all.quantile_us(r.tail_q);
  return f;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench_sage --workload "
               "<spec_cold|packet_reply> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>] [--sha <sha>]\n",
               why);
  return 2;
}

void append_metric(std::string& json, const char* name, double value,
                   const char* unit) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                json.empty() ? "" : ", ", name, value, unit);
  json += buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return usage("--seed expects a number");
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(options.seconds > 0)) {
        return usage("--seconds expects a positive number");
      }
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage("--trace expects 0 or 1");
      }
      options.trace = value[0] == '1';
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else if (arg == "--sha") {
      options.sha = value;
    } else {
      return usage(("unknown option " + arg).c_str());
    }
  }
  if (!have_seed) return usage("--seed is required");

  WorkloadResult result;
  if (options.workload == "spec_cold") {
    result = run_spec_cold(options);
  } else if (options.workload == "packet_reply") {
    result = run_packet_reply(options);
  } else {
    return usage(("unknown workload '" + options.workload + "'").c_str());
  }

  std::printf("stamp: %s\n", stamp(options).c_str());
  std::printf("oracle self-test: %s\n",
              result.self_test_flagged ? "injected corruption flagged"
                                       : "FAILED (corruption not flagged)");
  std::printf("ops: %llu attempted, %llu failed; %llu latency samples\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.ops.count()));
  std::printf("peak RSS: %.1f MB at the probe, %.1f MB at exit\n", result.peak_rss_mb,
              peak_rss_mb());

  const Figures f = figures(result);
  std::printf("  %-22s %12.4g 1/s   by window:", result.names[0].c_str(),
              f.throughput);
  for (const double t : f.window_throughput) std::printf(" %.4g", t);
  std::printf("\n  %-22s %12.4g %s\n  %-22s %12.4g %s\n", result.names[1].c_str(),
              f.p50_us * result.latency_scale, result.latency_unit.c_str(),
              result.names[2].c_str(), f.tail_us * result.latency_scale,
              result.latency_unit.c_str());

  std::string metrics;
  if (!options.trace) {
    const double values[] = {
        result.setup_s, result.peak_rss_mb, f.throughput, f.p50_us, f.tail_us,
    };
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      append_metric(metrics, kEndToEnd[i].name, values[i], kEndToEnd[i].unit);
    }
  } else {
    for (const MetricDef& def : kPerLayer) {
      const auto it = result.layer.find(def.name);
      append_metric(metrics, def.name, it == result.layer.end() ? 0.0 : it->second,
                    def.unit);
    }
  }
  const bool correct =
      result.attempted > 0 && result.failed == 0 && result.self_test_flagged;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}
