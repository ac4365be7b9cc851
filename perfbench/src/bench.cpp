#include "bench.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <new>
#include <sched.h>
#include <sstream>
#include <thread>

#include "runtime/vm/exec.hpp"

// ---- allocation counting ------------------------------------------------------
//
// Every global operator new bumps a thread-local counter: no shared
// write, so the count costs the same in traced and untraced runs.

namespace {
thread_local std::uint64_t t_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

std::size_t nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

std::uint64_t thread_allocs() { return t_allocs; }

void report_exception(const std::exception& e) {
  static std::atomic<int> reported{0};
  if (reported.fetch_add(1) < 5) std::fprintf(stderr, "op threw: %s\n", e.what());
}

namespace {

/// A fixed mix of dependent arithmetic and table traffic (256 KiB, the
/// size of a core's private cache), timed in nanoseconds.
std::int64_t calibration_ns() {
  static std::vector<std::uint32_t> table(1u << 16, 1);
  std::uint32_t x = 2463534242u;
  const std::int64_t start = now_ns();
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    table[x & 0xffff] += x;
  }
  const std::int64_t elapsed = now_ns() - start;
  table[0] ^= x;  // keep the loop's result observable
  return elapsed;
}

}  // namespace

void QuietCpu::repin() {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) CPU_SET(0, &set);
    return set;
  }();
  int best_cpu = -1;
  std::int64_t best_ns = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) continue;
    std::int64_t ns = calibration_ns();
    for (int rep = 0; rep < 2; ++rep) ns = std::min(ns, calibration_ns());
    if (best_cpu < 0 || ns < best_ns) {
      best_cpu = cpu;
      best_ns = ns;
    }
  }
  cpu_set_t target = allowed;
  if (best_cpu >= 0) {
    CPU_ZERO(&target);
    CPU_SET(best_cpu, &target);
  }
  sched_setaffinity(0, sizeof target, &target);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> samples) { return quantile(std::move(samples), 0.5); }

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

void Histogram::add(std::int64_t ns) {
  const auto v = static_cast<std::uint64_t>(std::max<std::int64_t>(ns, 0));
  std::size_t bucket = v;
  if (v >= (1u << kSubBits)) {
    const int e = 63 - __builtin_clzll(v);  // floor(log2 v) >= kSubBits
    bucket = (static_cast<std::size_t>(e - kSubBits + 1) << kSubBits) |
             ((v >> (e - kSubBits)) & ((1u << kSubBits) - 1));
  }
  ++counts_[bucket];
  ++count_;
}

void Histogram::merge(const Histogram& other) {
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
}

double Histogram::quantile_us(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_ - 1);
  double seen = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const auto c = static_cast<double>(counts_[b]);
    if (c == 0 || seen + c <= rank) {
      seen += c;
      continue;
    }
    double lower = static_cast<double>(b);
    double width = 1;
    if (b >= (1u << kSubBits)) {
      const int e = static_cast<int>(b >> kSubBits) + kSubBits - 1;
      const double mantissa =
          static_cast<double>((1u << kSubBits) | (b & ((1u << kSubBits) - 1)));
      width = std::ldexp(1.0, e - kSubBits);
      lower = mantissa * width;
    }
    return (lower + width * (rank - seen + 0.5) / c) * 1e-3;
  }
  return 0.0;
}

Samples::Samples(std::int64_t start_ns, double seconds)
    : start_ns_(start_ns), window_ns_(std::max(1.0, seconds * 1e9 / kWindows)) {}

void Samples::add(std::int64_t latency_ns, double items, std::int64_t end_ns) {
  const auto w = static_cast<int>(static_cast<double>(end_ns - start_ns_) / window_ns_);
  Window& window = windows_[std::clamp(w, 0, kWindows - 1)];
  window.latency.add(latency_ns);
  window.items += items;
  window.busy_s += static_cast<double>(latency_ns) * 1e-9;
}

std::uint64_t Samples::count() const {
  std::uint64_t n = 0;
  for (const Window& w : windows_) n += w.latency.count();
  return n;
}

double Samples::quantile_us(double q) const {
  Histogram all;
  for (const Window& w : windows_) all.merge(w.latency);
  return all.quantile_us(q);
}

// ---- span names -----------------------------------------------------------------

namespace {
std::mutex g_names_mutex;
std::vector<std::string>& names() {
  static std::vector<std::string> v;
  return v;
}
}  // namespace

std::uint32_t span_name(const std::string& name) {
  std::lock_guard lock(g_names_mutex);
  auto& v = names();
  const auto it = std::find(v.begin(), v.end(), name);
  if (it != v.end()) return static_cast<std::uint32_t>(it - v.begin());
  v.push_back(name);
  return static_cast<std::uint32_t>(v.size() - 1);
}

const std::string& span_name_text(std::uint32_t id) {
  std::lock_guard lock(g_names_mutex);
  return names().at(id);
}

// ---- summariser -----------------------------------------------------------------

namespace {
std::string stage_of(const std::string& name) {
  return name.substr(0, name.find(':'));
}

template <class Map>
auto sum_stage(const Map& map, const std::string& stage) {
  typename Map::mapped_type total{};
  for (const auto& [name, value] : map) {
    if (stage_of(name) == stage) total += value;
  }
  return total;
}
}  // namespace

double TraceSummary::self_of(const std::string& stage) const {
  return sum_stage(self_ns, stage);
}
double TraceSummary::total_of(const std::string& stage) const {
  return sum_stage(total_ns, stage);
}
std::uint64_t TraceSummary::count_of(const std::string& stage) const {
  return sum_stage(count, stage);
}

TraceSummary summarize(const std::vector<const SpanLog*>& logs) {
  TraceSummary s;
  for (const SpanLog* log : logs) {
    const auto& spans = log->spans();
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        child_ns[span.parent] += static_cast<double>(span.end_ns - span.start_ns);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      const std::string& name = span_name_text(span.name);
      const double total = static_cast<double>(span.end_ns - span.start_ns);
      const double self = total - child_ns[i];
      s.self_ns[name] += self;
      s.total_ns[name] += total;
      ++s.count[name];
      if (span.parent < 0) {
        s.op_wall_ns += total;
        s.unattributed_ns += self;
      }
    }
  }
  // Summed by name, not span by span: a preemption inflates a call as
  // often as its replay, so only a replay that is slower on the whole
  // leaves a name's self time negative.
  for (const auto& [name, self] : s.self_ns) {
    if (self < 0) s.overclaimed_ns -= self;
  }
  return s;
}

void print_summary(const std::string& workload, const TraceSummary& s) {
  std::map<std::string, double> by_stage;
  for (const auto& [name, self] : s.self_ns) {
    if (stage_of(name) != "op") by_stage[stage_of(name)] += self;
  }
  std::printf("trace summary [%s]: %llu ops, %.3f ms traced op wall\n",
              workload.c_str(),
              static_cast<unsigned long long>(s.count_of("op")),
              s.op_wall_ns * 1e-6);
  std::printf("  %-28s %14s %8s\n", "layer (self time)", "ms", "share");
  double layers = 0;
  for (const auto& [stage, self] : by_stage) {
    layers += self;
    std::printf("  %-28s %14.3f %7.2f%%\n", stage.c_str(), self * 1e-6,
                s.op_wall_ns > 0 ? 100.0 * self / s.op_wall_ns : 0.0);
  }
  std::printf("  %-28s %14.3f %7.2f%%\n", "(unattributed)",
              s.unattributed_ns * 1e-6, 100.0 * s.unattributed_share());
  std::printf("  %-28s %14.3f %7.2f%%\n", "(replays beyond their call)",
              s.overclaimed_ns * 1e-6, 100.0 * s.overclaimed_share());
  std::printf("  layers sum to %.2f%% of traced op wall; positive self times "
              "to %.2f%% (both must be within 5%%)\n",
              s.op_wall_ns > 0 ? 100.0 * layers / s.op_wall_ns : 0.0,
              s.op_wall_ns > 0 ? 100.0 * (layers + s.overclaimed_ns) / s.op_wall_ns
                               : 0.0);
  std::printf("  %-36s %10s %14s %14s\n", "by kind", "spans", "mean total ns",
              "mean self ns");
  for (const auto& [name, n] : s.count) {
    if (name.find(':') == std::string::npos || n == 0) continue;
    std::printf("  %-36s %10llu %14.0f %14.0f\n", name.c_str(),
                static_cast<unsigned long long>(n), s.total_ns.at(name) / n,
                s.self_ns.at(name) / n);
  }
}

void write_trace(const std::string& path, const std::string& header,
                 const std::vector<const SpanLog*>& logs) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "warning: cannot write trace to %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "# %s\n# thread op name parent start_ns end_ns\n",
               header.c_str());
  for (std::size_t t = 0; t < logs.size(); ++t) {
    for (const Span& span : logs[t]->spans()) {
      std::fprintf(out, "%zu %llu %s %d %lld %lld\n", t,
                   static_cast<unsigned long long>(span.op),
                   span_name_text(span.name).c_str(), span.parent,
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns));
    }
  }
  std::fclose(out);
}

void finish_trace(const Options& options, const std::vector<const SpanLog*>& logs,
                  double untraced_p50_us, double traced_p50_us,
                  WorkloadResult& result) {
  const TraceSummary summary = summarize(logs);
  print_summary(options.workload, summary);
  if (!options.trace_out.empty()) {
    write_trace(options.trace_out, stamp(options), logs);
  }
  result.layer["trace.overhead_pct"] =
      untraced_p50_us > 0 ? 100.0 * (traced_p50_us / untraced_p50_us - 1.0) : 0.0;
  result.layer["trace.unattributed_pct"] = 100.0 * summary.unattributed_share();
  result.layer["trace.overclaimed_pct"] = 100.0 * summary.overclaimed_share();
  check_coverage(summary);
}

void check_coverage(const TraceSummary& summary) {
  if (summary.op_wall_ns > 0 && summary.unattributed_share() <= 0.05 &&
      summary.overclaimed_share() <= 0.05) {
    return;
  }
  std::fprintf(stderr,
               "error: traced layers cover %.2f%% of the traced op wall and "
               "replays claim %.2f%% beyond their calls (5%% allowed each)\n",
               100.0 * (1.0 - summary.unattributed_share()),
               100.0 * summary.overclaimed_share());
  std::exit(3);
}

// ---- provenance -------------------------------------------------------------------

std::string stamp(const Options& options) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
#if defined(PERFBENCH_VM_FORCE_SWITCH)
  const bool goto_dispatch = false;
#else
  const bool goto_dispatch = sage::runtime::vm::have_computed_goto();
#endif
  std::ostringstream out;
  out << "{\"nproc\": " << nproc() << ", \"compiler\": \"" << compiler
      << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"git_sha\": \"" << options.sha << "\", \"vm_dispatch\": \""
      << (goto_dispatch ? "computed-goto" : "switch") << "\", \"workload\": \""
      << options.workload << "\", \"seed\": " << options.seed
      << ", \"seconds\": " << options.seconds
      << ", \"trace\": " << (options.trace ? 1 : 0) << "}";
  return out.str();
}

}  // namespace perfbench
