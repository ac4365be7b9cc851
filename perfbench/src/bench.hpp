// Shared pieces of the end-to-end benchmark: options, clocks, sample
// statistics, allocation and memory probes, and the span tracer.
//
// Each workload (spec_cold, packet_reply) returns a WorkloadResult.
// main.cpp turns it into the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run).
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // where the traced run writes its spans
  std::string sha = "unknown";
};

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Worker and client count of the serve and fuzz probes: the machine's
/// hardware threads, at least 1.
std::size_t nproc();

/// Re-pins the calling thread, at most every 200 ms, to the CPU on which
/// a short fixed kernel runs fastest right now. On a shared host the
/// speed of each vCPU swings by up to 1.8x from one 300 ms to the next,
/// with other tenants' load; the single-threaded loops follow the
/// fastest one. Ops are not filtered: every op of the run counts.
class QuietCpu {
 public:
  void maybe_repin() {
    if (now_ns() < next_ns_) return;
    repin();
    next_ns_ = now_ns() + 200'000'000;
  }

 private:
  static void repin();
  std::int64_t next_ns_ = 0;
};

/// Report an op that threw (it counts as failed); the first few only.
void report_exception(const std::exception& e);

/// Heap allocations (global operator new) made by the calling thread so
/// far. Each thread counts its own, so reading it costs no shared write.
std::uint64_t thread_allocs();

/// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mb();

/// Linear-interpolated quantile `q` in [0, 1] of `samples`.
double quantile(std::vector<double> samples, double q);

/// Median of `samples` (0 when empty).
double median(std::vector<double> samples);

/// Share of a traced run spent in its untraced warm phase, which gives
/// the same-process baseline for the tracing overhead.
inline constexpr double kUntracedShare = 0.3;

// ---- tracing ----------------------------------------------------------------

/// Interned span name. Names are "layer.stage" or "layer.stage:kind";
/// the summariser aggregates by the part before ':' and breaks kinds out.
std::uint32_t span_name(const std::string& name);
const std::string& span_name_text(std::uint32_t id);

struct Span {
  std::uint32_t name = 0;
  std::int32_t parent = -1;  // index in the same log, -1 for an op root
  std::uint64_t op = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t cursor_ns = 0;  // where the next replayed child is laid out
};

/// One thread's spans, kept in memory and written when the run ends.
/// Capacity-bounded: a traced loop stops when its log is full.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity = 400000) { spans_.reserve(capacity); }

  /// True once another op might not fit (a spec pass adds ~50 spans).
  bool full() const { return spans_.size() + 64 > spans_.capacity(); }

  /// Open a span now; returns its index for end() and as a parent.
  std::int32_t begin(std::uint32_t name, std::int32_t parent, std::uint64_t op) {
    const std::int64_t t = now_ns();
    spans_.push_back({name, parent, op, t, t, t});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void end(std::int32_t index) { spans_[index].end_ns = now_ns(); }
  void end_at(std::int32_t index, std::int64_t t) { spans_[index].end_ns = t; }

  /// Record a span with known bounds.
  std::int32_t add(std::uint32_t name, std::int32_t parent, std::uint64_t op,
                   std::int64_t start_ns, std::int64_t end_ns) {
    spans_.push_back({name, parent, op, start_ns, end_ns, start_ns});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  /// Attach a child of `duration_ns` measured by replaying a call on the
  /// op's own inputs. Replayed children are laid end to end from the
  /// parent's start, so self time stays parent minus children.
  std::int32_t add_replay(std::uint32_t name, std::int32_t parent,
                          std::int64_t duration_ns) {
    Span& p = spans_[parent];
    const std::int64_t start = p.cursor_ns;
    p.cursor_ns += duration_ns;
    return add(name, parent, p.op, start, start + duration_ns);
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Per-layer self times of a traced run: for every span name, the summed
/// duration and self time (duration minus its children), the op time no
/// layer span covers, and the time replayed children claim beyond their
/// parent (a replay slower than the call it stands for).
struct TraceSummary {
  double op_wall_ns = 0;       // sum of op root spans
  double unattributed_ns = 0;  // op time not covered by any layer span
  double overclaimed_ns = 0;   // negative self time summed by span name, negated
  std::map<std::string, double> self_ns;    // by full span name
  std::map<std::string, double> total_ns;   // by full span name
  std::map<std::string, std::uint64_t> count;
  double unattributed_share() const {
    return op_wall_ns > 0 ? unattributed_ns / op_wall_ns : 0.0;
  }
  double overclaimed_share() const {
    return op_wall_ns > 0 ? overclaimed_ns / op_wall_ns : 0.0;
  }
  /// Self time of every span whose layer-stage (name before ':') is `stage`.
  double self_of(const std::string& stage) const;
  double total_of(const std::string& stage) const;
  std::uint64_t count_of(const std::string& stage) const;
};

TraceSummary summarize(const std::vector<const SpanLog*>& logs);

/// Print each layer's self time and share, the unattributed remainder,
/// and the per-kind breakdown.
void print_summary(const std::string& workload, const TraceSummary& summary);

/// Write every span as one text line: thread, op, name, parent, start, end.
void write_trace(const std::string& path, const std::string& header,
                 const std::vector<const SpanLog*>& logs);

// ---- results ----------------------------------------------------------------

/// Latency histogram over nanoseconds: exact below 128 ns, then 128
/// log-linear buckets per power of two (under 0.8% wide). Quantiles
/// interpolate within a bucket. Fixed size, so recording millions of
/// ops costs no memory growth.
class Histogram {
 public:
  void add(std::int64_t ns);
  void merge(const Histogram& other);
  std::uint64_t count() const { return count_; }
  /// Quantile `q` in [0, 1], in microseconds (0 when empty).
  double quantile_us(double q) const;

 private:
  static constexpr int kSubBits = 7;
  std::vector<std::uint64_t> counts_ =
      std::vector<std::uint64_t>((64 - kSubBits + 1) << kSubBits);
  std::uint64_t count_ = 0;
};

/// The measured ops of one loop, split into kWindows equal stretches of
/// its nominal duration by completion time. Each window keeps a latency
/// histogram, the items its ops finished (sentences, replies, fuzz
/// cases, jobs) and the time they took. The end-to-end figures pool every
/// window; the per-window throughput is printed to show drift in a run.
class Samples {
 public:
  static constexpr int kWindows = 10;

  Samples() = default;
  Samples(std::int64_t start_ns, double seconds);

  void add(std::int64_t latency_ns, double items, std::int64_t end_ns);

  struct Window {
    Histogram latency;
    double items = 0;
    double busy_s = 0;
  };
  const std::vector<Window>& windows() const { return windows_; }
  std::uint64_t count() const;
  /// Quantile of every op's latency, in microseconds.
  double quantile_us(double q) const;

 private:
  std::int64_t start_ns_ = 0;
  double window_ns_ = 1;
  std::vector<Window> windows_ = std::vector<Window>(kWindows);
};

struct WorkloadResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool self_test_flagged = false;  // the oracle caught an injected corruption
  double setup_s = 0;
  /// Peak RSS after a fixed number of measured ops (RssProbe).
  double peak_rss_mb = 0;
  Samples ops;            // the measured ops (traced run: the traced phase)
  double tail_q = 0.99;   // op_us_tail's quantile for this workload
  /// Per-layer metrics the workload measured (traced run only); the
  /// metrics of layers it does not exercise are reported as 0.
  std::map<std::string, double> layer;
  /// The workload's own names for throughput, median and tail latency,
  /// and the scale (from us) and unit its latencies are printed in.
  std::string names[3];
  double latency_scale = 1.0;
  std::string latency_unit = "us";
};

/// Set-up repetitions per run: at least kSetupReps, and more until they
/// add up to kSetupSeconds (packet_reply's 12 ms set-up runs ~80 times).
/// setup_s is their median.
inline constexpr std::size_t kSetupReps = 11;
inline constexpr double kSetupSeconds = 1.0;

/// Times the repetitions of a workload's set-up. first() runs before the
/// measured loop and returns the state the workload measures; finish()
/// runs the other repetitions back to back after the loop, so that their
/// garbage (spec_cold's interned terms) stays out of the measurement, and
/// records the median as setup_s. Each repetition runs on the quietest
/// CPU, like the loop.
template <class Fn>
class SetupTimer {
 public:
  explicit SetupTimer(Fn setup) : setup_(std::move(setup)) {}

  auto first() { return timed(); }
  /// For loops whose state the set-up's garbage does not touch: at each
  /// tenth of a loop of `seconds` from `start`, run repetitions for a
  /// tenth of kSetupSeconds (finish() runs the rest). Host contention comes and
  /// goes over seconds; packet_reply's back-to-back set-ups spread by
  /// 35-41% between runs, as the run's one moment decided them.
  void tick(std::int64_t start, double seconds) {
    if (slices_ >= 10 ||
        now_ns() < start + static_cast<std::int64_t>(seconds * 1e8 * slices_)) {
      return;
    }
    ++slices_;
    const double until = total_s_ + kSetupSeconds / 10;
    while (total_s_ < until) timed();
  }
  void finish(WorkloadResult& result) {
    while (times_.size() < kSetupReps || total_s_ < kSetupSeconds) timed();
    result.setup_s = median(times_);
  }

 private:
  auto timed() {
    quiet_.maybe_repin();
    const std::int64_t start = now_ns();
    auto state = setup_();
    times_.push_back(static_cast<double>(now_ns() - start) * 1e-9);
    total_s_ += times_.back();
    return state;
  }

  Fn setup_;
  QuietCpu quiet_;
  std::vector<double> times_;
  double total_s_ = 0;
  int slices_ = 1;
};

/// Reads the peak RSS once a fixed number of ops has run, so that the
/// figure includes what the loop itself keeps (spec_cold's term interner
/// grows on every pass) yet does not depend on how many ops the run's
/// seconds fit.
class RssProbe {
 public:
  explicit RssProbe(std::uint64_t at_ops) : at_ops_(at_ops) {}
  void tick(std::uint64_t ops) {
    if (mb_ == 0 && ops >= at_ops_) mb_ = peak_rss_mb();
  }
  /// The reading; a run too short to reach the op count reads it now.
  double mb() {
    tick(at_ops_);
    return mb_;
  }

 private:
  std::uint64_t at_ops_;
  double mb_ = 0;
};

WorkloadResult run_spec_cold(const Options& options);
WorkloadResult run_packet_reply(const Options& options);

/// The serve layer's per-layer metrics (serve_layers.cpp), for
/// spec_cold's traced run; its jobs count into `result`'s attempted and
/// failed.
void measure_serve_layers(std::uint64_t seed, WorkloadResult& result);

/// The fuzz layer's per-layer metrics (fuzz_layers.cpp), for
/// packet_reply's traced run; its rounds count into `result`'s attempted
/// and failed.
void measure_fuzz_layers(std::uint64_t seed, WorkloadResult& result);

/// Exits with code 3 when the layers' positive self times miss the
/// traced op wall by more than 5%, either way: time no layer span covers,
/// or replays claiming more time than the call they replay.
void check_coverage(const TraceSummary& summary);

/// Finish a traced run: summarise, print, write the trace, record the
/// trace.* metrics (overhead against the same run's untraced phase) and
/// check_coverage().
void finish_trace(const Options& options,
                  const std::vector<const SpanLog*>& logs,
                  double untraced_p50_us, double traced_p50_us,
                  WorkloadResult& result);

/// The run's provenance line (nproc, compiler, build type, git sha, VM
/// dispatcher) printed with every result.
std::string stamp(const Options& options);

/// FNV-1a 64 over `text`.
std::uint64_t fnv1a(const std::string& text);

}  // namespace perfbench
