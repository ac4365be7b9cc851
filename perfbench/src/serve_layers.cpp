// The serve layer's per-layer metrics, measured in spec_cold's traced
// run: spec_cold runs the pipeline cold, the serve daemon answers from
// the same pipelines warm. A serve workload of its own cannot hold an
// end-to-end bound on a shared host: its closed loop hands every job
// across three threads, and on a 4-vCPU VM its throughput and p99 moved
// by 50-90% between runs.
//
// The probe: nproc loopback serve::Clients against one in-process
// serve::Server with nproc workers, each client keeping one job in
// flight (closed loop). The mix is 45% parse, 30% codegen, 15% interop
// and 10% fuzz (icmp or icmp6, 25 iterations), all on pipelines warmed
// during set-up — framing, transport, pool dispatch and the pipeline
// cache on the hit path.
//
// Oracle: each response's result_digest equals a direct Server::execute
// of the same request, computed during set-up; every job counts as one
// attempted op of the run.
//
// Each job's round trip is split into the server-side execute time the
// response reports (time_micros), the frame codec (encode_frame +
// decode_frame of request and response, replayed on the job's own
// frames) and the remainder, transport and queue wait. Server::execute
// is replayed per request kind, and a second short closed loop against a
// 1-worker server gives the worker scaling.
#include <atomic>
#include <barrier>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "core/generated_icmp.hpp"
#include "serve/client.hpp"
#include "serve/frame.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace sage;

constexpr std::size_t kKinds = 4;
constexpr const char* kKindNames[kKinds] = {"parse", "codegen", "interop", "fuzz"};
/// One block of 20 jobs: 9 parse, 6 codegen, 3 interop, 2 fuzz.
constexpr std::size_t kBlock[kKinds] = {9, 6, 3, 2};
constexpr std::size_t kFuzzSeeds = 16;
constexpr std::size_t kFuzzIterations = 25;
constexpr std::size_t kSequence = 2000;  // jobs per client before it repeats
constexpr double kWarmupSeconds = 2.0;
constexpr double kTracedSeconds = 6.0;
constexpr double kScalingSeconds = 2.0;  // per worker count

struct Request {
  std::size_t kind = 0;
  std::vector<serve::Frame> batch;  // the single request, as Client::submit takes it
  std::uint64_t expected = 0;       // result_digest of a direct execute
};

/// A server with warm pipelines and `clients` loopback connections.
struct Rig {
  std::unique_ptr<serve::Server> server;
  std::vector<std::unique_ptr<serve::Client>> clients;  // closed before the server
};

Rig make_rig(std::size_t workers, std::size_t clients) {
  Rig rig;
  rig.server = std::make_unique<serve::Server>(serve::ServerOptions{.jobs = workers});
  for (const auto& corpus : serve::known_corpora()) {
    rig.server->execute(
        serve::Client::make_request(serve::FrameKind::kParseRequest, corpus));
  }
  for (std::size_t i = 0; i < clients; ++i) {
    auto [client_end, server_end] = serve::make_loopback_pair();
    rig.server->serve_connection_async(std::move(server_end));
    rig.clients.push_back(std::make_unique<serve::Client>(std::move(client_end)));
  }
  return rig;
}

std::vector<Request> make_catalogue(std::uint64_t seed) {
  std::vector<Request> out;
  const auto add = [&](std::size_t kind, serve::FrameKind frame_kind,
                       const std::string& payload) {
    Request r;
    r.kind = kind;
    r.batch.push_back(serve::Client::make_request(frame_kind, payload));
    out.push_back(std::move(r));
  };
  for (const auto& corpus : serve::known_corpora()) {
    add(0, serve::FrameKind::kParseRequest, corpus);
    add(1, serve::FrameKind::kCodegenRequest, corpus);
  }
  for (const char* corpus : {"icmp", "icmp-orig"}) {
    add(2, serve::FrameKind::kInteropRequest, corpus);
  }
  util::SplitMix64 rng(seed);
  for (std::size_t i = 0; i < kFuzzSeeds; ++i) {
    for (const char* proto : {"icmp", "icmp6"}) {
      add(3, serve::FrameKind::kFuzzRequest,
          std::string("proto=") + proto + " seed=" + std::to_string(rng.below(1u << 30)) +
              " iters=" + std::to_string(kFuzzIterations));
    }
  }
  return out;
}

/// Each client's job sequence: shuffled blocks with the fixed mix, each
/// job a seeded pick among the catalogue entries of its kind.
std::vector<std::vector<std::size_t>> make_sequences(const std::vector<Request>& cat,
                                                     std::size_t clients,
                                                     std::uint64_t seed) {
  std::vector<std::size_t> by_kind[kKinds];
  for (std::size_t i = 0; i < cat.size(); ++i) by_kind[cat[i].kind].push_back(i);
  std::vector<std::size_t> block;
  for (std::size_t k = 0; k < kKinds; ++k) block.insert(block.end(), kBlock[k], k);
  std::vector<std::vector<std::size_t>> out(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    util::SplitMix64 rng = util::SplitMix64(seed).fork(c + 1);
    while (out[c].size() < kSequence) {
      for (std::size_t i = block.size(); i > 1; --i) {
        std::swap(block[i - 1], block[rng.below(i)]);
      }
      for (const std::size_t kind : block) {
        out[c].push_back(by_kind[kind][rng.below(by_kind[kind].size())]);
      }
    }
  }
  return out;
}

struct Setup {
  Rig rig;
  std::vector<Request> catalogue;
  std::vector<std::vector<std::size_t>> sequences;
};

bool response_ok(const std::vector<serve::Frame>& responses, std::uint64_t expected) {
  return responses.size() == 1 && responses[0].status == serve::JobStatus::kOk &&
         serve::result_digest(responses[0]) == expected;
}

struct SpanNames {
  std::uint32_t op[kKinds];
  std::uint32_t execute[kKinds];
  std::uint32_t codec = span_name("serve.codec");
  std::uint32_t wait = span_name("serve.wait");
  SpanNames() {
    for (std::size_t k = 0; k < kKinds; ++k) {
      op[k] = span_name(std::string("op:") + kKindNames[k]);
      execute[k] = span_name(std::string("serve.execute:") + kKindNames[k]);
    }
  }
};

struct DriveResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wall_s = 0;
};

/// Closed loop: every client thread submits its next job once the
/// previous one has answered, until `seconds` have passed.
DriveResult drive(Rig& rig, const Setup& s, double seconds,
                  std::vector<SpanLog>* logs, const SpanNames& names) {
  const std::size_t n = rig.clients.size();
  std::vector<DriveResult> per_client(n);
  std::atomic<std::int64_t> deadline{0};
  std::barrier start(static_cast<std::ptrdiff_t>(n + 1));
  std::int64_t begin = 0;
  double wall_s = 0;
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < n; ++c) {
      threads.emplace_back([&, c] {
        serve::Client& client = *rig.clients[c];
        const std::vector<std::size_t>& seq = s.sequences[c];
        DriveResult& out = per_client[c];
        SpanLog* log = logs ? &(*logs)[c] : nullptr;
        start.arrive_and_wait();
        const std::int64_t stop = deadline.load();
        for (std::size_t i = 0; now_ns() < stop && !(log && log->full()); ++i) {
          const Request& r = s.catalogue[seq[i % seq.size()]];
          const std::int64_t t0 = now_ns();
          const std::vector<serve::Frame> responses = client.submit(r.batch);
          const std::int64_t t1 = now_ns();
          ++out.attempted;
          if (!response_ok(responses, r.expected)) ++out.failed;
          if (log == nullptr || responses.size() != 1) continue;
          const std::int64_t round_trip = t1 - t0;
          const std::int64_t execute = std::min<std::int64_t>(
              round_trip, std::int64_t{responses[0].time_micros} * 1000);
          serve::Frame decoded;
          const std::int64_t c0 = now_ns();
          const auto request_image = serve::encode_frame(r.batch[0]);
          serve::decode_frame(request_image, &decoded);
          const auto response_image = serve::encode_frame(responses[0]);
          serve::decode_frame(response_image, &decoded);
          const std::int64_t codec = now_ns() - c0;
          const std::int32_t root = log->add(names.op[r.kind], -1, i, t0, t1);
          log->add_replay(names.execute[r.kind], root, execute);
          log->add_replay(names.codec, root, codec);
          log->add_replay(names.wait, root, round_trip - execute - codec);
        }
      });
    }
    begin = now_ns();
    deadline.store(begin + static_cast<std::int64_t>(seconds * 1e9));
    start.arrive_and_wait();
    threads.clear();  // joins
    wall_s = static_cast<double>(now_ns() - begin) * 1e-9;
  }
  DriveResult total;
  total.wall_s = wall_s;
  for (const DriveResult& r : per_client) {
    total.attempted += r.attempted;
    total.failed += r.failed;
  }
  return total;
}

}  // namespace

void measure_serve_layers(std::uint64_t seed, WorkloadResult& result) {
  const std::size_t n = nproc();
  // Fuzz jobs run against the memoized canonical pipeline runs.
  core::canonical_icmp_run();
  core::canonical_icmp6_run();

  Setup s;
  s.rig = make_rig(n, n);
  s.catalogue = make_catalogue(seed);
  for (Request& r : s.catalogue) {
    r.expected = serve::result_digest(s.rig.server->execute(r.batch[0]));
  }
  s.sequences = make_sequences(s.catalogue, n, seed);

  // Oracle self-test: one real response checked against a corrupted
  // expected digest must count as a failure.
  {
    const Request& r = s.catalogue[0];
    const auto responses = s.rig.clients[0]->submit(r.batch);
    ++result.attempted;
    if (!response_ok(responses, r.expected) || response_ok(responses, r.expected ^ 1)) {
      std::fprintf(stderr, "serve: the oracle self-test failed\n");
      ++result.failed;
    }
  }

  const SpanNames names;
  const auto account = [&](const DriveResult& d) {
    result.attempted += d.attempted;
    result.failed += d.failed;
  };

  // Warm-up, checked but not timed: a fresh server's first second runs
  // up to 20% slower than the rest.
  account(drive(s.rig, s, kWarmupSeconds, nullptr, names));

  const serve::StatsSnapshot before = s.rig.server->stats();
  std::vector<SpanLog> logs(n);
  account(drive(s.rig, s, kTracedSeconds, &logs, names));
  const serve::StatsSnapshot after = s.rig.server->stats();

  // Worker scaling: the same closed loop against 1 worker and nproc.
  double one_worker_jps = 0;
  {
    Rig single = make_rig(1, n);
    const DriveResult d = drive(single, s, kScalingSeconds, nullptr, names);
    account(d);
    one_worker_jps = static_cast<double>(d.attempted) / d.wall_s;
  }
  const DriveResult full = drive(s.rig, s, kScalingSeconds, nullptr, names);
  account(full);
  const double full_jps = static_cast<double>(full.attempted) / full.wall_s;

  // Server::execute replayed per request kind.
  double execute_ns[kKinds] = {};
  double executes[kKinds] = {};
  for (int rep = 0; rep < 3; ++rep) {
    for (const Request& r : s.catalogue) {
      const std::int64_t t0 = now_ns();
      s.rig.server->execute(r.batch[0]);
      execute_ns[r.kind] += static_cast<double>(now_ns() - t0);
      executes[r.kind] += 1;
    }
  }

  std::vector<const SpanLog*> log_ptrs;
  for (const SpanLog& log : logs) log_ptrs.push_back(&log);
  const TraceSummary t = summarize(log_ptrs);
  print_summary("serve probe", t);
  check_coverage(t);
  const double jobs = static_cast<double>(t.count_of("op"));
  double mix_execute_ns = 0;
  std::printf("  %-10s %10s %16s\n", "kind", "jobs", "execute us (replay)");
  for (std::size_t k = 0; k < kKinds; ++k) {
    const auto it = t.count.find(std::string("op:") + kKindNames[k]);
    const double count = it == t.count.end() ? 0.0 : static_cast<double>(it->second);
    const double mean = execute_ns[k] / executes[k];
    mix_execute_ns += count * mean;
    std::printf("  %-10s %10.0f %16.2f\n", kKindNames[k], count, mean * 1e-3);
  }
  const auto ratio = [](double hits, double misses) {
    return hits + misses > 0 ? hits / (hits + misses) : 0.0;
  };
  // The server consults its parse cache only while pipelines build, so
  // its ratio covers the server's whole life. It is printed, not
  // reported: ccg.parse_cache_hit_ratio is spec_cold's per-run cache.
  std::printf("  serve parse cache hit ratio (server lifetime): %.4f\n",
              ratio(static_cast<double>(after.parse_cache.hits),
                    static_cast<double>(after.parse_cache.misses)));
  auto& m = result.layer;
  m["serve.execute_us"] = mix_execute_ns * 1e-3 / jobs;
  m["serve.wait_us"] = t.self_of("serve.wait") * 1e-3 / jobs;
  m["serve.codec_ns"] = t.self_of("serve.codec") / jobs;
  m["serve.pipeline_hit_ratio"] =
      ratio(static_cast<double>(after.pipeline_hits - before.pipeline_hits),
            static_cast<double>(after.pipeline_misses - before.pipeline_misses));
  m["serve.worker_scaling"] = full_jps / one_worker_jps;
}

}  // namespace perfbench
