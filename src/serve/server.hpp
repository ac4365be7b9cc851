// sage_serve — the long-running sharded pipeline daemon (ROADMAP item 2).
//
// A Server turns the one-shot CLI pipeline into a service: it accepts
// parse / codegen / interop / fuzz-campaign jobs as serve frames
// (serve/frame.hpp) over any Transport, shards them across ONE shared
// util::ThreadPool, and streams result frames back as jobs complete.
// Three caches make the warm path cheap:
//
//   * the session pipeline cache — the first job touching a corpus runs
//     the full pipeline (parse → winnow → codegen) once and, for ICMP
//     corpora, compiles every generated handler to a vm::Program once
//     (PR 7's "compile once per session" headroom); every later job on
//     that corpus reuses the cached run and compiled responder,
//   * the shared ccg::ParseCache — sentences repeated across corpora
//     (ICMP original vs revised share most of their text) parse once,
//   * core::canonical_icmp_run() — fuzz campaigns reuse the process-wide
//     memoized ICMP run they always did.
//
// Determinism contract (docs/SERVICE.md, pinned by
// tests/test_serve_concurrency.cpp): a response's (kind, status,
// payload) is a pure function of the request — independent of worker
// count, client count, connection interleaving, and cache temperature.
// Only the observability fields (flags' cache-hit bit, time_micros, the
// kStatsResult payload) may vary, and serve::result_digest() excludes
// them. Responses are streamed in completion order; clients reassemble
// by job_id.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ccg/parse_cache.hpp"
#include "core/sage.hpp"
#include "runtime/generated_responder.hpp"
#include "serve/frame.hpp"
#include "serve/stats.hpp"
#include "serve/transport.hpp"
#include "util/thread_pool.hpp"

namespace sage::serve {

struct ServerOptions {
  /// Worker threads jobs shard across; 0 picks hardware_concurrency.
  std::size_t jobs = 0;
  /// Shared parse-memoization cache budget; 0 disables it.
  std::size_t parse_cache_capacity = 4096;
  /// Upper bound a fuzz job may request (service protection).
  std::size_t max_fuzz_iterations = 20000;
};

/// The corpora the daemon embeds, by request-payload name.
const std::vector<std::string>& known_corpora();

class Server {
 public:
  explicit Server(ServerOptions options = {});
  /// Joins every connection thread. Callers must close/disconnect the
  /// transports first (tests and the soak driver do; the daemon never
  /// destroys its Server).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::size_t jobs() const { return pool_.size(); }

  /// Serve one established connection on the calling thread until the
  /// peer sends kGoodbye, closes, or a malformed frame forces the
  /// connection shut (after a well-formed kError reply).
  void serve_connection(Transport& transport);

  /// serve_connection on a background thread (loopback tests, soak).
  /// Joins and drops the threads of connections that have finished
  /// first, so the server holds one thread per live connection (plus
  /// any that ended since the last call), not one per connection ever
  /// served.
  void serve_connection_async(std::shared_ptr<Transport> transport);

  /// Daemon loop: accept until the acceptor is closed, one background
  /// thread per connection.
  void serve_acceptor(SocketAcceptor& acceptor);

  /// Execute one request frame synchronously and return the response —
  /// the same code path connections shard over the pool, exposed for
  /// direct-call tests and the cold/warm bench comparison.
  Frame execute(const Frame& request);

  StatsSnapshot stats() const;

 private:
  /// One session-cached pipeline: the corpus' ProtocolRun, its
  /// signature hash, and (ICMP corpora) the responder holding every
  /// handler compiled to a vm::Program exactly once.
  struct Pipeline {
    std::string corpus;
    std::string protocol;
    core::ProtocolRun run;
    std::uint64_t signature_hash = 0;
    std::unique_ptr<runtime::GeneratedIcmpResponder> responder;
    /// The responder records per-event diagnostics, so concurrent
    /// interop jobs on the same corpus serialize here.
    std::mutex responder_mutex;
  };

  /// Find-or-build the corpus' pipeline. Exactly one builder runs per
  /// corpus (later callers wait on its future); `cache_hit` reports
  /// whether this call found it already built.
  std::shared_ptr<Pipeline> pipeline_for(const std::string& corpus,
                                         bool* cache_hit);
  std::shared_ptr<Pipeline> build_pipeline(const std::string& corpus) const;

  Frame run_pipeline_job(const Frame& request);
  Frame run_fuzz_job(const Frame& request);

  util::ThreadPool pool_;
  std::shared_ptr<ccg::ParseCache> parse_cache_;

  mutable std::mutex pipelines_mutex_;
  std::map<std::string, std::shared_future<std::shared_ptr<Pipeline>>>
      pipelines_;

  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> frames_rejected_{0};
  std::atomic<std::uint64_t> jobs_ok_{0};
  std::atomic<std::uint64_t> jobs_failed_{0};
  std::atomic<std::uint64_t> pipeline_hits_{0};
  std::atomic<std::uint64_t> pipeline_misses_{0};

  /// A background connection's thread; `done` is set as it returns.
  struct ConnectionThread {
    std::shared_ptr<std::atomic<bool>> done;
    std::jthread thread;
  };
  mutable std::mutex threads_mutex_;
  std::vector<ConnectionThread> connection_threads_;
  ServerOptions options_;
};

}  // namespace sage::serve
