#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "core/batch.hpp"
#include "corpus/rfc1059.hpp"
#include "corpus/rfc1112.hpp"
#include "corpus/rfc5880.hpp"
#include "corpus/rfc792.hpp"
#include "eval/interop_harness.hpp"
#include "fuzz/differential.hpp"
#include "fuzz/generator.hpp"

namespace sage::serve {

namespace {

/// One embedded corpus: the text, protocol tag, and pre-annotations —
/// exactly what `sage_debug <corpus>` feeds the pipeline, so serve
/// results are comparable against direct CLI runs.
struct CorpusSpec {
  std::string text;
  std::string protocol;
  std::vector<std::string> annotations;
};

std::string bfd_text() {
  std::string text = "BFD State Management\n\n   Description\n\n";
  for (const auto& sentence : corpus::bfd_state_sentences()) {
    text += "      " + sentence + "\n";
  }
  return text;
}

const std::map<std::string, CorpusSpec>& corpus_specs() {
  static const std::map<std::string, CorpusSpec> specs = [] {
    std::map<std::string, CorpusSpec> m;
    m["icmp"] = {corpus::rfc792_revised(), "ICMP",
                 corpus::icmp_non_actionable_annotations()};
    m["icmp-orig"] = {corpus::rfc792_original(), "ICMP",
                      corpus::icmp_non_actionable_annotations()};
    m["igmp"] = {corpus::rfc1112_appendix_i(), "IGMP",
                 corpus::igmp_non_actionable_annotations()};
    m["ntp"] = {corpus::rfc1059_appendices(), "NTP",
                corpus::ntp_non_actionable_annotations()};
    m["bfd"] = {bfd_text(), "BFD", {}};
    return m;
  }();
  return specs;
}

Frame error_frame(std::uint32_t job_id, JobStatus status, std::string detail) {
  Frame out;
  out.kind = FrameKind::kError;
  out.job_id = job_id;
  out.status = status;
  out.payload = std::move(detail);
  return out;
}

/// Parse "key=value" words out of a fuzz request payload. Unknown keys
/// and malformed numbers are request errors, not server faults.
bool parse_fuzz_payload(const std::string& payload, std::string* protocol,
                        std::uint64_t* seed, std::size_t* iterations,
                        std::string* error) {
  std::istringstream in(payload);
  std::string word;
  while (in >> word) {
    const auto eq = word.find('=');
    if (eq == std::string::npos) {
      *error = "expected key=value, got '" + word + "'";
      return false;
    }
    const std::string key = word.substr(0, eq);
    const std::string value = word.substr(eq + 1);
    if (key == "proto") {
      *protocol = value;
      continue;
    }
    char* end = nullptr;
    const unsigned long long n = std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0') {
      *error = key + " expects a number, got '" + value + "'";
      return false;
    }
    if (key == "seed") {
      *seed = n;
    } else if (key == "iters") {
      *iterations = static_cast<std::size_t>(n);
    } else {
      *error = "unknown key '" + key + "'";
      return false;
    }
  }
  if (protocol->empty()) {
    *error = "missing proto=";
    return false;
  }
  return true;
}

}  // namespace

const std::vector<std::string>& known_corpora() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const auto& [name, spec] : corpus_specs()) v.push_back(name);
    return v;
  }();
  return names;
}

Server::Server(ServerOptions options)
    : pool_(options.jobs), options_(options) {
  if (options_.parse_cache_capacity > 0) {
    parse_cache_ =
        std::make_shared<ccg::ParseCache>(options_.parse_cache_capacity);
  }
}

Server::~Server() {
  std::vector<ConnectionThread> threads;
  {
    std::lock_guard lock(threads_mutex_);
    threads.swap(connection_threads_);
  }
  // jthread dtors join here.
}

std::shared_ptr<Server::Pipeline> Server::build_pipeline(
    const std::string& corpus) const {
  const CorpusSpec& spec = corpus_specs().at(corpus);
  auto pipeline = std::make_shared<Pipeline>();
  pipeline->corpus = corpus;
  pipeline->protocol = spec.protocol;
  core::Sage sage;
  sage.set_parse_cache(parse_cache_);
  sage.annotate_non_actionable(spec.annotations);
  // Serial path: the parallel executor is byte-identical by contract,
  // but jobs already shard across the pool one level up — nesting the
  // sentence fan-out inside a pool job would oversubscribe it.
  pipeline->run = sage.process(spec.text, spec.protocol);
  pipeline->signature_hash =
      fnv1a_str(core::protocol_run_signature(pipeline->run));
  if (spec.protocol == "ICMP") {
    // The per-session compile: every generated handler is lowered to a
    // vm::Program exactly once, at registration (PR 7's cache).
    pipeline->responder = std::make_unique<runtime::GeneratedIcmpResponder>();
    for (const auto& fn : pipeline->run.functions) {
      pipeline->responder->add_function(fn);
    }
  }
  return pipeline;
}

std::shared_ptr<Server::Pipeline> Server::pipeline_for(
    const std::string& corpus, bool* cache_hit) {
  std::shared_future<std::shared_ptr<Pipeline>> future;
  std::promise<std::shared_ptr<Pipeline>> promise;
  bool builder = false;
  {
    std::lock_guard lock(pipelines_mutex_);
    auto it = pipelines_.find(corpus);
    if (it != pipelines_.end()) {
      future = it->second;
      // A hit only counts once the build completed: concurrent first
      // touches all miss (they all pay the wait for the build).
      *cache_hit = future.wait_for(std::chrono::seconds(0)) ==
                   std::future_status::ready;
    } else {
      future = promise.get_future().share();
      pipelines_.emplace(corpus, future);
      builder = true;
      *cache_hit = false;
    }
  }
  if (builder) {
    // Build outside the map lock; fulfil the promise the other waiters
    // hold. A throwing build propagates to every waiter.
    try {
      promise.set_value(build_pipeline(corpus));
    } catch (...) {
      promise.set_exception(std::current_exception());
    }
  }
  if (*cache_hit) {
    pipeline_hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    pipeline_misses_.fetch_add(1, std::memory_order_relaxed);
  }
  return future.get();
}

Frame Server::run_pipeline_job(const Frame& request) {
  const std::string& corpus = request.payload;
  if (corpus_specs().count(corpus) == 0) {
    return error_frame(request.job_id, JobStatus::kUnknownCorpus,
                       "unknown corpus '" + corpus + "'");
  }
  bool cache_hit = false;
  std::shared_ptr<Pipeline> pipeline = pipeline_for(corpus, &cache_hit);

  Frame out;
  out.kind = FrameKind::kResult;
  out.job_id = request.job_id;
  out.status = JobStatus::kOk;
  if (cache_hit) out.flags |= Frame::kFlagCacheHit;

  std::ostringstream payload;
  const core::ProtocolRun& run = pipeline->run;
  switch (request.kind) {
    case FrameKind::kParseRequest:
      payload << "corpus=" << corpus << " protocol=" << pipeline->protocol
              << " instances=" << run.reports.size()
              << " parsed=" << run.count(core::SentenceStatus::kParsed)
              << " zero=" << run.count(core::SentenceStatus::kZeroForms)
              << " ambiguous=" << run.count(core::SentenceStatus::kAmbiguous)
              << " non-actionable="
              << run.count(core::SentenceStatus::kNonActionable)
              << " functions=" << run.functions.size()
              << " signature=" << hex64(pipeline->signature_hash);
      break;
    case FrameKind::kCodegenRequest: {
      payload << "corpus=" << corpus << " functions=" << run.functions.size()
              << " signature=" << hex64(pipeline->signature_hash) << "\n";
      for (const auto& fn : run.functions) {
        payload << fn.name << " source=" << hex64(fnv1a_str(fn.c_source))
                << "\n";
      }
      break;
    }
    case FrameKind::kInteropRequest: {
      if (pipeline->responder == nullptr) {
        return error_frame(request.job_id, JobStatus::kBadRequest,
                           "corpus '" + corpus +
                               "' has no runnable responder (interop "
                               "requires an ICMP corpus)");
      }
      // The responder mutates per-event diagnostics; serialize jobs on
      // the same corpus. The ping itself is deterministic (fixed
      // identifier/sequence/timestamp), so serialization order cannot
      // leak into the payload.
      std::lock_guard lock(pipeline->responder_mutex);
      const sim::PingResult ping =
          eval::ping_against(pipeline->responder.get());
      payload << "corpus=" << corpus
              << " ping=" << (ping.success ? "pass" : "fail");
      for (const auto error : ping.errors) {
        payload << " error=" << sim::interop_error_name(error);
      }
      payload << "\n";
      for (const auto& line :
           eval::decode_reply(pipeline->responder.get())) {
        payload << line << "\n";
      }
      break;
    }
    default:
      return error_frame(request.job_id, JobStatus::kBadRequest,
                         "frame kind is not a pipeline job");
  }
  out.payload = payload.str();
  return out;
}

Frame Server::run_fuzz_job(const Frame& request) {
  std::string protocol;
  std::uint64_t seed = 1;
  std::size_t iterations = 100;
  std::string error;
  if (!parse_fuzz_payload(request.payload, &protocol, &seed, &iterations,
                          &error)) {
    return error_frame(request.job_id, JobStatus::kBadRequest,
                       "bad fuzz request: " + error);
  }
  const auto& known = fuzz::PacketGenerator::known_protocols();
  if (std::find(known.begin(), known.end(), protocol) == known.end()) {
    return error_frame(request.job_id, JobStatus::kBadRequest,
                       "unknown fuzz protocol '" + protocol + "'");
  }
  if (iterations == 0 || iterations > options_.max_fuzz_iterations) {
    return error_frame(request.job_id, JobStatus::kBadRequest,
                       "iters out of range (1.." +
                           std::to_string(options_.max_fuzz_iterations) + ")");
  }
  fuzz::FuzzOptions options;
  options.protocol = protocol;
  options.seed = seed;
  options.iterations = iterations;
  // The campaign runs inside one pool job already; its own fan-out
  // stays serial. Reports are deterministic in (seed, protocol, iters)
  // regardless, per the fuzzer's contract.
  options.jobs = 1;
  options.minimize = false;
  const fuzz::DifferentialFuzzer fuzzer(options);
  const fuzz::FuzzReport report = fuzzer.run();

  Frame out;
  out.kind = FrameKind::kResult;
  out.job_id = request.job_id;
  out.status = JobStatus::kOk;
  std::ostringstream payload;
  payload << report.summary() << "\n"
          << "log=" << hex64(report.log_hash) << "\n";
  for (const auto& failure : report.failures) {
    payload << "FAILURE " << fuzz::verdict_name(failure.verdict) << ": "
            << failure.detail << "\n";
  }
  out.payload = payload.str();
  return out;
}

Frame Server::execute(const Frame& request) {
  const auto start = std::chrono::steady_clock::now();
  Frame out;
  try {
    switch (request.kind) {
      case FrameKind::kParseRequest:
      case FrameKind::kCodegenRequest:
      case FrameKind::kInteropRequest:
        out = run_pipeline_job(request);
        break;
      case FrameKind::kFuzzRequest:
        out = run_fuzz_job(request);
        break;
      case FrameKind::kStatsRequest: {
        out.kind = FrameKind::kStatsResult;
        out.job_id = request.job_id;
        out.status = JobStatus::kOk;
        out.payload = stats().to_json();
        break;
      }
      default:
        out = error_frame(request.job_id, JobStatus::kBadRequest,
                          "not a request kind");
        break;
    }
  } catch (const std::exception& e) {
    out = error_frame(request.job_id, JobStatus::kExecFailed, e.what());
  } catch (...) {
    out = error_frame(request.job_id, JobStatus::kExecFailed,
                      "unknown exception");
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  out.time_micros = static_cast<std::uint32_t>(
      std::min<std::int64_t>(elapsed.count(), UINT32_MAX));
  if (out.status == JobStatus::kOk) {
    jobs_ok_.fetch_add(1, std::memory_order_relaxed);
  } else {
    jobs_failed_.fetch_add(1, std::memory_order_relaxed);
  }
  return out;
}

void Server::serve_connection(Transport& transport) {
  connections_.fetch_add(1, std::memory_order_relaxed);

  // Responses stream back in completion order; pool jobs share the
  // write side under one mutex. `pending` keeps the connection's
  // transport alive until every submitted job has answered.
  struct ConnectionState {
    std::mutex write_mutex;
    std::condition_variable cv;
    std::size_t pending = 0;
  };
  auto state = std::make_shared<ConnectionState>();

  auto send = [&transport, state](const Frame& frame) {
    const std::vector<std::uint8_t> image = encode_frame(frame);
    std::lock_guard lock(state->write_mutex);
    transport.write_all(image.data(), image.size());
  };
  auto drain = [state] {
    std::unique_lock lock(state->write_mutex);
    state->cv.wait(lock, [&] { return state->pending == 0; });
  };

  for (;;) {
    std::uint8_t header[kHeaderBytes];
    const std::size_t got = transport.read_exact(header, kHeaderBytes);
    if (got == 0) break;  // clean EOF: peer finished without kGoodbye
    Frame request;
    std::size_t payload_length = 0;
    DecodeStatus status = DecodeStatus::kShortHeader;
    if (got == kHeaderBytes) {
      status = decode_header({header, kHeaderBytes}, &request, &payload_length);
    }
    if (status == DecodeStatus::kOk && payload_length > 0) {
      request.payload.resize(payload_length);
      const std::size_t body = transport.read_exact(
          reinterpret_cast<std::uint8_t*>(request.payload.data()),
          payload_length);
      if (body != payload_length) status = DecodeStatus::kShortPayload;
    }
    if (status != DecodeStatus::kOk) {
      // Malformed framing: we cannot resynchronize a byte stream, so
      // answer one well-formed error frame and close the connection.
      // The frame still carries the claimed job id when the header
      // decoded far enough to have one.
      frames_rejected_.fetch_add(1, std::memory_order_relaxed);
      drain();
      send(error_frame(request.job_id, JobStatus::kBadFrame,
                       std::string("bad frame: ") + decode_status_name(status)));
      break;
    }
    if (request.kind == FrameKind::kGoodbye) {
      drain();
      break;
    }
    if (!is_request_kind(static_cast<std::uint8_t>(request.kind))) {
      // Well-formed frame, nonsensical kind: answer and keep going —
      // the stream is still in sync.
      send(error_frame(request.job_id, JobStatus::kBadRequest,
                       "not a request kind"));
      continue;
    }
    {
      std::lock_guard lock(state->write_mutex);
      ++state->pending;
    }
    pool_.submit([this, state, &transport, request = std::move(request)] {
      const Frame response = execute(request);
      const std::vector<std::uint8_t> image = encode_frame(response);
      std::lock_guard lock(state->write_mutex);
      transport.write_all(image.data(), image.size());
      --state->pending;
      state->cv.notify_all();
    });
  }
  drain();
  transport.close_write();
}

void Server::serve_connection_async(std::shared_ptr<Transport> transport) {
  auto done = std::make_shared<std::atomic<bool>>(false);
  std::lock_guard lock(threads_mutex_);
  // A finished thread has returned from serve_connection, so joining it
  // (the jthread destructor) does not wait on a peer.
  std::erase_if(connection_threads_, [](const ConnectionThread& c) {
    return c.done->load();
  });
  connection_threads_.push_back(
      {done, std::jthread([this, done, transport = std::move(transport)] {
         serve_connection(*transport);
         done->store(true);
       })});
}

void Server::serve_acceptor(SocketAcceptor& acceptor) {
  for (;;) {
    std::unique_ptr<Transport> conn = acceptor.accept();
    if (conn == nullptr) break;  // acceptor closed
    serve_connection_async(std::move(conn));
  }
}

StatsSnapshot Server::stats() const {
  StatsSnapshot snap = StatsSnapshot::capture(parse_cache_.get());
  snap.connections = connections_.load(std::memory_order_relaxed);
  snap.frames_rejected = frames_rejected_.load(std::memory_order_relaxed);
  snap.jobs_ok = jobs_ok_.load(std::memory_order_relaxed);
  snap.jobs_failed = jobs_failed_.load(std::memory_order_relaxed);
  snap.pipeline_hits = pipeline_hits_.load(std::memory_order_relaxed);
  snap.pipeline_misses = pipeline_misses_.load(std::memory_order_relaxed);
  {
    std::lock_guard lock(pipelines_mutex_);
    snap.pipelines_cached = pipelines_.size();
  }
  {
    std::lock_guard lock(threads_mutex_);
    snap.connection_threads = connection_threads_.size();
  }
  return snap;
}

}  // namespace sage::serve
