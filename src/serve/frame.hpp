// sage_serve wire framing — the daemon's own protocol, dogfooded
// through the packet-schema registry.
//
// Every request and response on a serve connection is one length-prefixed
// binary frame: a 20-byte fixed header (magic, wire version, frame kind,
// job id, status, flags, server wall time, payload length) followed by
// `payload_length` payload bytes. The header layout is NOT hand-rolled:
// it is the `serve` layer registered in net::SchemaRegistry, and this
// codec encodes/decodes exclusively through the registry's
// write_scalar/read_wire machinery — so `sage_debug --dump-schema` prints
// the daemon's wire format next to ICMP's, decode_layer renders captured
// frames, and the codec round-trip is property-tested the same way every
// other protocol layer is (tests/test_serve.cpp). docs/SERVICE.md holds
// the rendered format table and the framing contract.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace sage::serve {

inline constexpr std::uint16_t kMagic = 0x5347;  // "SG"
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kHeaderBytes = 20;
/// Frames advertising a longer payload are rejected before any payload
/// byte is read (oversized-frame pin in tests/test_serve.cpp).
inline constexpr std::size_t kMaxPayloadBytes = std::size_t{1} << 24;

/// Frame kinds. Requests are < 16, responses >= 16; the values are also
/// the SERVE protocol's schema symbols, so a decoded `serve.kind` can be
/// named from the registry table.
enum class FrameKind : std::uint8_t {
  // requests
  kParseRequest = 1,    // payload: corpus name ("icmp", "igmp", ...)
  kCodegenRequest = 2,  // payload: corpus name
  kInteropRequest = 3,  // payload: corpus name (ICMP corpora only)
  kFuzzRequest = 4,     // payload: "proto=<p> seed=<n> iters=<n>"
  kStatsRequest = 5,    // payload: empty
  kGoodbye = 6,         // payload: empty; close after pending jobs drain
  // responses
  kResult = 17,       // completed job (status == kOk)
  kStatsResult = 18,  // StatsSnapshot json (excluded from result digests)
  kError = 19,        // failed job or rejected frame
};

const char* frame_kind_name(FrameKind kind);
bool is_request_kind(std::uint8_t kind);
bool is_known_kind(std::uint8_t kind);

/// Per-job outcome carried in the response header.
enum class JobStatus : std::uint8_t {
  kOk = 0,
  kBadFrame = 1,       // malformed framing; connection closes after reply
  kBadRequest = 2,     // well-formed frame, unusable request
  kUnknownCorpus = 3,  // parse/codegen/interop on a corpus we don't embed
  kExecFailed = 4,     // the job itself threw
};

const char* job_status_name(JobStatus status);

/// One frame, decoded. `flags` bit 0 reports a session-cache hit and
/// `time_micros` the server-side job wall time — both are observability
/// fields excluded from result_digest(), so response bytes hashed for
/// determinism checks never depend on scheduling.
struct Frame {
  FrameKind kind = FrameKind::kError;
  std::uint32_t job_id = 0;
  JobStatus status = JobStatus::kOk;
  std::uint8_t flags = 0;
  std::uint32_t time_micros = 0;
  std::string payload;

  static constexpr std::uint8_t kFlagCacheHit = 1;
  bool cache_hit() const { return (flags & kFlagCacheHit) != 0; }
};

enum class DecodeStatus : std::uint8_t {
  kOk,
  kShortHeader,    // fewer than kHeaderBytes bytes
  kBadMagic,
  kBadVersion,
  kBadReserved,    // reserved bits set (forward-compat guard)
  kOversized,      // payload_length > kMaxPayloadBytes
  kShortPayload,   // image ends before payload_length bytes
  kTrailingBytes,  // whole-buffer decode with bytes left over
};

const char* decode_status_name(DecodeStatus status);

/// Serialize a frame: 20-byte schema-written header + payload bytes.
std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// Decode a complete frame image (header + payload, nothing else).
DecodeStatus decode_frame(std::span<const std::uint8_t> image, Frame* out);

/// Decode and validate just the header; on kOk fills `out` (payload left
/// empty) and `payload_length`. Stream readers call this on the first
/// kHeaderBytes, then read the payload separately.
DecodeStatus decode_header(std::span<const std::uint8_t> header, Frame* out,
                           std::size_t* payload_length);

/// Deterministic identity of a response: FNV over (kind, status,
/// payload). Deliberately excludes job_id (batch/connection dependent),
/// flags, and time_micros (scheduling dependent) — two runs of the same
/// job must digest identically at any --jobs and client count.
std::uint64_t result_digest(const Frame& frame);

/// "0x" + util::hex64(value): how serve payloads and reports print a
/// digest.
std::string hex64(std::uint64_t value);

}  // namespace sage::serve
