#include "serve/frame.hpp"

#include <algorithm>

#include "net/schema.hpp"
#include "util/digest.hpp"

namespace sage::serve {

namespace {

using net::schema::FieldSpec;
using net::schema::SchemaRegistry;

/// The serve layer's field specs, resolved once. Encoding and decoding
/// go through these — the registry owns the layout, not this file.
struct ServeLayer {
  const FieldSpec* magic;
  const FieldSpec* version;
  const FieldSpec* kind;
  const FieldSpec* job_id;
  const FieldSpec* status;
  const FieldSpec* flags;
  const FieldSpec* time_micros;
  const FieldSpec* payload_length;
  const FieldSpec* reserved;
};

const ServeLayer& serve_layer() {
  static const ServeLayer layer = [] {
    const auto& reg = SchemaRegistry::instance();
    ServeLayer l;
    l.magic = reg.field("serve", "magic");
    l.version = reg.field("serve", "version");
    l.kind = reg.field("serve", "kind");
    l.job_id = reg.field("serve", "job_id");
    l.status = reg.field("serve", "status");
    l.flags = reg.field("serve", "flags");
    l.time_micros = reg.field("serve", "time_micros");
    l.payload_length = reg.field("serve", "payload_length");
    l.reserved = reg.field("serve", "reserved");
    return l;
  }();
  return layer;
}

long read_field(const FieldSpec* spec, std::span<const std::uint8_t> image) {
  const auto value = SchemaRegistry::read_scalar(*spec, image);
  return value ? *value : 0;
}

}  // namespace

const char* frame_kind_name(FrameKind kind) {
  switch (kind) {
    case FrameKind::kParseRequest: return "parse";
    case FrameKind::kCodegenRequest: return "codegen";
    case FrameKind::kInteropRequest: return "interop";
    case FrameKind::kFuzzRequest: return "fuzz";
    case FrameKind::kStatsRequest: return "stats";
    case FrameKind::kGoodbye: return "goodbye";
    case FrameKind::kResult: return "result";
    case FrameKind::kStatsResult: return "stats-result";
    case FrameKind::kError: return "error";
  }
  return "?";
}

bool is_known_kind(std::uint8_t kind) {
  switch (static_cast<FrameKind>(kind)) {
    case FrameKind::kParseRequest:
    case FrameKind::kCodegenRequest:
    case FrameKind::kInteropRequest:
    case FrameKind::kFuzzRequest:
    case FrameKind::kStatsRequest:
    case FrameKind::kGoodbye:
    case FrameKind::kResult:
    case FrameKind::kStatsResult:
    case FrameKind::kError:
      return true;
  }
  return false;
}

bool is_request_kind(std::uint8_t kind) {
  return is_known_kind(kind) && kind < 16;
}

const char* job_status_name(JobStatus status) {
  switch (status) {
    case JobStatus::kOk: return "ok";
    case JobStatus::kBadFrame: return "bad-frame";
    case JobStatus::kBadRequest: return "bad-request";
    case JobStatus::kUnknownCorpus: return "unknown-corpus";
    case JobStatus::kExecFailed: return "exec-failed";
  }
  return "?";
}

const char* decode_status_name(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kShortHeader: return "short-header";
    case DecodeStatus::kBadMagic: return "bad-magic";
    case DecodeStatus::kBadVersion: return "bad-version";
    case DecodeStatus::kBadReserved: return "bad-reserved";
    case DecodeStatus::kOversized: return "oversized";
    case DecodeStatus::kShortPayload: return "short-payload";
    case DecodeStatus::kTrailingBytes: return "trailing-bytes";
  }
  return "?";
}

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  const ServeLayer& l = serve_layer();
  std::vector<std::uint8_t> image(kHeaderBytes + frame.payload.size(), 0);
  const std::span<std::uint8_t> header(image.data(), kHeaderBytes);
  SchemaRegistry::write_scalar(*l.magic, header, kMagic);
  SchemaRegistry::write_scalar(*l.version, header, kWireVersion);
  SchemaRegistry::write_scalar(*l.kind, header,
                               static_cast<long>(frame.kind));
  SchemaRegistry::write_scalar(*l.job_id, header,
                               static_cast<long>(frame.job_id));
  SchemaRegistry::write_scalar(*l.status, header,
                               static_cast<long>(frame.status));
  SchemaRegistry::write_scalar(*l.flags, header,
                               static_cast<long>(frame.flags));
  SchemaRegistry::write_scalar(*l.time_micros, header,
                               static_cast<long>(frame.time_micros));
  SchemaRegistry::write_scalar(*l.payload_length, header,
                               static_cast<long>(frame.payload.size()));
  SchemaRegistry::write_scalar(*l.reserved, header, 0);
  std::copy(frame.payload.begin(), frame.payload.end(),
            image.begin() + static_cast<std::ptrdiff_t>(kHeaderBytes));
  return image;
}

DecodeStatus decode_header(std::span<const std::uint8_t> header, Frame* out,
                           std::size_t* payload_length) {
  if (header.size() < kHeaderBytes) return DecodeStatus::kShortHeader;
  header = header.first(kHeaderBytes);
  const ServeLayer& l = serve_layer();
  if (read_field(l.magic, header) != kMagic) return DecodeStatus::kBadMagic;
  if (read_field(l.version, header) != kWireVersion) {
    return DecodeStatus::kBadVersion;
  }
  if (read_field(l.reserved, header) != 0) return DecodeStatus::kBadReserved;
  const long length = read_field(l.payload_length, header);
  if (static_cast<std::size_t>(length) > kMaxPayloadBytes) {
    return DecodeStatus::kOversized;
  }
  out->kind = static_cast<FrameKind>(read_field(l.kind, header));
  out->job_id = static_cast<std::uint32_t>(read_field(l.job_id, header));
  out->status = static_cast<JobStatus>(read_field(l.status, header));
  out->flags = static_cast<std::uint8_t>(read_field(l.flags, header));
  out->time_micros =
      static_cast<std::uint32_t>(read_field(l.time_micros, header));
  out->payload.clear();
  *payload_length = static_cast<std::size_t>(length);
  return DecodeStatus::kOk;
}

DecodeStatus decode_frame(std::span<const std::uint8_t> image, Frame* out) {
  std::size_t payload_length = 0;
  const DecodeStatus status = decode_header(image, out, &payload_length);
  if (status != DecodeStatus::kOk) return status;
  if (image.size() < kHeaderBytes + payload_length) {
    return DecodeStatus::kShortPayload;
  }
  if (image.size() > kHeaderBytes + payload_length) {
    return DecodeStatus::kTrailingBytes;
  }
  const auto payload = image.subspan(kHeaderBytes, payload_length);
  out->payload.assign(payload.begin(), payload.end());
  return DecodeStatus::kOk;
}

std::uint64_t result_digest(const Frame& frame) {
  const std::uint8_t meta[2] = {static_cast<std::uint8_t>(frame.kind),
                                static_cast<std::uint8_t>(frame.status)};
  return util::fnv1a_str(frame.payload, util::fnv1a(meta));
}

std::string hex64(std::uint64_t value) { return "0x" + util::hex64(value); }

}  // namespace sage::serve
